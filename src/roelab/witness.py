"""Almost-invariant partition witnesses, positive-type kernels, and the
windowed operator-norm localization search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .operator import operator_norm
from .space import WINDOW_BATCH_ELEMENTS, GridSpace

L1_NORMALIZATION_TOL = 1e-12
PSD_EIGENVALUE_TOL = -1e-9
PSD_SUBSET_LIMIT = 2000
# windows are gathered densely from an n x n matrix up to this many points,
# and from the sorted coordinate entries above it
DENSE_WINDOW_CUTOFF = 2000
# window norms within this relative distance of the largest one tie, and
# ties go to the lowest center: windows with equal exact norms (translates,
# clamped repeats, graph automorphisms) differ by a few ulps, and which of
# them comes out largest depends on the arithmetic path
WINDOW_TIE_RTOL = 1e-12


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessFunction:
    """Family of non-negative unit ell^1 vectors xi_x, one per domain point,
    each supported within distance `support_radius` of its anchor.  Row i of
    the CSR `matrix` (one column per point of the space) is xi at domain[i];
    `domain` is a sorted id array."""

    domain: np.ndarray
    matrix: csr_matrix
    support_radius: float

    def validate(self, space):
        """Row masses, signs and supports, each checked in one pass."""
        domain, W = self.domain, self.matrix
        if not len(domain):
            raise WitnessError("empty witness domain")
        mass = W.sum(axis=1).A1
        bad = np.abs(mass - 1.0) > L1_NORMALIZATION_TOL
        if bad.any():
            x, total = domain[bad.argmax()], mass[bad.argmax()]
            raise WitnessError(f"vector at {x} has l1 mass {total}")
        anchors = domain[np.repeat(np.arange(len(domain)), np.diff(W.indptr))]
        if (W.data < 0).any():
            x = anchors[(W.data < 0).argmax()]
            raise WitnessError(f"vector at {x} has negative weights")
        far = space.pair_distances(anchors, W.indices) > self.support_radius
        if far.any():
            raise WitnessError(
                f"vector at {anchors[far.argmax()]} escapes its support ball")
        return self


@dataclass(frozen=True)
class Kernel:
    points: tuple
    matrix: np.ndarray


@dataclass(frozen=True)
class LocalizationReport:
    S: float
    best_constant: float
    window_norm: float
    operator_norm: float
    witness_window: tuple
    witness_center: int
    witness_vector: dict
    mode: str


def averaging_witness_grid(space, D, S):
    """xi_x = normalized characteristic function of B(x, S)."""
    if S < 1:
        raise WitnessError("averaging radius must be at least 1")
    domain = np.unique(np.asarray(D, dtype=np.int64))
    sizes, cols = space.balls(domain, S)
    W = csr_matrix((np.repeat(1.0 / sizes, sizes), cols,
                    np.concatenate(([0], np.cumsum(sizes)))),
                   shape=(len(domain), space.n))
    return WitnessFunction(domain, W, S)


def check_partition_witness(space, witness, R):
    """Max of ||xi_x - xi_y||_1 over domain pairs at distance <= R, and the
    first pair x < y, in lexicographic order, within WINDOW_TIE_RTOL of it
    (None when the max is 0).  The difference rows are formed in stacks of
    at most WINDOW_BATCH_ELEMENTS stored entries."""
    witness.validate(space)
    W = witness.matrix
    row_of = np.full(space.n, -1)
    row_of[witness.domain] = np.arange(len(witness.domain))
    rows, cols = space.pairs_within(R)
    keep = (rows < cols) & (row_of[rows] >= 0) & (row_of[cols] >= 0)
    rows, cols = rows[keep], cols[keep]
    a, b = row_of[rows], row_of[cols]
    # each difference row stores at most twice the longest witness row
    step = max(1, WINDOW_BATCH_ELEMENTS // (2 * np.diff(W.indptr).max()))
    variation = np.empty(len(a))
    for lo in range(0, len(a), step):
        hi = lo + step
        variation[lo:hi] = abs(W[a[lo:hi]] - W[b[lo:hi]]).sum(axis=1).A1
    worst = float(variation.max()) if variation.size else 0.0
    if worst == 0.0:
        return 0.0, None
    first = int(np.argmax(variation >= worst * (1.0 - WINDOW_TIE_RTOL)))
    return worst, (int(rows[first]), int(cols[first]))


def kernel_from_witness(witness):
    """Gram kernel sqrt(W) sqrt(W)^T of the square-rooted witness vectors.

    The square root carries unit ell^1 vectors to unit ell^2 vectors, so
    k(x, x) = 1, k is symmetric, and k vanishes beyond twice the support
    radius."""
    V = witness.matrix.sqrt()
    return Kernel(points=tuple(witness.domain.tolist()),
                  matrix=(V @ V.T).toarray())


def check_positive_type(kernel, subsets):
    """True when every principal submatrix over the given index subsets is
    positive semidefinite (least eigenvalue above -1e-9)."""
    idx = {p: i for i, p in enumerate(kernel.points)}
    for subset in subsets:
        subset = sorted(subset)
        if len(subset) > PSD_SUBSET_LIMIT:
            raise WitnessError(
                f"subset of {len(subset)} points exceeds the "
                f"{PSD_SUBSET_LIMIT} limit")
        rows = [idx[p] for p in subset]
        sub = kernel.matrix[np.ix_(rows, rows)]
        if np.linalg.eigvalsh(sub)[0] < PSD_EIGENVALUE_TOL:
            return False
    return True


def default_margin(space, S):
    """Grid boundary points within S of an edge; finite windows of a grid
    under-report interior norms near edges."""
    if not isinstance(space, GridSpace):
        return frozenset()
    return frozenset(space.near_edge(S).tolist())


def candidate_windows(space, S, margin):
    """(center, window) candidates of diameter <= S, one per allowed center.

    One-dimensional grids use runs of floor(S) + 1 consecutive points (the
    maximal diameter-S sets there); other spaces use the balls of radius
    S / 2 of the space's ball query."""
    centers = [c for c in space.points if c not in margin]
    if isinstance(space, GridSpace) and space.dims == 1:
        S = int(S)
        n = space.n
        windows = []
        for c in centers:
            lo = max(0, min(c - (S + 1) // 2, n - 1 - S))
            hi = min(n - 1, lo + S)
            windows.append((c, tuple(range(lo, hi + 1))))
        return windows
    sizes, ids = space.balls(centers, S / 2)
    # centre i's ball is ids[bounds[i]:bounds[i + 1]]
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    ids = ids.tolist()
    return [(c, tuple(ids[a:b]))
            for c, a, b in zip(centers, bounds, bounds[1:])]


def _block_gatherer(T, mode):
    """Function from an index stack W (m x k) to the stack of k x k blocks
    that `mode` evaluates: T on W x W, or (T*T) on W x W in column mode.
    Real when T is."""
    n = T.space.n
    if n <= DENSE_WINDOW_CUTOFF:
        dense = T.to_dense()
        if not dense.imag.any():
            dense = np.ascontiguousarray(dense.real)
        if mode == "column":
            dense = dense.conj().T @ dense
        return lambda idx: dense[idx[:, :, None], idx[:, None, :]]
    op = T if mode == "two_sided" else T.adjoint() @ T
    return lambda idx: op.values_at(idx[:, :, None], idx[:, None, :])


def _window_norms(blocks, mode):
    """Largest singular value of each block of a stack; in column mode the
    blocks are Gram blocks and the norm is the root of the top eigenvalue."""
    if mode == "two_sided":
        return np.linalg.svd(blocks, compute_uv=False)[:, 0]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(blocks)[:, -1], 0.0))


def localization_constant(T, S, margin=None, mode="two_sided"):
    """Sweep diameter-S windows and report the best localized-norm fraction.

    mode "two_sided" measures the corner norm ||chi_W T chi_W||; mode
    "column" measures ||T chi_W||, the best norm achievable on unit vectors
    supported in the window.  Ties (norms within WINDOW_TIE_RTOL of the
    largest) break toward the lowest center id.

    Windows of equal size are evaluated together, in stacks of at most
    WINDOW_BATCH_ELEMENTS entries; only the winning window's singular
    vector is computed.
    """
    if T.is_zero():
        raise WitnessError("localization of the zero operator is undefined")
    if S < 0:
        raise WitnessError("window diameter must be non-negative")
    if mode not in ("two_sided", "column"):
        raise WitnessError(f"unknown localization mode {mode!r}")
    space = T.space
    if margin is None:
        margin = default_margin(space, S)
    windows = [w for w in candidate_windows(space, S, margin) if w[1]]
    if not windows:
        raise WitnessError("no candidate windows left after margin exclusion")

    gather = _block_gatherer(T, mode)
    by_size = {}
    for i, (_, window) in enumerate(windows):
        by_size.setdefault(len(window), []).append(i)
    norms = np.empty(len(windows))
    for size, members in by_size.items():
        members = np.asarray(members)
        idx = np.array([windows[i][1] for i in members], dtype=np.int64)
        step = max(1, WINDOW_BATCH_ELEMENTS // (size * size))
        for lo in range(0, len(members), step):
            norms[members[lo:lo + step]] = _window_norms(
                gather(idx[lo:lo + step]), mode)
    # the first window, in center order, that ties with the largest norm
    best = int(np.argmax(norms >= norms.max() * (1.0 - WINDOW_TIE_RTOL)))
    best_center, best_window = windows[best]
    block = gather(np.asarray([best_window], dtype=np.int64))[0]
    if mode == "two_sided":
        best_vec = np.conj(np.linalg.svd(block)[2][0])
    else:
        best_vec = np.linalg.eigh(block)[1][:, -1]
    best_norm = float(norms[best])
    op_norm = operator_norm(T)
    witness_vector = {int(p): complex(v)
                      for p, v in zip(best_window, best_vec)
                      if abs(v) >= 1e-15}
    return LocalizationReport(
        S=S, best_constant=best_norm / op_norm, window_norm=best_norm,
        operator_norm=op_norm, witness_window=tuple(best_window),
        witness_center=int(best_center), witness_vector=witness_vector,
        mode=mode)


def resistance_check(blocks, kappa, S_schedule):
    """Verify a localization-resistance certificate.

    blocks: list of (operator, point set) pairs on a common space, pairwise
    disjoint, each of norm one (within 5%).  True when every block operator
    column-localizes to at most kappa at its scheduled window diameter.
    """
    if len(blocks) != len(S_schedule):
        raise WitnessError("schedule length does not match block count")
    if any(b >= a for a, b in zip(S_schedule[1:], S_schedule[:-1])):
        raise WitnessError("window schedule must be strictly increasing")
    sets = [frozenset(b) for _, b in blocks]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                raise WitnessError(f"blocks {i} and {j} overlap")
    details = []
    ok = True
    for (op, block), S in zip(blocks, S_schedule):
        if op.is_zero():
            details.append({"S": S, "constant": 0.0, "norm": 0.0})
            continue
        norm = operator_norm(op)
        if abs(norm - 1.0) > 0.05:
            raise WitnessError(f"block operator norm {norm:.4f} is not ~1")
        report = localization_constant(op, S, margin=frozenset(),
                                       mode="column")
        details.append({"S": S, "constant": report.best_constant,
                        "norm": norm})
        if report.best_constant > kappa:
            ok = False
    return ok, details
