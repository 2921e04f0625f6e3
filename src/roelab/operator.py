"""Band operators at finite scale: sparse *-algebra with tracked propagation,
threshold supports and truncations, ghost profiles, and spectral norms,
cached per operator.

A norm is exact (one LAPACK solve) on active blocks of at most
DENSE_NORM_CUTOFF points.  Above that, `norm_bracket` certifies it to
hi - lo <= NORM_RTOL * hi: lo = ||Mv|| / ||v|| for v from a seeded Lanczos
run on G = M*M (M the active block), and hi = s where a Cholesky
factorization of s^2 I - G, shifted down by a bound on its rounding error,
succeeds (Rump, "Verification methods", Acta Numerica 2010).  The factor is
banded after a reverse Cuthill-McKee ordering when G's band is narrow, dense
otherwise.  When Lanczos or the first factorization falls short, s is
bisected and inverse iteration with each factor raises lo; above
CERTIFICATE_MAX_ENTRIES, NormConvergenceError carries the best bracket.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import (LinAlgError, cho_factor, cho_solve,
                          cho_solve_banded, cholesky_banded)
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

PRUNE_THRESHOLD = 1e-14
# active points up to which one LAPACK solve is cheaper than a certificate
DENSE_NORM_CUTOFF = 150
# relative width of every certified norm bracket
NORM_RTOL = 1e-9
# largest Cholesky factor, in entries, a certificate may hold
CERTIFICATE_MAX_ENTRIES = 2 ** 23
# Lanczos restarts before the certificate falls back to bisection
LANCZOS_MAXITER = 10
# inverse-iteration steps per successful factorization
INVERSE_ITERATION_STEPS = 50
# Cholesky factorizations before a bracket that has not closed is given up
MAX_FACTORIZATIONS = 100


class OperatorError(ValueError):
    pass


class NormConvergenceError(RuntimeError):
    """A norm bracket did not close; carries the best bracket found."""

    def __init__(self, message, bracket):
        super().__init__(f"{message} (bracket {bracket[0]:.6g}..{bracket[1]:.6g})")
        self.bracket = bracket


def _check_ids(n, *ids):
    """Ids outside 0..n-1 would alias other coordinates' keys row * n + col."""
    if any(a.size and (a.min() < 0 or a.max() >= n) for a in ids):
        raise OperatorError(f"point ids must lie in 0..{n - 1}")


class BandOperator:
    """Sparse operator on ell^2 of a finite coarse space.

    Entries are stored deduplicated in coordinate form with moduli below
    1e-14 pruned, so supp(T) stays meaningful under float arithmetic.
    Immutable, with read-only entry arrays; all operations return new
    operators.  `operator_norm` caches its bracket in `_norm`.
    """

    __slots__ = ("space", "rows", "cols", "vals", "propagation", "_keys",
                 "_norm")

    def __init__(self, space, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.complex128)
        _check_ids(space.n, rows, cols)
        keep = np.abs(vals) >= PRUNE_THRESHOLD
        # entries are kept sorted by the key row * n + col
        keys = rows[keep] * space.n + cols[keep]
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[keep][order]
        if np.any(keys[1:] == keys[:-1]):
            # merge duplicate coordinates
            keys, inv = np.unique(keys, return_inverse=True)
            merged = np.zeros(keys.size, dtype=np.complex128)
            np.add.at(merged, inv, vals)
            keep = np.abs(merged) >= PRUNE_THRESHOLD
            keys, vals = keys[keep], merged[keep]
        rows, cols = np.divmod(keys, space.n)
        for arr in (rows, cols, vals, keys):
            arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_keys", keys)
        prop = 0
        if rows.size and np.any(rows != cols):
            off = rows != cols
            dists = space.pair_distances(rows[off], cols[off])
            prop = float(np.max(dists))
            if prop.is_integer():
                prop = int(prop)
        object.__setattr__(self, "propagation", prop)
        object.__setattr__(self, "_norm", None)

    def __setattr__(self, *a):
        raise AttributeError("BandOperator is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_entries(cls, space, entries):
        """entries: mapping (x, y) -> value."""
        if not entries:
            return cls(space, [], [], [])
        rows, cols, vals = zip(*((x, y, v) for (x, y), v in entries.items()))
        return cls(space, rows, cols, vals)

    @classmethod
    def identity(cls, space):
        idx = np.arange(space.n)
        return cls(space, idx, idx, np.ones(space.n))

    @classmethod
    def adjacency(cls, space, R=1, normalize=False):
        """Indicator of the pairs at distance exactly in (0, R]."""
        rows, cols = space.pairs_within(R)
        off = rows != cols
        op = cls(space, rows[off], cols[off], np.ones(int(off.sum())))
        if normalize and op.nnz:
            deg = int(np.bincount(op.rows, minlength=space.n).max())
            op = op.scale(1.0 / deg)
        return op

    @classmethod
    def shift_1d(cls, space, step=1):
        """T(x+step, x) = 1 wherever both endpoints lie in a 1-d grid."""
        n = space.n
        cols = np.arange(max(0, -step), min(n, n - step))
        return cls(space, cols + step, cols, np.ones(cols.size))

    # -- basic views ----------------------------------------------------------

    @property
    def nnz(self):
        return int(self.rows.size)

    def entries(self):
        return {(int(x), int(y)): v
                for x, y, v in zip(self.rows, self.cols, self.vals)}

    def entry(self, x, y):
        return complex(self.values_at(x, y))

    def values_at(self, x, y):
        """T(x, y) at (broadcast) arrays of point ids, zero where T has no
        entry; real when every entry of T is.  One binary search on the
        sorted keys per coordinate."""
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        _check_ids(self.space.n, x, y)
        want = x * self.space.n + y
        if not self.nnz:
            return np.zeros(want.shape)
        pos = np.searchsorted(self._keys, want)
        hit = self._keys.take(pos, mode="clip") == want
        vals = self.vals.real if not self.vals.imag.any() else self.vals
        return np.where(hit, vals.take(pos, mode="clip"), 0)

    def support(self):
        return {(int(x), int(y)) for x, y in zip(self.rows, self.cols)}

    def to_csr(self):
        return csr_matrix((self.vals, (self.rows, self.cols)),
                          shape=(self.space.n, self.space.n))

    def to_dense(self):
        return self.to_csr().toarray()

    def is_zero(self):
        return self.nnz == 0

    def sup_entry_norm(self):
        """sup |T(x,y)|, always <= the operator norm."""
        return float(np.abs(self.vals).max()) if self.nnz else 0.0

    # -- algebra --------------------------------------------------------------

    def _check_space(self, other):
        if other.space is not self.space and \
                other.space.descriptor() != self.space.descriptor():
            raise OperatorError("operators live on different spaces")

    def __add__(self, other):
        self._check_space(other)
        return BandOperator(self.space,
                            np.concatenate([self.rows, other.rows]),
                            np.concatenate([self.cols, other.cols]),
                            np.concatenate([self.vals, other.vals]))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return BandOperator(self.space, self.rows, self.cols, self.vals * c)

    def __matmul__(self, other):
        self._check_space(other)
        prod = (self.to_csr() @ other.to_csr()).tocoo()
        return BandOperator(self.space, prod.row, prod.col, prod.data)

    def adjoint(self):
        return BandOperator(self.space, self.cols, self.rows,
                            np.conj(self.vals))

    # -- threshold structure --------------------------------------------------

    def epsilon_support(self, eps):
        """Pairs with |T(x,y)| >= eps (closed inequality)."""
        if eps <= 0:
            raise OperatorError("threshold must be positive")
        keep = np.abs(self.vals) >= eps
        return {(int(x), int(y))
                for x, y in zip(self.rows[keep], self.cols[keep])}

    def epsilon_rows(self, eps):
        """First-coordinate projection of the eps-support."""
        if eps <= 0:
            raise OperatorError("threshold must be positive")
        return {int(x) for x in self.rows[np.abs(self.vals) >= eps]}

    def truncate(self, eps):
        """Keep entries with |T(x,y)| >= eps, zero the rest."""
        if eps <= 0:
            raise OperatorError("threshold must be positive")
        keep = np.abs(self.vals) >= eps
        return BandOperator(self.space, self.rows[keep], self.cols[keep],
                            self.vals[keep])

    def window_restrict(self, A, B):
        """Keep entries with row in A and column in B."""
        A = np.fromiter(A, dtype=np.int64) if not isinstance(A, np.ndarray) else A
        B = np.fromiter(B, dtype=np.int64) if not isinstance(B, np.ndarray) else B
        keep = np.isin(self.rows, A) & np.isin(self.cols, B)
        return BandOperator(self.space, self.rows[keep], self.cols[keep],
                            self.vals[keep])

    def ghost_profile(self, exhaustion):
        """For F_1 <= F_2 <= ... <= X, the max entry modulus outside each
        F_k x F_k.  Non-increasing; zero at the final (full) stage."""
        prev = None
        full = set(self.space.points)
        for F in exhaustion:
            F = set(F)
            if prev is not None and not prev <= F:
                raise OperatorError("exhaustion is not increasing")
            prev = F
        if prev != full:
            raise OperatorError("exhaustion does not end at the full space")
        out = []
        for F in exhaustion:
            F_arr = np.fromiter(F, dtype=np.int64)
            outside = ~(np.isin(self.rows, F_arr) & np.isin(self.cols, F_arr))
            vals = np.abs(self.vals[outside])
            out.append(float(vals.max()) if vals.size else 0.0)
        return out

    # -- serialization --------------------------------------------------------

    def serialize(self, path):
        """JSON header line, then `row col re im` triplet lines.  Uses repr
        floats, so the round trip is bit exact."""
        header = {"schema": 1, "space": self.space.descriptor(),
                  "propagation": self.propagation, "nnz": self.nnz}
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for x, y, v in zip(self.rows, self.cols, self.vals):
                fh.write(f"{x} {y} {float(v.real)!r} {float(v.imag)!r}\n")

    @classmethod
    def deserialize(cls, path, space=None):
        from .space import space_from_descriptor
        with open(path) as fh:
            header = json.loads(fh.readline())
            if space is None:
                space = space_from_descriptor(header["space"])
            rows, cols, vals = [], [], []
            for line in fh:
                x, y, re, im = line.split()
                rows.append(int(x))
                cols.append(int(y))
                vals.append(complex(float(re), float(im)))
        return cls(space, rows, cols, vals)


def schur_norm_bound(T):
    """sqrt(max row sum * max col sum) of |entries|; an upper norm bound."""
    if T.is_zero():
        return 0.0
    a = np.abs(T.vals)
    r = np.zeros(T.space.n)
    c = np.zeros(T.space.n)
    np.add.at(r, T.rows, a)
    np.add.at(c, T.cols, a)
    return float(np.sqrt(r.max() * c.max()))


def active_points(T):
    """Sorted ids of the points where T has a row or column entry, from one
    boolean mask: O(n + nnz)."""
    mask = np.zeros(T.space.n, dtype=bool)
    mask[T.rows] = mask[T.cols] = True
    return np.flatnonzero(mask)


def _active_block(T):
    """The block of T on its active points as a CSR matrix, real when every
    entry of T is."""
    active = active_points(T)
    lut = np.zeros(int(active.max()) + 1, dtype=np.int64)
    lut[active] = np.arange(active.size)
    vals = T.vals.real if not T.vals.imag.any() else T.vals
    return csr_matrix((vals, (lut[T.rows], lut[T.cols])),
                      shape=(active.size, active.size))


def dense_norm(T):
    """Exact spectral norm of the active block via LAPACK.

    Real arithmetic when every entry is real, and the largest eigenvalue
    modulus when the block is Hermitian; a full SVD only otherwise."""
    if T.is_zero():
        return 0.0
    dense = _active_block(T).toarray()
    if np.array_equal(dense, dense.conj().T):
        return float(np.abs(np.linalg.eigvalsh(dense)).max())
    return float(np.linalg.norm(dense, 2))


def power_iteration_norm(T):
    """Power iteration on T*T from a seeded random start vector.

    Stops when the projected remaining error of the singular-value estimate
    (Aitken extrapolation of the delta sequence) drops below NORM_RTOL
    relative; raises with a Rayleigh-quotient bracket after 10 n steps.

    Not called by `operator_norm`: its stop rule cannot certify a clustered
    top of the spectrum (it raises on the 601-point normalized path), and
    `norm_bracket` replaces it.  Kept while the benchmark's tracer binds it.
    """
    if T.is_zero():
        return 0.0
    mat = T.to_csr()
    madj = mat.conj().T.tocsr()
    n = T.space.n
    # a random start has a nonzero component along the top singular vector
    # almost surely; all-ones, for one, is orthogonal to e_0 - e_1
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    delta_prev = None
    for _ in range(10 * n):
        w = mat @ v
        sigma_new = float(np.linalg.norm(w))
        delta = abs(sigma_new - sigma)
        target = NORM_RTOL * max(sigma_new, 1e-30)
        if delta <= target:
            # linear convergence: bound the tail by delta * r / (1 - r)
            ratio = 0.0 if not delta_prev else min(delta / delta_prev, 0.999)
            if delta * ratio / (1.0 - ratio) <= target:
                return sigma_new
        delta_prev = delta if delta > 0 else delta_prev
        sigma = sigma_new
        u = madj @ w
        v = u / np.linalg.norm(u)
    raise NormConvergenceError(
        "operator norm power iteration did not converge",
        (sigma, min(schur_norm_bound(T),
                    float(np.linalg.norm(T.vals)))))


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _gram(M):
    """(M, G) with G = M*M: a dense array from one BLAS product when M is
    nearly dense, else a sparse product, with M's columns (and so G's rows
    and columns) in reverse Cuthill-McKee order to narrow G's band."""
    m = M.shape[0]
    if 4 * M.nnz >= m * m:
        dense = M.toarray()
        # (M^T conj(M))^T = M*M, in the column order LAPACK factors in place
        return M, (dense.T @ dense.conj()).T
    G = (M.conj().T @ M).tocsr()
    order = reverse_cuthill_mckee(G, symmetric_mode=True)
    return M[:, order], G[order][:, order]


def _certificate(M, G, schur):
    """A test of s >= ||M||, or None when its factor would exceed
    CERTIFICATE_MAX_ENTRIES.

    The test factors (t - c) I - G with t = fl(s^2) and G = M*M as
    computed.  c bounds the rounding error of G (gamma over M's column
    length times |||M|||^2 <= Schur^2), of the shifted diagonal, and of the
    Cholesky factorization (Demmel's backward error, at most gamma_{b+2} t
    per entry within the band b, hence (2b + 1) gamma_{b+2} t in norm;
    Rump, "Verification methods", Acta Numerica 2010), each doubled for
    complex arithmetic.  So a factorization that succeeds in floating point
    proves t I - M*M >= 0, and the test returns (hi, solve): hi >= sqrt(t)
    >= ||M|| and solve(v) = ((t - c) I - G)^{-1} v.  It returns None when the
    factorization fails.  A dense G is factored in place: its strict lower
    triangle is overwritten."""
    m = M.shape[0]
    if issparse(G):
        rows, cols = G.nonzero()
        b = int(np.abs(rows - cols).max())
        inner = int(np.diff(M.tocsc().indptr).max())
    else:
        b = inner = m - 1
    cplx = 2 if np.iscomplexobj(G) else 1
    width = min(2 * b + 1, m)
    banded = issparse(G) and 3 * b < m
    if ((b + 1) * m if banded else m * m) > CERTIFICATE_MAX_ENTRIES:
        return None
    if banded:
        low = G.tocoo()
        keep = low.row >= low.col
        at = ((low.row - low.col)[keep], low.col[keep])
        values = -low.data[keep]
    else:
        # the one dense copy: potrf reads and writes only the lower
        # triangle, so the strict upper one keeps G for the next attempt
        a = G.toarray(order="F") if issparse(G) else np.asfortranarray(G)
        diag = a.diagonal().real.copy()

    def attempt(s):
        t = s * s
        shift = t - 2 * (width * _gamma(cplx * (b + 2)) * t
                         + _gamma(cplx * (inner + 2)) * schur ** 2
                         + _gamma(3) * t)
        try:
            if banded:
                ab = np.zeros((b + 1, m), dtype=G.dtype, order="F")
                ab[at] = values
                ab[0] += shift
                factor = (cholesky_banded(ab, lower=True, overwrite_ab=True,
                                          check_finite=False), True)
                solve = lambda v: cho_solve_banded(factor, v,
                                                   check_finite=False)
            else:
                for j in range(m - 1):
                    a[j + 1:, j] = -a[j, j + 1:].conj()
                a.flat[::m + 1] = shift - diag
                factor = cho_factor(a, lower=True, overwrite_a=True,
                                    check_finite=False)
                solve = lambda v: cho_solve(factor, v, check_finite=False)
        except LinAlgError:
            return None
        return float(np.nextafter(np.sqrt(t), np.inf)), solve

    return attempt


def _inverse_iteration(solve, v, M, lo):
    """Raise the lower end lo = ||Mv|| / ||v|| by inverse iteration with a
    certificate's factor, until the Rayleigh quotient stops growing."""
    for _ in range(INVERSE_ITERATION_STEPS):
        w = solve(v)
        w /= np.linalg.norm(w)
        q = float(np.linalg.norm(M @ w))
        if q <= lo:
            break
        grew, lo, v = q - lo, q, w
        # a gain below 2^-45 relative (128 ulps) is rounding, not progress
        if grew <= 2 ** -45 * lo:
            break
    return v, lo


def norm_bracket(T):
    """Certified spectral norm of T: (lo, hi, method, steps) with
    lo <= ||T|| <= hi and hi - lo <= NORM_RTOL * hi.  hi is proved; lo is a
    Rayleigh quotient, a lower end up to the rounding of one product.

    lo = ||Mv|| / ||v|| on the active block M, for v from a seeded Lanczos
    run on G = M*M (`eigsh`, at most LANCZOS_MAXITER restarts).  Then one
    Cholesky certificate at s = lo (1 + NORM_RTOL / 2) closes the bracket
    (method "lanczos").  When it fails, or Lanczos runs out of restarts
    (method "bisection"), s is bisected between the largest failed s and
    the best upper end, from min(Schur, Frobenius) down; each success moves
    hi to s and raises lo by inverse iteration with its factor.  steps
    counts the factorizations.  Raises NormConvergenceError with the best
    bracket when a factor would exceed CERTIFICATE_MAX_ENTRIES, or after
    MAX_FACTORIZATIONS factorizations."""
    if T.is_zero():
        return 0.0, 0.0, "exact", 0
    M = _active_block(T)
    m = M.shape[0]
    schur = schur_norm_bound(T)
    # the bounds as computed, raised past their rounding error
    hi = float(min(schur, np.linalg.norm(T.vals))
               * (1 + _gamma(2 * (m + T.nnz) + 4)))
    v = np.random.default_rng(0).standard_normal(m)
    lo = float(np.linalg.norm(M @ v) / np.linalg.norm(v))
    steps = 0
    if hi - lo <= NORM_RTOL * hi:
        return lo, hi, "bound", steps
    M, G = _gram(M)
    method = "bisection"
    # ARPACK needs k = 1 < m - 1 on complex matrices
    if m > 2:
        try:
            # Ritz values converge like the square of the residual, and
            # inverse iteration polishes lo once a certificate holds
            v = eigsh(G, k=1, which="LA", v0=v, maxiter=LANCZOS_MAXITER,
                      tol=10 * NORM_RTOL)[1][:, 0]
            lo = max(lo, float(np.linalg.norm(M @ v) / np.linalg.norm(v)))
            method = "lanczos"
        except ArpackNoConvergence:
            pass
    attempt = _certificate(M, G, schur)
    floor = lo  # the largest s whose factorization failed
    s = lo * (1 + NORM_RTOL / 2)
    while hi - lo > NORM_RTOL * hi:
        if attempt is None or steps == MAX_FACTORIZATIONS:
            raise NormConvergenceError("operator norm bracket did not close",
                                       (lo, hi))
        if not floor < s < hi:
            # when failures reach up to hi, only lo can move: a factor
            # above hi still drives inverse iteration
            s = ((floor + hi) / 2 if hi - floor > NORM_RTOL * hi / 2
                 else hi * (1 + NORM_RTOL / 2))
        steps += 1
        found = attempt(s)
        if found is None:
            floor, method = s, "bisection"
            continue
        hi, solve = min(hi, found[0]), found[1]
        v, lo = _inverse_iteration(solve, v, M, lo)
        s = lo * (1 + NORM_RTOL / 2)
    return lo, hi, method, steps


def operator_norm_bracket(T):
    """The bracket behind `operator_norm`, cached on T: (lo, hi, method,
    steps) from one LAPACK solve (lo = hi, method "dense", 0 steps) up to
    DENSE_NORM_CUTOFF active points, else from `norm_bracket`."""
    if T._norm is None:
        if active_points(T).size <= DENSE_NORM_CUTOFF:
            norm = dense_norm(T)
            bracket = (norm, norm, "dense", 0)
        else:
            bracket = norm_bracket(T)
        object.__setattr__(T, "_norm", bracket)
    return T._norm


def operator_norm(T):
    """Spectral norm: exact dense solve for small active blocks, the lower
    end of a certified NORM_RTOL bracket above the cutoff.  Cached on T."""
    return operator_norm_bracket(T)[0]
