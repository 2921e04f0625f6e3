"""Band operators at finite scale: sparse *-algebra with tracked propagation,
threshold supports and truncations, ghost profiles, and spectral norms
(structure-aware dense solves, power iteration above a cutoff), cached per
operator."""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix

PRUNE_THRESHOLD = 1e-14
DENSE_NORM_CUTOFF = 600


class OperatorError(ValueError):
    pass


class NormConvergenceError(RuntimeError):
    """Power iteration did not settle; carries a Rayleigh-quotient bracket."""

    def __init__(self, message, bracket):
        super().__init__(f"{message} (bracket {bracket[0]:.6g}..{bracket[1]:.6g})")
        self.bracket = bracket


class BandOperator:
    """Sparse operator on ell^2 of a finite coarse space.

    Entries are stored deduplicated in coordinate form with moduli below
    1e-14 pruned, so supp(T) stays meaningful under float arithmetic.
    Immutable, with read-only entry arrays; all operations return new
    operators.  `operator_norm` caches its results in `_norms`.
    """

    __slots__ = ("space", "rows", "cols", "vals", "propagation", "_norms")

    def __init__(self, space, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.complex128)
        keep = np.abs(vals) >= PRUNE_THRESHOLD
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size:
            key = rows * space.n + cols
            order = np.argsort(key, kind="stable")
            rows, cols, vals, key = rows[order], cols[order], vals[order], key[order]
            if np.any(key[1:] == key[:-1]):
                # merge duplicate coordinates
                uniq, inv = np.unique(key, return_inverse=True)
                merged = np.zeros(uniq.size, dtype=np.complex128)
                np.add.at(merged, inv, vals)
                rows, cols = uniq // space.n, uniq % space.n
                vals = merged
                keep = np.abs(vals) >= PRUNE_THRESHOLD
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)
        prop = 0
        if rows.size and np.any(rows != cols):
            off = rows != cols
            dists = space.pair_distances(rows[off], cols[off])
            prop = float(np.max(dists))
            if prop.is_integer():
                prop = int(prop)
        object.__setattr__(self, "propagation", prop)
        object.__setattr__(self, "_norms", {})

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
        rows, cols = [], []
        for x in space.points:
            for y in space.ball(x, R):
                if y != x:
                    rows.append(x)
                    cols.append(y)
        op = cls(space, rows, cols, np.ones(len(rows)))
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
        hit = (self.rows == x) & (self.cols == y)
        idx = np.flatnonzero(hit)
        return complex(self.vals[idx[0]]) if idx.size else 0j

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


def is_ghost_at(profile, eps, k):
    """Ghost at scale (eps, k): profile value at stage k is below eps."""
    return profile[k] < eps


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


def dense_norm(T):
    """Exact spectral norm of the active block via LAPACK.

    Real arithmetic when every entry is real, and the largest eigenvalue
    modulus when the block is Hermitian; a full SVD only otherwise."""
    if T.is_zero():
        return 0.0
    active = np.union1d(T.rows, T.cols)
    lut = np.zeros(int(active.max()) + 1, dtype=np.int64)
    lut[active] = np.arange(active.size)
    vals = T.vals.real if not T.vals.imag.any() else T.vals
    dense = np.zeros((active.size, active.size), dtype=vals.dtype)
    dense[lut[T.rows], lut[T.cols]] = vals
    if np.array_equal(dense, dense.conj().T):
        return float(np.abs(np.linalg.eigvalsh(dense)).max())
    return float(np.linalg.norm(dense, 2))


def power_iteration_norm(T, tol=1e-9, max_iter=None):
    """Power iteration on T*T from a seeded random start vector.

    Stops when the projected remaining error of the singular-value estimate
    (Aitken extrapolation of the delta sequence) drops below relative
    `tol`; raises with a Rayleigh-quotient bracket otherwise.
    """
    if T.is_zero():
        return 0.0
    mat = T.to_csr()
    madj = mat.conj().T.tocsr()
    n = T.space.n
    if max_iter is None:
        max_iter = 10 * n
    # a random start has a nonzero component along the top singular vector
    # almost surely; all-ones, for one, is orthogonal to e_0 - e_1
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    delta_prev = None
    for _ in range(max_iter):
        w = mat @ v
        sigma_new = float(np.linalg.norm(w))
        delta = abs(sigma_new - sigma)
        if delta <= tol * max(sigma_new, 1e-30):
            # linear convergence: bound the tail by delta * r / (1 - r)
            ratio = 0.0 if not delta_prev else min(delta / delta_prev, 0.999)
            if delta * ratio / (1.0 - ratio) <= tol * max(sigma_new, 1e-30):
                return sigma_new
        delta_prev = delta if delta > 0 else delta_prev
        sigma = sigma_new
        u = madj @ w
        v = u / np.linalg.norm(u)
    raise NormConvergenceError(
        "operator norm power iteration did not converge",
        (sigma, min(schur_norm_bound(T),
                    float(np.linalg.norm(T.vals)))))


def operator_norm(T, tol=1e-9, max_iter=None):
    """Spectral norm: exact dense solve for small active blocks, power
    iteration above the cutoff.  Cached on T per (tol, max_iter)."""
    if T.is_zero():
        return 0.0
    key = (tol, max_iter)
    if key not in T._norms:
        if np.union1d(T.rows, T.cols).size <= DENSE_NORM_CUTOFF:
            T._norms[key] = dense_norm(T)
        else:
            T._norms[key] = power_iteration_norm(T, tol=tol,
                                                 max_iter=max_iter)
    return T._norms[key]
