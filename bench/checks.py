"""Oracles and checks for the benchmark's outputs.

Every check recomputes its answer with numpy or scipy from the inputs the
benchmark generated (coordinate arrays, edges, planted values), never from
roelab, and returns a list of problems; an empty list means the output
passed.  The module imports nothing from roelab, so its tests can feed it
planted wrong answers.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

NORM_REL_TOL = 1e-8        # roelab norms against numpy's SVD
CLOSED_FORM_TOL = 1e-6     # window norms against cos(pi / (S + 2))
SAME_LAPACK_TOL = 1e-9     # an SVD of the same block computed twice


def dense(n, rows, cols, vals):
    """n x n complex matrix with the given coordinate entries."""
    out = np.zeros((n, n), dtype=np.complex128)
    out[np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)] = vals
    return out


def spectral_norm(matrix):
    return float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0


def rel_close(value, reference, rel):
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def grid_distances(dims, side, metric):
    """All-pairs distances of the box {0..side-1}^dims, ids row-major."""
    coords = np.stack(np.unravel_index(np.arange(side ** dims),
                                       (side,) * dims), axis=1)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if metric == "sup":
        return diff.max(axis=2).astype(float)
    if metric == "graph":
        return diff.sum(axis=2).astype(float)
    raise ValueError(f"no oracle for metric {metric!r}")


def graph_distances(n, edges):
    """Shortest-path distances of a connected graph, by breadth-first
    search."""
    e = np.asarray(edges, dtype=np.int64)
    adj = coo_matrix((np.ones(2 * len(e)),
                      (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
                     shape=(n, n)).tocsr()
    return shortest_path(adj, directed=False, unweighted=True)


# -- sweep -------------------------------------------------------------------

def check_window(matrix, window, window_norm, witness_vector):
    """The reported window norm is the largest singular value of the
    reported window's block, and the witness vector lives in that window and
    attains it."""
    problems = []
    w = np.asarray(window, dtype=np.int64)
    block = matrix[np.ix_(w, w)]
    sigma = np.linalg.svd(block, compute_uv=False)[0]
    if not rel_close(window_norm, sigma, SAME_LAPACK_TOL):
        problems.append(f"window norm {window_norm!r} but the block of the "
                        f"reported window has norm {sigma!r}")
    if not set(witness_vector) <= set(window):
        problems.append("witness vector leaves the reported window")
        return problems
    pos = {p: i for i, p in enumerate(window)}
    v = np.zeros(len(window), dtype=np.complex128)
    for p, value in witness_vector.items():
        v[pos[p]] = value
    vnorm = np.linalg.norm(v)
    if vnorm == 0 or not rel_close(np.linalg.norm(block @ v) / vnorm,
                                   sigma, NORM_REL_TOL):
        problems.append("witness vector does not attain the window norm")
    return problems


def check_closed_form(label, value, expected, tol=CLOSED_FORM_TOL):
    if abs(value - expected) > tol:
        return [f"{label} {value!r} differs from {expected!r} by more than "
                f"{tol}"]
    return []


def check_non_decreasing(label, values):
    bad = [(a, b) for a, b in zip(values, values[1:]) if b < a - 1e-12]
    return [f"{label} decreases: {bad[0]}"] if bad else []


# -- certify -----------------------------------------------------------------

def second_eigenvalue_of(n, degree, edges):
    """Largest non-trivial adjacency eigenvalue modulus, from the edges."""
    a = np.zeros((n, n))
    e = np.asarray(edges, dtype=np.int64)
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    if not np.all(a.sum(axis=1) == degree):
        raise ValueError("graph is not regular of the stated degree")
    evals = np.linalg.eigvalsh(a)
    return float(np.abs(evals[:-1]).max())


def check_certificate_values(kappa, lower_bound, kappa_max=0.3,
                             lower_min=0.9):
    problems = []
    if not kappa <= kappa_max:
        problems.append(f"certified kappa {kappa!r} exceeds {kappa_max}")
    if not lower_bound >= lower_min:
        problems.append(f"block lower bound {lower_bound!r} below "
                        f"{lower_min}")
    return problems


def check_blocks(blocks, lams, lam_max=2.9, approx=0.05):
    """blocks: list of (dense block on its own points, block size); lams:
    the oracle's second eigenvalues of the graphs behind them."""
    problems = []
    for i, (block, n) in enumerate(blocks):
        norm = spectral_norm(block)
        if abs(norm - 1.0) > approx:
            problems.append(f"block {i} has norm {norm!r}")
        gap = spectral_norm(block - np.full((n, n), 1.0 / n))
        if gap > approx:
            problems.append(f"block {i} is {gap!r} from J/n")
    for i, lam in enumerate(lams):
        if not lam <= lam_max:
            problems.append(f"graph {i} has second eigenvalue {lam!r}")
    return problems


# -- ghost -------------------------------------------------------------------

def planted_ghostly(tail_values, eps_min):
    """The planted truth: ghostly exactly when every planted tail value lies
    below the smallest threshold."""
    return all(abs(v) < eps_min for v in tail_values)


def check_verdict(report, truth):
    problems = []
    if report["ghostly"] != truth:
        problems.append(f"ghostly verdict {report['ghostly']} but the "
                        f"planted truth is {truth}")
    if report["vanishes_in_all_directions"] != truth:
        problems.append(f"direction verdict "
                        f"{report['vanishes_in_all_directions']} but the "
                        f"planted truth is {truth}")
    if report["agree"] is not True:
        problems.append("the two routes disagree")
    return problems


# -- band --------------------------------------------------------------------

def schur_bound(matrix):
    """sqrt(max row sum * max column sum) of the moduli, >= the norm."""
    mod = np.abs(matrix)
    return float(np.sqrt(mod.sum(axis=1).max() * mod.sum(axis=0).max()))


def check_truncation(matrix, truncated, eps, propagation, distances, radius):
    """matrix, truncated: T and the program's T_eps as dense matrices;
    propagation: T_eps's reported propagation; distances: the oracle
    distance matrix."""
    problems = []
    expected = np.abs(matrix) >= eps
    support = truncated != 0
    if not np.array_equal(support, expected):
        missing = int((expected & ~support).sum())
        extra = int((support & ~expected).sum())
        problems.append(f"truncated support is off: {missing} pairs "
                        f"missing, {extra} extra")
    if not np.array_equal(truncated[support], matrix[support]):
        problems.append("truncation changed the entries it kept")
    reach = float(distances[support].max()) if support.any() else 0.0
    if not (propagation <= radius and reach <= radius):
        problems.append(f"propagation {propagation} (oracle {reach}) "
                        f"exceeds {radius}")
    ball = int((distances <= radius).sum(axis=1).max())
    limit = eps * ball + 1e-12
    rest = matrix - truncated
    # the Schur bound proves the inequality without an SVD when it holds
    if schur_bound(rest) > limit and spectral_norm(rest) > limit:
        problems.append(f"||T - T_eps|| = {spectral_norm(rest)!r} exceeds "
                        f"eps * max|B(x,{radius})| = {eps * ball!r}")
    return problems


def ghost_profile_of(matrix, exhaustion):
    out = []
    mod = np.abs(matrix)
    for stage in exhaustion:
        inside = np.zeros(matrix.shape[0], dtype=bool)
        inside[list(stage)] = True
        outside = ~(inside[:, None] & inside[None, :])
        out.append(float(mod[outside].max()) if outside.any() else 0.0)
    return out


def tail_offenders(matrix, terms, radius, tol):
    """Offsets (i, j) whose tail values T(h + i, h + j) oscillate beyond
    tol, and the last term's window."""
    h = np.asarray(terms, dtype=np.int64)
    offsets = range(-radius, radius + 1)
    offenders, last = set(), {}
    for i in offsets:
        for j in offsets:
            vals = matrix[h + i, h + j]
            if np.abs(vals[:, None] - vals[None, :]).max() > tol:
                offenders.add((i, j))
            last[(i, j)] = vals[-1]
    return offenders, last


def compare_limit(outcome, offenders, last):
    """outcome: ("limit", {(i, j): value}) or ("offenders", set of (i, j));
    offenders and last as returned by `tail_offenders`."""
    kind, payload = outcome
    if kind == "offenders":
        if set(payload) != offenders:
            return [f"{len(payload)} offending offsets reported, the tail "
                    f"gives {len(offenders)}"]
        return []
    if offenders:
        return [f"limit reported though {len(offenders)} offsets oscillate"]
    expected = {k: v for k, v in last.items() if abs(v) >= 1e-14}
    got = {k: v for k, v in payload.items() if abs(v) >= 1e-14}
    if got != expected:
        return ["limit window differs from the tail of the dense matrix"]
    return []
