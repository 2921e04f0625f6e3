"""Expander families, constant-block projections, polynomial band
approximation of spectral projections, and the multi-column counterexample
space built from them."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.sparse import csr_matrix

from .ideals import IdealFamily
from .operator import BandOperator
from .space import GraphSpace
from .witness import resistance_check

EXPANDER_TRIES = 20


class ExpanderError(ValueError):
    pass


@dataclass(frozen=True)
class RegularGraph:
    n: int
    degree: int
    edges: tuple
    seed: int
    second_eigenvalue: float  # modulus of the largest non-trivial eigenvalue

    def adjacency(self):
        """Sparse (CSR) 0/1 adjacency matrix."""
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])),
                          shape=(self.n, self.n))


@dataclass(frozen=True)
class ExpanderFamily:
    graphs: tuple  # RegularGraph, sizes strictly increasing
    gap_threshold: float

    def __post_init__(self):
        sizes = [g.n for g in self.graphs]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ExpanderError("graph sizes must strictly increase")
        for g in self.graphs:
            if g.second_eigenvalue > self.gap_threshold:
                raise ExpanderError(
                    f"graph of size {g.n} misses the gap threshold")


def second_eigenvalue(A, degree):
    """Modulus of the largest adjacency eigenvalue besides the trivial one
    at `degree` (dense solve; the certificate for acceptance)."""
    evals = np.linalg.eigvalsh(A)
    # drop one copy of the trivial eigenvalue
    idx = int(np.argmin(np.abs(evals - degree)))
    rest = np.delete(evals, idx)
    return float(np.abs(rest).max()) if rest.size else 0.0


def random_regular_expander(n, d, lam_max, seed=0):
    """Random simple d-regular graph, drawn at most EXPANDER_TRIES times until
    the dense eigensolver certifies second eigenvalue modulus <= lam_max."""
    if (n * d) % 2 != 0:
        raise ExpanderError(f"n*d = {n}*{d} must be even")
    if d < 3:
        raise ExpanderError("degree must be at least 3")
    best = None
    for attempt in range(EXPANDER_TRIES):
        g = nx.random_regular_graph(d, n, seed=seed + attempt)
        if not nx.is_connected(g):
            continue
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
        lam = second_eigenvalue(nx.to_numpy_array(g, nodelist=range(n)), d)
        graph = RegularGraph(n=n, degree=d, edges=edges, seed=seed + attempt,
                             second_eigenvalue=lam)
        if lam <= lam_max:
            return graph
        if best is None or lam < best.second_eigenvalue:
            best = graph
    raise ExpanderError(
        f"no graph with gap <= {lam_max} in {EXPANDER_TRIES} tries; best "
        f"was {best.second_eigenvalue if best else float('nan'):.4f}")


def constant_projection(space, blocks):
    """Direct sum over blocks of the projections onto constants: entries
    1/|B| on B x B."""
    blocks = [sorted(b) for b in blocks]
    seen = set()
    for b in blocks:
        bs = set(b)
        if seen & bs:
            raise ExpanderError("projection blocks overlap")
        seen |= bs
    # block b contributes B x B in lexicographic order, each entry 1 / |B|
    rows = [np.repeat(b, len(b)) for b in blocks] or [[]]
    cols = [np.tile(b, len(b)) for b in blocks] or [[]]
    vals = [np.full(len(b) ** 2, 1.0 / len(b)) for b in blocks] or [[]]
    return BandOperator(space, np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals))


def chebyshev_degree_for(gap_ratio, target):
    """Least degree m with the Chebyshev envelope 1 / T_m(1 / b) <= target
    on [-b, b], b = gap_ratio."""
    inv = 1.0 / gap_ratio
    m = 0
    while True:
        m += 1
        if 1.0 / _cheb_at(m, inv) <= target:
            return m
        if m > 1000:
            raise ExpanderError("no feasible approximation degree")


def _cheb_at(m, x):
    # T_m(x) for x >= 1
    return float(np.cosh(m * np.arccosh(x)))


def chebyshev_band_approx(graph, lam_certificate, degree, space=None,
                          offset=0):
    """Degree-`degree` polynomial band approximation of the projection onto
    constants of a connected regular graph.

    Uses the scaled Chebyshev polynomial T_m((A/d) / b) / T_m(1 / b) with
    b = lam_certificate / d, which is 1 at the top of the spectrum and at
    most 1 / T_m(1 / b) on the certified bulk; that envelope is returned as
    the error bound.  Entries can be placed into a larger ambient space via
    `offset`.
    """
    d = graph.degree
    if lam_certificate >= d:
        raise ExpanderError("no spectral gap certified; approximation refused")
    b = lam_certificate / d
    A = graph.adjacency() / d
    bulk = np.linalg.eigvalsh(A.toarray())[:-1]  # drop the trivial 1
    distinct = np.unique(np.round(bulk, 9))
    if distinct.size <= degree:
        # spectrum small enough to interpolate exactly: p vanishes on every
        # bulk eigenvalue and p(1) = 1, so p(A) is the projection itself
        denom = float(np.prod(1.0 - distinct))
        mat = np.eye(graph.n) / denom
        for r in distinct:
            mat = A @ mat - r * mat
        p_bulk = np.prod(bulk[:, None] - distinct[None, :], axis=1) / denom
    else:
        scale = _cheb_at(degree, 1.0 / b)
        # T_m(A / b) by the three-term recurrence from T_-1 = T_1, T_0 = I;
        # the sparse A / b makes each step O(d n^2)
        M = A / b
        t_prev, t_cur = M.toarray(), np.eye(graph.n)
        for _ in range(degree):
            t_prev, t_cur = t_cur, 2.0 * (M @ t_cur) - t_prev
        mat = t_cur / scale
        p_bulk = C.chebval(bulk / b, [0] * degree + [1]) / scale
    # exact bound via the dense eigensolve: || a - P || is the largest
    # |p| over the bulk spectrum (padded slightly for float slack)
    bound = float(np.abs(p_bulk).max()) + 1e-12 if bulk.size else 0.0
    if space is None:
        space = GraphSpace(graph.edges, n=graph.n)
    rows, cols = np.nonzero(np.abs(mat) >= 1e-14)
    op = BandOperator(space, rows + offset, cols + offset, mat[rows, cols])
    return op, bound


@dataclass(frozen=True)
class ColumnSpace:
    """Disjoint union of graph blocks arranged in columns, with block
    separations given by an outpost schedule indexed by i + j."""

    space: GraphSpace
    blocks: tuple       # tuple of (i, j, point tuple)
    columns: tuple      # tuple of point frozensets, one per i

    def block_points(self, i, j):
        for bi, bj, pts in self.blocks:
            if (bi, bj) == (i, j):
                return pts
        raise KeyError((i, j))


def _side_by_side(graphs, separation_schedule):
    """(space, offsets): the graphs side by side in one GraphSpace, graph k
    on the ids from offsets[k] on, at outpost separation_schedule[k]."""
    offsets = np.cumsum([0] + [g.n for g in graphs]).tolist()
    edges = [(u + off, v + off) for g, off in zip(graphs, offsets)
             for u, v in g.edges]
    space = GraphSpace(edges, n=offsets[-1],
                       separation_schedule=separation_schedule)
    return space, offsets[:-1]


def build_column_space(block_graphs, j_max, separation_schedule):
    """Blocks Y_{i,j} (copies of graph i for j = 1..j_max) with the graph
    metric inside each block and outpost distances s_{i+j-2} across blocks,
    so cross distances grow with i + j as the schedule increases."""
    sched = list(separation_schedule)
    n_cols = len(block_graphs)
    need = n_cols + j_max - 1
    if len(sched) < need:
        raise ExpanderError(
            f"separation schedule has {len(sched)} entries, need {need}")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise ExpanderError("separation schedule must strictly increase")
    layout = [(i, j, graph) for i, graph in enumerate(block_graphs, start=1)
              for j in range(1, j_max + 1)]
    space, offsets = _side_by_side([g for _, _, g in layout],
                                   [sched[i + j - 2] for i, j, _ in layout])
    blocks = [(i, j, tuple(range(off, off + g.n)))
              for (i, j, g), off in zip(layout, offsets)]
    columns = tuple(frozenset(p for bi, _, pts in blocks if bi == i
                              for p in pts) for i in range(1, n_cols + 1))
    return ColumnSpace(space=space, blocks=tuple(blocks), columns=columns)


def expander_column_space(family, j_max, separation_schedule):
    """The counterexample pipeline space: expander columns, the block
    projection onto constants, and the ideal family generated by the
    columns.  Returns (ColumnSpace, P, family)."""
    col = build_column_space(family.graphs, j_max, separation_schedule)
    P = constant_projection(col.space, [pts for _, _, pts in col.blocks])
    ideal = IdealFamily(col.space, tuple(col.columns),
                        k_grid=(0, 1, 2, 3, 5, 8))
    return col, P, ideal


def block_profile(space, pts, r):
    """max |B(x, r) & pts| over x in pts, with the ambient space's metric."""
    pts = sorted(pts)
    inside = np.zeros(space.n, dtype=bool)
    inside[pts] = True
    sizes, ids = space.balls(pts, r)
    owner = np.repeat(np.arange(len(pts)), sizes)
    return int(np.bincount(owner[inside[ids]], minlength=len(pts)).max())


def resistance_blocks(family, kappa_target, S_schedule):
    """Chebyshev-approximated constant projections on growing expanders,
    arranged as disjoint blocks of a common space, sized so that each block
    resists localization at its scheduled window diameter.

    Growth condition per block: sqrt(max ball(S_n) / n_n) + approx error
    must not exceed kappa_target, with an approximation error of at most
    0.05.  The blocks' outposts lie 4 max S + 4 apart.  Returns (space,
    [(T_n, B_n)], certified kappa).
    """
    graphs = family.graphs
    if len(S_schedule) != len(graphs):
        raise ExpanderError("schedule length does not match family size")
    base = 4.0 * max(S_schedule) + 4.0
    space, offsets = _side_by_side(graphs, [base * (k + 1)
                                            for k in range(len(graphs))])
    blocks = []
    for g, off, S in zip(graphs, offsets, S_schedule):
        pts = frozenset(range(off, off + g.n))
        ball_bound = block_profile(space, pts, int(np.floor(S / 2.0)))
        slack = kappa_target - np.sqrt(ball_bound / g.n)
        if slack <= 0:
            raise ExpanderError(
                f"block of size {g.n} cannot resist windows of diameter {S} "
                f"at kappa {kappa_target}")
        delta = min(0.05, 0.9 * slack)
        m = chebyshev_degree_for(g.second_eigenvalue / g.degree, delta)
        op, bound = chebyshev_band_approx(g, g.second_eigenvalue, m,
                                          space=space, offset=off)
        blocks.append((op, pts))
    ok, details = resistance_check(blocks, kappa_target, S_schedule)
    if not ok:
        raise ExpanderError("computed blocks fail their own certificate")
    certified = max(d["constant"] for d in details)
    return space, blocks, certified
