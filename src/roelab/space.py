"""Finite bounded-geometry metric spaces.

Points are integer ids 0..n-1.  Two concrete constructions are provided:
integer boxes (grid spaces) with sup / graph / rounded-euclidean metrics,
and finite graphs with the shortest-path metric, where disconnected
components are kept at explicit "outpost" distances given by a separation
schedule.  All distances are exact integers for the grid/graph kinds, so
entourage membership never flickers at a boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

GRID_SIZE_LIMIT = 10 ** 6
METRIC_KINDS = ("euclidean-rounded", "sup", "graph")
# entries per stack of a ball query (and of the window blocks built from
# it); bounds working memory independently of the number of centres
WINDOW_BATCH_ELEMENTS = 2 ** 15


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class PartialTranslation:
    """Bijection t between two subsets of a space, moving points at most
    `displacement_bound`.  The graph of t is the pair set {(t(x), x)}."""

    mapping: tuple  # tuple of (domain point, image point)
    displacement_bound: float

    def pairs(self):
        """Pair set {(t(x), x)} contributed to the entourage."""
        return frozenset((y, x) for x, y in self.mapping)

    def is_injective(self):
        xs = [x for x, _ in self.mapping]
        ys = [y for _, y in self.mapping]
        return len(set(xs)) == len(xs) and len(set(ys)) == len(ys)


class CoarseSpace:
    """Base class: finite metric space with exact distances and cached
    ball-size profile.  Immutable after construction."""

    n: int

    @property
    def points(self):
        return range(self.n)

    def distance(self, x, y):
        raise NotImplementedError

    def ball(self, x, r):
        """Sorted list of points within distance r of x."""
        raise NotImplementedError

    def balls(self, centers, r):
        """(sizes, ids): |B(c, r)| for each centre c, in the given order, and
        the sorted ids of those balls concatenated.

        Each kind of space answers one stack of centres with `_ball_stack`,
        and `_ball_width(r)` is the number of entries one centre takes in
        it; a stack holds at most WINDOW_BATCH_ELEMENTS entries."""
        centers = np.asarray(centers, dtype=np.int64)
        step = max(1, WINDOW_BATCH_ELEMENTS // self._ball_width(r))
        # no centres still make one (empty) stack, which types the result
        stacks = [self._ball_stack(centers[lo:lo + step], r)
                  for lo in range(0, max(len(centers), 1), step)]
        return tuple(np.concatenate(part) for part in zip(*stacks))

    def pairs_within(self, r):
        """(rows, cols): every pair (x, y) with d(x, y) <= r, in
        lexicographic order, the order of the concatenated balls."""
        sizes, ids = self.balls(np.arange(self.n), r)
        return np.repeat(np.arange(self.n), sizes), ids

    def diameter(self):
        raise NotImplementedError

    def geometry_profile(self, r):
        """max_x |B(x, r)|, computed exactly."""
        raise NotImplementedError

    def pair_distances(self, rows, cols):
        """Vectorized distances for parallel arrays of point ids."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError


class GridSpace(CoarseSpace):
    """Integer box {0..side-1}^dims with one of the supported metrics.  Every
    distance, ball and pair set comes from one n x dims coordinate array
    (most significant first) and one vectorized metric."""

    def __init__(self, dims, side, metric_kind):
        if dims < 1 or side < 1:
            raise SpaceError("dims and side must be positive")
        if metric_kind not in METRIC_KINDS:
            raise SpaceError(f"unknown metric kind {metric_kind!r}")
        size = side ** dims
        if size > GRID_SIZE_LIMIT:
            raise SpaceError(
                f"grid of {side}^{dims} = {size} points exceeds the "
                f"{GRID_SIZE_LIMIT} point limit")
        self.dims = dims
        self.side = side
        self.metric_kind = metric_kind
        self.n = size
        self._coords = np.stack(
            np.unravel_index(np.arange(size), (side,) * dims), axis=1)
        self._place = side ** np.arange(dims - 1, -1, -1)
        self._offset_cache = {}
        self._profile_cache = {}

    def _metric(self, diffs):
        """Distances for an array of coordinate differences (last axis)."""
        diffs = np.abs(diffs)
        if self.metric_kind == "sup":
            return diffs.max(axis=-1)
        if self.metric_kind == "graph":
            return diffs.sum(axis=-1)
        # rounded-euclidean: ceil keeps the triangle inequality exact
        return np.ceil(np.sqrt((diffs * diffs).sum(axis=-1)))

    def coords(self, x):
        return tuple(self._coords[x].tolist())

    def point_id(self, coords):
        return int(np.dot(coords, self._place))

    def distance(self, x, y):
        return int(self._metric(self._coords[x] - self._coords[y]))

    def pair_distances(self, rows, cols):
        diffs = self._coords[np.asarray(rows)] - self._coords[np.asarray(cols)]
        return self._metric(diffs).astype(float)

    def _offsets(self, r):
        """Offsets of B(0, r) in lexicographic order, as an array with one
        row per offset; no coordinate step beyond side - 1 can land."""
        r = int(r)
        if r not in self._offset_cache:
            k = min(r, self.side - 1)
            reach = np.arange(-k, k + 1)
            offs = np.stack(np.meshgrid(*[reach] * self.dims, indexing="ij"),
                            axis=-1).reshape(-1, self.dims)
            self._offset_cache[r] = offs[self._metric(offs) <= r]
        return self._offset_cache[r]

    def ball(self, x, r):
        return self._ball_stack([x], r)[1].tolist()

    def _ball_width(self, r):
        return max(len(self._offsets(math.floor(r))), 1)

    def _ball_stack(self, centers, r):
        """The offset stencil at each centre: one row of ids per centre,
        padded with n (which sorts after every point) and sorted."""
        pts = (self._coords[centers][:, None, :]
               + self._offsets(math.floor(r))[None, :, :])
        inside = ((pts >= 0) & (pts < self.side)).all(axis=2)
        ids = np.where(inside, pts @ self._place, self.n)
        ids.sort(axis=1)
        return inside.sum(axis=1), ids[ids < self.n]

    def near_edge(self, S):
        """Sorted ids of the points near an edge of the box: those with a
        coordinate v < S or v >= side - S."""
        c = self._coords
        return np.flatnonzero(((c < S) | (c >= self.side - S)).any(axis=1))

    def geometry_profile(self, r):
        r = int(math.floor(r))
        if r < 0:
            return 0
        if r not in self._profile_cache:
            # ball sizes in a box are maximised at the most central point
            center = self.point_id([self.side // 2] * self.dims)
            self._profile_cache[r] = int(self._ball_stack([center], r)[0][0])
        return self._profile_cache[r]

    def diameter(self):
        return self.distance(0, self.n - 1)

    def descriptor(self):
        return {"type": "grid", "dims": self.dims, "side": self.side,
                "metric": self.metric_kind}


class GraphSpace(CoarseSpace):
    """Shortest-path metric on a finite graph.  Components are placed at
    mutual distance outpost[c1] + outpost[c2], with the outposts taken from
    a strictly positive separation schedule."""

    def __init__(self, edges, n=None, separation_schedule=None):
        edges = [(int(u), int(v)) for u, v in edges]
        if not edges and n is None:
            raise SpaceError("empty edge list and no point count given")
        top = max((max(u, v) for u, v in edges), default=-1)
        self.n = int(n) if n is not None else top + 1
        if top >= self.n:
            raise SpaceError("edge endpoint exceeds point count")
        rows = [u for u, v in edges] + [v for u, v in edges]
        cols = [v for u, v in edges] + [u for u, v in edges]
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(self.n, self.n))
        ncomp, labels = connected_components(adj, directed=False)
        dist = shortest_path(adj.tocsr(), method="D", directed=False,
                             unweighted=True)
        if ncomp > 1:
            if separation_schedule is None:
                raise SpaceError(
                    f"{ncomp} components but no separation schedule")
            if len(separation_schedule) < ncomp:
                raise SpaceError(
                    f"separation schedule has {len(separation_schedule)} "
                    f"entries for {ncomp} components")
            sched = [float(s) for s in separation_schedule[:ncomp]]
            if any(s <= 0 for s in sched):
                raise SpaceError("separation schedule must be positive")
            out = np.asarray(sched)[labels]
            cross = out[:, None] + out[None, :]
            mask = labels[:, None] != labels[None, :]
            dist = np.where(mask, cross, dist)
        self._dist = dist
        self.edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        self.separation_schedule = (tuple(separation_schedule)
                                    if separation_schedule else None)
        self._profile_cache = {}

    def distance(self, x, y):
        d = self._dist[x, y]
        return int(d) if float(d).is_integer() else float(d)

    def ball(self, x, r):
        return np.flatnonzero(self._dist[x] <= r).tolist()

    def _ball_width(self, r):
        return max(self.n, 1)

    def _ball_stack(self, centers, r):
        rows, ids = np.nonzero(self._dist[centers] <= r)
        return np.bincount(rows, minlength=len(centers)), ids

    def pair_distances(self, rows, cols):
        return self._dist[np.asarray(rows, dtype=np.int64),
                          np.asarray(cols, dtype=np.int64)]

    def geometry_profile(self, r):
        key = float(r)
        if key not in self._profile_cache:
            self._profile_cache[key] = int((self._dist <= r).sum(axis=1).max())
        return self._profile_cache[key]

    def diameter(self):
        return float(self._dist.max())

    def descriptor(self):
        return {"type": "graph", "n": self.n,
                "edges": [list(e) for e in self.edges],
                "separation_schedule":
                    list(self.separation_schedule)
                    if self.separation_schedule else None}


def build_grid_space(dims, side, metric_kind):
    return GridSpace(dims, side, metric_kind)


def build_graph_space(edges, n=None, separation_schedule=None):
    return GraphSpace(edges, n=n, separation_schedule=separation_schedule)


def space_from_descriptor(desc):
    if desc["type"] == "grid":
        return GridSpace(desc["dims"], desc["side"], desc["metric"])
    if desc["type"] == "graph":
        return GraphSpace(desc["edges"], n=desc.get("n"),
                          separation_schedule=desc.get("separation_schedule"))
    raise SpaceError(f"unknown space descriptor type {desc['type']!r}")


def neighbourhood(space, A, R):
    """{x : d(x, A) <= R}; empty A gives the empty set."""
    A = set(A)
    if not A:
        return set()
    if R < 0:
        raise SpaceError("negative radius")
    return set(space.balls(list(A), R)[1].tolist())


def entourage(space, R):
    """All ordered pairs at distance <= R (symmetric, contains diagonal)."""
    if R < 0:
        raise SpaceError("negative radius")
    rows, cols = space.pairs_within(R)
    return set(zip(rows.tolist(), cols.tolist()))


def decompose_entourage(space, R):
    """Split the R-entourage into graphs of partial translations.

    Greedy proper edge coloring in lexicographic (source, target) order;
    each part uses every row and column at most once, so the parts are
    bijections.  Part count is at most 2 * geometry_profile(R) - 1.
    """
    if R < 0:
        raise SpaceError("negative radius")
    rows, cols = space.pairs_within(R)
    parts = []  # (rows used, cols used, list of pairs)
    for x, y in zip(rows.tolist(), cols.tolist()):
        for rows, cols, members in parts:
            if x not in rows and y not in cols:
                rows.add(x)
                cols.add(y)
                members.append((x, y))
                break
        else:
            parts.append(({x}, {y}, [(x, y)]))
    out = []
    for _, _, members in parts:
        # pair (x, y) belongs to the translation sending y to x
        mapping = tuple(sorted((y, x) for x, y in members))
        bound = max(space.distance(x, y) for x, y in members)
        out.append(PartialTranslation(mapping=mapping,
                                      displacement_bound=bound))
    return out
