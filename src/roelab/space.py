"""Finite bounded-geometry metric spaces.

Points are integer ids 0..n-1.  Two concrete constructions are provided:
integer boxes (grid spaces) with sup / graph / rounded-euclidean metrics,
and finite graphs with the shortest-path metric, where disconnected
components are kept at explicit "outpost" distances given by a separation
schedule.  All distances are exact integers for the grid/graph kinds, so
entourage membership never flickers at a boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

GRID_SIZE_LIMIT = 10 ** 6
METRIC_KINDS = ("euclidean-rounded", "sup", "graph")


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

    def diameter(self):
        raise NotImplementedError

    def geometry_profile(self, r):
        """max_x |B(x, r)|, computed exactly."""
        raise NotImplementedError

    def pair_distances(self, rows, cols):
        """Vectorized distances for parallel arrays of point ids."""
        return np.array([self.distance(int(x), int(y))
                         for x, y in zip(rows, cols)], dtype=float)

    def descriptor(self):
        raise NotImplementedError

    def to_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)

    def check_triangle(self, samples=2000, seed=0):
        """Exhaustive triple check for small spaces, random triples above."""
        n = self.n
        if n <= 500 and n ** 3 <= 5 * 10 ** 6:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = np.random.default_rng(seed)
            triples = rng.integers(0, n, size=(samples, 3))
        for x, y, z in triples:
            if self.distance(x, z) > self.distance(x, y) + self.distance(y, z):
                return False, (int(x), int(y), int(z))
        return True, None


class GridSpace(CoarseSpace):
    """Integer box {0..side-1}^dims with one of the supported metrics."""

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
        self._offset_cache = {}
        self._profile_cache = {}

    def coords(self, x):
        out = []
        for _ in range(self.dims):
            x, c = divmod(x, self.side)
            out.append(c)
        return tuple(reversed(out))

    def point_id(self, coords):
        x = 0
        for c in coords:
            x = x * self.side + c
        return x

    def _metric_from_diffs(self, diffs):
        if self.metric_kind == "sup":
            return max(abs(d) for d in diffs)
        if self.metric_kind == "graph":
            return sum(abs(d) for d in diffs)
        # rounded-euclidean: ceil keeps the triangle inequality exact
        return math.ceil(math.sqrt(sum(d * d for d in diffs)))

    def distance(self, x, y):
        cx, cy = self.coords(x), self.coords(y)
        return self._metric_from_diffs([a - b for a, b in zip(cx, cy)])

    def _offsets(self, r):
        r = int(r)
        if r not in self._offset_cache:
            rng = range(-r, r + 1)
            offs = [off for off in itertools.product(rng, repeat=self.dims)
                    if self._metric_from_diffs(off) <= r]
            self._offset_cache[r] = offs
        return self._offset_cache[r]

    def ball(self, x, r):
        if r < 0:
            return []
        cx = self.coords(x)
        out = []
        for off in self._offsets(int(math.floor(r))):
            c = tuple(a + b for a, b in zip(cx, off))
            if all(0 <= v < self.side for v in c):
                out.append(self.point_id(c))
        out.sort()
        return out

    def pair_distances(self, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        diffs = []
        for _ in range(self.dims):
            rows, rc = np.divmod(rows, self.side)
            cols, cc = np.divmod(cols, self.side)
            diffs.append(np.abs(rc - cc))
        diffs = np.stack(diffs)
        if self.metric_kind == "sup":
            return diffs.max(axis=0).astype(float)
        if self.metric_kind == "graph":
            return diffs.sum(axis=0).astype(float)
        return np.ceil(np.sqrt((diffs.astype(float) ** 2).sum(axis=0)))

    def geometry_profile(self, r):
        r = int(math.floor(r))
        if r < 0:
            return 0
        if r not in self._profile_cache:
            # ball sizes in a box are maximised at the most central point
            center = self.point_id(tuple([self.side // 2] * self.dims))
            self._profile_cache[r] = len(self.ball(center, r))
        return self._profile_cache[r]

    def diameter(self):
        lo = self.point_id(tuple([0] * self.dims))
        hi = self.point_id(tuple([self.side - 1] * self.dims))
        return self.distance(lo, hi)

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
            out = np.array([sched[labels[i]] for i in range(self.n)])
            cross = out[:, None] + out[None, :]
            mask = labels[:, None] != labels[None, :]
            dist = np.where(mask, cross, dist)
        self._dist = dist
        self._labels = labels
        self.edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        self.separation_schedule = (tuple(separation_schedule)
                                    if separation_schedule else None)
        self._profile_cache = {}

    def distance(self, x, y):
        d = self._dist[x, y]
        return int(d) if float(d).is_integer() else float(d)

    def ball(self, x, r):
        return np.flatnonzero(self._dist[x] <= r).tolist()

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

    def component_of(self, x):
        return int(self._labels[x])

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


def read_edge_list(path):
    """Edge-list text file, one `u v` pair per line, 0-based ids."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    return edges


def write_edge_list(path, edges):
    with open(path, "w") as fh:
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def neighbourhood(space, A, R):
    """{x : d(x, A) <= R}; empty A gives the empty set."""
    A = set(A)
    if not A:
        return set()
    if R < 0:
        raise SpaceError("negative radius")
    out = set()
    for a in A:
        out.update(space.ball(a, R))
    return out


def entourage(space, R):
    """All ordered pairs at distance <= R (symmetric, contains diagonal)."""
    if R < 0:
        raise SpaceError("negative radius")
    pairs = set()
    for x in space.points:
        for y in space.ball(x, R):
            pairs.add((x, y))
    return pairs


def decompose_entourage(space, R):
    """Split the R-entourage into graphs of partial translations.

    Greedy proper edge coloring in lexicographic (source, target) order;
    each part uses every row and column at most once, so the parts are
    bijections.  Part count is at most 2 * geometry_profile(R) - 1.
    """
    pairs = sorted(entourage(space, R))
    parts = []  # (rows used, cols used, list of pairs)
    for x, y in pairs:
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
