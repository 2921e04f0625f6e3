import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from roelab import (
    GraphSpace,
    GridSpace,
    SpaceError,
    build_graph_space,
    build_grid_space,
    decompose_entourage,
    entourage,
    neighbourhood,
    space_from_descriptor,
)


METRIC_KINDS = ("sup", "graph", "euclidean-rounded")


def closed_form_distance(kind, dims, side, x, y):
    """Grid distance from base-`side` digits, most significant first."""
    diffs = [abs(x // side ** k % side - y // side ** k % side)
             for k in range(dims)]
    if kind == "sup":
        return max(diffs)
    if kind == "graph":
        return sum(diffs)
    return math.ceil(math.sqrt(sum(d * d for d in diffs)))


def reference_pairs(space, r):
    """The pair loop that `pairs_within` replaces: balls in point order."""
    return [(x, y) for x in space.points for y in space.ball(x, r)]


def triangle_violation(space):
    """First triple (x, y, z), in lexicographic order, with
    d(x, z) > d(x, y) + d(y, z), by brute force over all triples; None for
    a metric."""
    n = space.n
    d = space.pair_distances(*np.divmod(np.arange(n * n), n)).reshape(n, n)
    # bad[x, y, z]: d(x, z) > d(x, y) + d(y, z)
    bad = d[:, None, :] > d[:, :, None] + d[None, :, :]
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def two_triangles(separation=(5, 5)):
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return build_graph_space(edges, separation_schedule=list(separation))


class TestGridSpace:
    def test_line_of_three(self):
        sp = build_grid_space(1, 3, "sup")
        assert list(sp.points) == [0, 1, 2]
        assert sp.distance(0, 2) == 2
        assert sp.geometry_profile(1) == 3

    def test_two_by_two_sup(self):
        sp = build_grid_space(2, 2, "sup")
        assert sp.n == 4
        for x in sp.points:
            assert sp.ball(x, 1) == [0, 1, 2, 3]

    def test_long_window_profile(self):
        sp = build_grid_space(1, 100, "sup")
        for r in (0, 1, 5, 49, 50, 70, 200):
            assert sp.geometry_profile(r) == min(2 * r + 1, 100)

    def test_metric_kinds_differ(self):
        sup = build_grid_space(2, 5, "sup")
        graph = build_grid_space(2, 5, "graph")
        euc = build_grid_space(2, 5, "euclidean-rounded")
        a, b = sup.point_id((0, 0)), sup.point_id((3, 4))
        assert sup.distance(a, b) == 4
        assert graph.distance(a, b) == 7
        assert euc.distance(a, b) == 5

    @pytest.mark.parametrize("kind", ["sup", "graph", "euclidean-rounded"])
    def test_triangle_inequality(self, kind):
        assert triangle_violation(build_grid_space(2, 7, kind)) is None

    def test_triangle_violation_finds_the_first_triple(self):
        # d(0, 2) = 5 > d(0, 1) + d(1, 2) = 2
        dist = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        bad = SimpleNamespace(n=3, pair_distances=lambda r, c: dist[r, c])
        assert triangle_violation(bad) == (0, 1, 2)

    def test_pair_distances_matches_scalar(self):
        sp = build_grid_space(2, 6, "euclidean-rounded")
        rng = np.random.default_rng(0)
        xs = rng.integers(0, sp.n, 50)
        ys = rng.integers(0, sp.n, 50)
        vec = sp.pair_distances(xs, ys)
        for x, y, d in zip(xs, ys, vec):
            assert sp.distance(int(x), int(y)) == d
        # both paths share one metric; check them against the closed form
        for kind in METRIC_KINDS:
            for dims, side in ((1, 9), (2, 6), (3, 4)):
                sp = build_grid_space(dims, side, kind)
                xs = rng.integers(0, sp.n, 60)
                ys = rng.integers(0, sp.n, 60)
                vec = sp.pair_distances(xs, ys)
                for x, y, d in zip(xs.tolist(), ys.tolist(), vec):
                    ref = closed_form_distance(kind, dims, side, x, y)
                    assert d == ref
                    assert sp.distance(x, y) == ref
                    assert isinstance(sp.distance(x, y), int)

    def test_size_limit(self):
        with pytest.raises(SpaceError):
            build_grid_space(3, 101, "sup")

    def test_coords_roundtrip(self):
        sp = build_grid_space(3, 4, "graph")
        for x in sp.points:
            assert sp.point_id(sp.coords(x)) == x


class TestGraphSpace:
    def test_path(self):
        sp = build_graph_space([(0, 1), (1, 2)])
        assert sp.distance(0, 2) == 2

    def test_triangle(self):
        sp = build_graph_space([(0, 1), (1, 2), (0, 2)])
        for x in sp.points:
            for y in sp.points:
                assert sp.distance(x, y) == (0 if x == y else 1)
        assert sp.geometry_profile(1) == 3

    def test_two_triangles_schedule(self):
        sp = two_triangles((5, 5))
        assert sp.distance(0, 3) == 10
        assert sp.distance(0, 1) == 1

    def test_disconnected_needs_schedule(self):
        with pytest.raises(SpaceError):
            build_graph_space([(0, 1), (2, 3)])

    def test_schedule_triangle_inequality(self):
        sp = build_graph_space([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)],
                               separation_schedule=[3, 7, 11])
        assert triangle_violation(sp) is None

    def test_isolated_points_via_n(self):
        sp = build_graph_space([(0, 1)], n=3, separation_schedule=[1, 2])
        assert sp.n == 3
        assert sp.distance(0, 2) == 3


class TestDescriptors:
    def test_grid_roundtrip(self):
        sp = build_grid_space(2, 4, "graph")
        again = space_from_descriptor(json.loads(json.dumps(sp.descriptor())))
        assert again.descriptor() == sp.descriptor()
        assert again.distance(0, 5) == sp.distance(0, 5)

    def test_graph_roundtrip(self):
        sp = two_triangles()
        again = space_from_descriptor(sp.descriptor())
        assert again.distance(0, 4) == sp.distance(0, 4)


class TestNeighbourhood:
    def test_window_ball(self):
        sp = build_grid_space(1, 100, "graph")
        assert neighbourhood(sp, {50}, 2) == {48, 49, 50, 51, 52}

    def test_radius_zero_is_identity(self):
        sp = build_grid_space(1, 20, "graph")
        A = {3, 7, 11}
        assert neighbourhood(sp, A, 0) == A

    def test_reaches_other_triangle(self):
        sp = two_triangles((5, 5))
        assert neighbourhood(sp, {0, 1, 2}, 10) == set(range(6))

    def test_empty_set(self):
        sp = build_grid_space(1, 5, "graph")
        assert neighbourhood(sp, set(), 4) == set()

    def test_monotone_and_composition(self):
        sp = build_grid_space(2, 8, "graph")
        A = {0, 17, 30}
        for r1, r2 in [(1, 2), (0, 3), (2, 2)]:
            n1 = neighbourhood(sp, A, r1)
            assert n1 <= neighbourhood(sp, A, max(r1, r2))
            assert neighbourhood(sp, n1, r2) <= neighbourhood(sp, A, r1 + r2)
        # grids are geodesic: composition is exact there
        assert neighbourhood(sp, neighbourhood(sp, A, 1), 2) == \
            neighbourhood(sp, A, 3)


class TestEntourage:
    def test_zero_radius_is_diagonal(self):
        sp = build_grid_space(1, 6, "graph")
        assert entourage(sp, 0) == {(x, x) for x in sp.points}

    def test_window_three_points(self):
        sp = build_grid_space(1, 3, "graph")
        assert len(entourage(sp, 1)) == 7

    def test_two_by_two_full(self):
        sp = build_grid_space(2, 2, "sup")
        assert len(entourage(sp, 1)) == 16


class TestDecomposeEntourage:
    def test_radius_zero_identity(self):
        sp = build_grid_space(1, 5, "graph")
        parts = decompose_entourage(sp, 0)
        assert len(parts) == 1
        assert parts[0].pairs() == {(x, x) for x in sp.points}
        assert parts[0].displacement_bound == 0

    def test_window_three_points(self):
        sp = build_grid_space(1, 3, "graph")
        parts = decompose_entourage(sp, 1)
        assert len(parts) == 3

    def audit(self, space, R):
        parts = decompose_entourage(space, R)
        union = set()
        for p in parts:
            assert p.is_injective()
            pairs = p.pairs()
            assert not (pairs & union)
            union |= pairs
            assert all(space.distance(x, y) <= p.displacement_bound
                       for x, y in pairs)
        assert union == entourage(space, R)
        return parts

    def test_random_regular_graph_cover(self):
        import networkx as nx
        g = nx.random_regular_graph(3, 50, seed=7)
        sp = build_graph_space(list(g.edges()))
        parts = self.audit(sp, 1)
        assert len(parts) <= 2 * sp.geometry_profile(1) - 1 == 7

    def test_grid_cover(self):
        sp = build_grid_space(2, 5, "sup")
        for R in (1, 2):
            parts = self.audit(sp, R)
            assert len(parts) <= 2 * sp.geometry_profile(R) - 1


def ball_spaces():
    """Grids of dims 1-3 under every metric, a 3-regular graph, two paths at
    outposts 0.55 and at 0.75, and isolated points."""
    import networkx as nx
    spaces = [build_grid_space(dims, side, kind)
              for dims, side in ((1, 9), (2, 6), (3, 4))
              for kind in METRIC_KINDS]
    spaces.append(build_graph_space(
        list(nx.random_regular_graph(3, 20, seed=4).edges())))
    for outpost in (0.55, 0.75):
        spaces.append(build_graph_space([(0, 1), (1, 2), (3, 4)],
                                        separation_schedule=[outpost] * 2))
    spaces.append(build_graph_space([], n=4,
                                    separation_schedule=[0.5, 1, 1.5, 2]))
    return spaces


class TestBalls:
    @pytest.mark.parametrize("batch", [None, 1])
    def test_matches_ball_loop(self, monkeypatch, batch):
        # a batch of one entry takes one centre per stack
        if batch is not None:
            monkeypatch.setattr("roelab.space.WINDOW_BATCH_ELEMENTS", batch)
        for sp in ball_spaces():
            for centers in ([], [sp.n - 1, 0, 2, 1], [2, 2, 0, 2],
                            list(sp.points)):
                for r in (0, 0.5, 1, 1.5, 3):
                    sizes, ids = sp.balls(centers, r)
                    balls = [sp.ball(c, r) for c in centers]
                    assert sizes.tolist() == [len(b) for b in balls]
                    assert ids.tolist() == [y for b in balls for y in b]

    def test_pairs_within_independent_of_stacks(self, monkeypatch):
        spaces = ball_spaces()
        default = [sp.pairs_within(r) for sp in spaces for r in (0, 1, 3)]
        monkeypatch.setattr("roelab.space.WINDOW_BATCH_ELEMENTS", 1)
        stacked = [sp.pairs_within(r) for sp in spaces for r in (0, 1, 3)]
        for (a, b), (c, d) in zip(default, stacked):
            np.testing.assert_array_equal(a, c)
            np.testing.assert_array_equal(b, d)


class TestPairsWithin:
    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("dims, side", [(1, 12), (2, 7), (3, 5)])
    def test_grid_matches_ball_loop_and_closed_form(self, kind, dims, side):
        sp = build_grid_space(dims, side, kind)
        for r in (0, 1, 2.5, 3, -1):
            rows, cols = sp.pairs_within(r)
            got = list(zip(rows.tolist(), cols.tolist()))
            assert got == reference_pairs(sp, r)
            closed = [(x, y) for x in sp.points for y in sp.points
                      if closed_form_distance(kind, dims, side, x, y) <= r]
            assert got == closed

    def test_graph_space_with_separation_schedule(self):
        sp = build_graph_space([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)],
                               n=9, separation_schedule=[1.5, 2, 3.25, 0.5])
        for r in (0, 1, 2.5, 3, 3.5, 4, 5.75, -1):
            rows, cols = sp.pairs_within(r)
            assert list(zip(rows.tolist(), cols.tolist())) == \
                reference_pairs(sp, r)

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_entourage_is_the_pair_set(self, kind):
        sp = build_grid_space(2, 6, kind)
        for R in (0, 1, 2.5):
            assert entourage(sp, R) == set(reference_pairs(sp, R))

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_profile_and_diameter_closed_form(self, kind):
        sp = build_grid_space(2, 7, kind)
        for r in (0, 1, 2, 3.5, 12):
            assert sp.geometry_profile(r) == max(
                len(sp.ball(x, r)) for x in sp.points)
        assert sp.diameter() == max(
            closed_form_distance(kind, 2, 7, x, y)
            for x in sp.points for y in sp.points)
