import itertools
import time

import numpy as np
import pytest

from roelab import (
    BandOperator,
    DirectionSequence,
    IdealError,
    IdealFamily,
    block_lower_bound,
    build_graph_space,
    build_grid_space,
    cross_validate_ghostly,
    default_k_cap,
    finite_sets_family,
    geometric_distance,
    ghostly_membership,
    ideal_membership,
    neighbourhood,
    spatial_ideal,
)
from roelab.cli import random_band_operator


def strip(space, theta, width):
    """Grid points within `width` of the line through the origin at angle
    theta."""
    out = set()
    for p in space.points:
        x, y = space.coords(p)
        if abs(-x * np.sin(theta) + y * np.cos(theta)) <= width:
            out.add(p)
    return frozenset(out)


class TestMembership:
    def test_subset_of_generator(self):
        sp = build_grid_space(1, 50, "graph")
        fam = IdealFamily(sp, (frozenset(range(10)),))
        ok, cert = ideal_membership(fam, {2, 5, 9}, k_cap=5)
        assert ok and cert.k == 0

    def test_evens_cover_window(self):
        sp = build_grid_space(1, 100, "graph")
        evens = frozenset(range(0, 100, 2))
        fam = IdealFamily(sp, (evens,))
        ok, cert = ideal_membership(fam, set(range(100)), k_cap=1)
        assert ok and cert.k == 1

    def test_oblique_strip_not_covered(self):
        L = 40
        sp = build_grid_space(2, L, "graph")
        gens = tuple(strip(sp, t, 2.0)
                     for t in (0.0, np.pi / 4, np.pi / 2))
        fam = IdealFamily(sp, gens)
        Z = strip(sp, np.pi / 8, 2.0)
        ok, _ = ideal_membership(fam, Z, k_cap=L / 10)
        assert not ok

    def test_empty_set_always_member(self):
        sp = build_grid_space(1, 10, "graph")
        fam = IdealFamily(sp, (frozenset({3}),))
        ok, _ = ideal_membership(fam, set(), k_cap=0)
        assert ok

    def test_generator_outside_space(self):
        sp = build_grid_space(1, 10, "graph")
        with pytest.raises(IdealError):
            IdealFamily(sp, (frozenset({99}),))


class TestClosureProperties:
    def setup_method(self):
        self.sp = build_grid_space(1, 60, "graph")
        self.fam = IdealFamily(self.sp, (frozenset(range(10)),
                                         frozenset(range(30, 40))))

    def test_closed_under_subsets(self):
        Z = set(range(5, 10)) | set(range(33, 37))
        ok, _ = ideal_membership(self.fam, Z, k_cap=3)
        assert ok
        ok_sub, _ = ideal_membership(self.fam, set(list(Z)[:3]), k_cap=3)
        assert ok_sub

    def test_closed_under_finite_unions(self):
        ok, cert = ideal_membership(self.fam,
                                    set(range(10)) | set(range(30, 40)),
                                    k_cap=0)
        assert ok and set(cert.generator_indices) == {0, 1}

    def test_closed_under_neighbourhoods(self):
        from roelab import neighbourhood
        Z = neighbourhood(self.sp, range(10), 3)
        ok, cert = ideal_membership(self.fam, Z, k_cap=3)
        assert ok and cert.k == 3

    def test_max_union_cap_has_content(self):
        # with a union cap the two generators cannot be combined
        capped = IdealFamily(self.sp, self.fam.generators, max_union=1)
        ok, _ = ideal_membership(capped,
                                 set(range(10)) | set(range(30, 40)),
                                 k_cap=1)
        assert not ok


class TestSpatialIdeal:
    def test_full_space_accepts_everything(self):
        sp = build_grid_space(1, 30, "graph")
        fam = spatial_ideal(sp, set(sp.points))
        ok, _ = ideal_membership(fam, {0, 29, 13}, k_cap=0)
        assert ok

    def test_empty_generator_rejects_nonempty(self):
        sp = build_grid_space(1, 30, "graph")
        fam = spatial_ideal(sp, set())
        assert ideal_membership(fam, set(), k_cap=5)[0]
        assert not ideal_membership(fam, {0}, k_cap=5)[0]

    def test_separated_column_not_member(self):
        # two far-apart components; one is no k-neighbourhood of the other
        sp = build_graph_space([(0, 1), (2, 3)], separation_schedule=[8, 8])
        fam = spatial_ideal(sp, {0, 1})
        ok, _ = ideal_membership(fam, {2, 3}, k_cap=10)
        assert not ok


class TestGhostlyMembership:
    def test_full_space_family_accepts_all(self):
        sp = build_grid_space(1, 40, "graph")
        fam = spatial_ideal(sp, set(sp.points))
        T = random_band_operator(sp, 2, 0.5, seed=0)
        ok, failing = ghostly_membership(T, fam)
        assert ok and failing is None

    def test_rank_one_in_finite_sets_family(self):
        sp = build_grid_space(1, 40, "graph")
        T = BandOperator.from_entries(sp, {(7, 8): 2.0})
        fam = finite_sets_family(sp, [7, 20], max_union=2)
        ok, _ = ghostly_membership(T, fam)
        assert ok

    def test_far_mass_fails_with_witness_threshold(self):
        sp = build_grid_space(1, 40, "graph")
        T = BandOperator.from_entries(sp, {(0, 0): 1.0, (35, 35): 0.3})
        fam = IdealFamily(sp, (frozenset({0}),), max_union=1,
                          k_grid=(0, 1, 2))
        ok, failing = ghostly_membership(T, fam, k_cap=2)
        assert not ok
        assert failing == 0.25  # largest grid threshold at or below 0.3


class TestGeometricDistance:
    def test_supported_in_generator(self):
        sp = build_grid_space(1, 40, "graph")
        fam = spatial_ideal(sp, set(range(10)))
        T = BandOperator.from_entries(
            sp, {(x, y): 1.0 for x in range(4) for y in range(4)})
        assert geometric_distance(T, fam, k_cap=3) == 0.0

    def test_escaping_block_keeps_distance(self):
        sp = build_graph_space([(0, 1), (2, 3)],
                               separation_schedule=[30, 30])
        fam = spatial_ideal(sp, {0, 1})
        T = BandOperator.from_entries(sp, {(2, 2): 1.0, (3, 3): 1.0,
                                           (0, 0): 1.0})
        # any certified set misses the far block, whose corner has norm 1
        d = geometric_distance(T, fam, k_cap=10)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_small_tail_small_distance(self):
        sp = build_grid_space(1, 40, "graph")
        fam = spatial_ideal(sp, set(range(20)))
        entries = {(x, x): 1.0 for x in range(20)}
        entries[(30, 30)] = 1e-3
        T = BandOperator.from_entries(sp, entries)
        assert geometric_distance(T, fam, k_cap=5) <= 1e-3 + 1e-12


class TestBlockLowerBound:
    def test_zero_on_blocks(self):
        sp = build_grid_space(1, 40, "graph")
        fam = spatial_ideal(sp, set(range(10)))
        T = BandOperator.from_entries(sp, {(0, 0): 1.0})
        assert block_lower_bound(T, fam, [{30, 31}, {35, 36}], k_cap=2) == 0.0

    def test_norm_one_escaping_blocks(self):
        sp = build_graph_space([(0, 1), (2, 3), (4, 5)],
                               separation_schedule=[40, 50, 60])
        fam = spatial_ideal(sp, {0, 1})
        entries = {(p, p): 1.0 for p in (2, 3, 4, 5)}
        T = BandOperator.from_entries(sp, entries)
        bound = block_lower_bound(T, fam, [{2, 3}, {4, 5}], k_cap=10)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_blocks_rejected(self):
        sp = build_grid_space(1, 10, "graph")
        fam = spatial_ideal(sp, {0})
        T = BandOperator.identity(sp)
        with pytest.raises(IdealError):
            block_lower_bound(T, fam, [{1, 2}, {2, 3}])


def test_default_k_cap_quarter_diameter():
    sp = build_grid_space(1, 41, "graph")
    assert default_k_cap(sp) == 10.0


def reference_candidate_sets(family, k_cap):
    """The candidate-set loop as first written, kept as the reference:
    k outer, then union size, then combination order, skipping repeats."""
    seen = set()
    cap = family.union_cap()
    for k in [k for k in family.k_grid if k <= k_cap]:
        hoods = [frozenset(neighbourhood(family.space, g, k))
                 for g in family.generators]
        for size in range(1, cap + 1):
            for combo in itertools.combinations(
                    range(len(family.generators)), size):
                Y = frozenset().union(*(hoods[i] for i in combo))
                if Y not in seen:
                    seen.add(Y)
                    yield Y, (combo, k)


def reference_membership(family, Z, k_cap):
    """The exhaustive triple loop ideal_membership ran on its own before it
    read candidate_sets."""
    gens = family.generators
    cap = family.union_cap()
    for k in [k for k in family.k_grid if k <= k_cap]:
        hoods = [frozenset(neighbourhood(family.space, g, k)) for g in gens]
        for size in range(1, cap + 1):
            for combo in itertools.combinations(range(len(gens)), size):
                if Z <= set().union(*(hoods[i] for i in combo)):
                    return True, (combo, k)
    return False, None


def isolated_points_family():
    """60 points 50 apart; three overlapping generators plus 42 singletons,
    unions of at most two: 6 * (45 + 990) = 6210 searches at k_cap 10."""
    sp = build_graph_space([], n=60, separation_schedule=[25.0] * 60)
    gens = ({1, 2, 3, 4}, {1, 2, 5}, {3, 4, 6}) + tuple(
        {p} for p in range(7, 49))
    return IdealFamily(sp, gens, max_union=2)


def disjoint_blocks_family(n_gens, max_union=None):
    sp = build_grid_space(1, 3 * n_gens, "graph")
    gens = tuple(range(3 * i, 3 * i + 3) for i in range(n_gens))
    return IdealFamily(sp, gens, max_union=max_union)


class TestCandidateEnumerator:
    def test_smallest_k_comes_before_fewest_generators(self):
        sp = build_grid_space(1, 20, "graph")
        fam = IdealFamily(sp, ({0}, {2}))
        ok, cert = ideal_membership(fam, {0, 1, 2}, k_cap=5)
        assert ok
        assert (cert.generator_indices, cert.k) == ((0, 1), 1)

    def test_matches_reference_loops_on_random_families(self):
        rng = np.random.default_rng(20231)
        spaces = [build_grid_space(1, 14, "graph"),
                  build_grid_space(2, 4, "sup"),
                  build_graph_space([(0, 1), (1, 2), (3, 4), (5, 6)],
                                    n=8, separation_schedule=[1, 2, 3, 4])]
        checked = 0
        for _ in range(60):
            sp = spaces[int(rng.integers(len(spaces)))]
            g = int(rng.integers(1, 7))
            gens = tuple(frozenset(rng.choice(sp.n, size=int(
                rng.integers(0, 4)), replace=False).tolist())
                for _ in range(g))
            k_grid = tuple(int(k) for k in rng.permutation(6)[
                :int(rng.integers(1, 5))])
            for cap in [None] + list(range(1, g + 1)):
                fam = IdealFamily(sp, gens, max_union=cap, k_grid=k_grid)
                for k_cap in (0, 1.5, 3, 5):
                    got = [(Y, (c.generator_indices, c.k))
                           for Y, c in fam.candidate_sets(k_cap)]
                    assert got == list(reference_candidate_sets(fam, k_cap))
                    for _ in range(3):
                        Z = set(rng.choice(sp.n, size=int(
                            rng.integers(1, 5)), replace=False).tolist())
                        ok, cert = ideal_membership(fam, Z, k_cap)
                        want = reference_membership(fam, Z, k_cap)
                        assert (ok, None if cert is None else
                                (cert.generator_indices, cert.k)) == want
                        checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("g", [0, 1, 4, 7])
    def test_search_size_counts_every_combination(self, g):
        sp = build_grid_space(1, 10, "graph")
        for cap in [None] + list(range(1, g + 2)):
            fam = IdealFamily(sp, tuple({i} for i in range(g)),
                              max_union=cap)
            for k_cap in (-1, 0, 2, 30):
                n_ks = len([k for k in fam.k_grid if k <= k_cap])
                brute = max(n_ks, 1) * sum(
                    1 for size in range(1, fam.union_cap() + 1)
                    for _ in itertools.combinations(range(g), size))
                assert fam.search_size(k_cap) == brute

    def test_large_family_answers_greedily_without_counting(self):
        fam = disjoint_blocks_family(26)
        assert fam.search_size(5) == 5 * (2 ** 26 - 1)
        assert not fam.exhaustive(5)
        t0 = time.perf_counter()
        ok, cert = ideal_membership(fam, {0, 4, 40}, k_cap=5)
        assert time.perf_counter() - t0 < 1.0
        assert ok and (cert.generator_indices, cert.k) == ((0, 1, 13), 0)

    def test_greedy_false_is_inconclusive(self):
        fam = isolated_points_family()
        Z = {1, 2, 3, 4, 5, 6}
        assert fam.search_size(10) == 6210
        assert not fam.exhaustive(10)
        # greedy takes generator 0 first and then cannot finish in two
        assert ideal_membership(fam, Z, k_cap=10) == (False, None)
        assert Z <= fam.generators[1] | fam.generators[2]

    def test_over_budget_search_raises(self):
        fam = disjoint_blocks_family(26)
        T = BandOperator.identity(fam.space)
        message = f"{fam.search_size(5)} .* limit of 5000"
        with pytest.raises(IdealError, match=message):
            next(fam.candidate_sets(5))
        with pytest.raises(IdealError, match="limit"):
            geometric_distance(T, fam, k_cap=5)
        with pytest.raises(IdealError, match="limit"):
            block_lower_bound(T, fam, [{0}, {77}], k_cap=5)

    def test_neighbourhoods_computed_once_per_k(self, monkeypatch):
        import roelab.ideals as il
        calls = []

        def counting(space, A, R):
            calls.append(R)
            return neighbourhood(space, A, R)

        monkeypatch.setattr(il, "neighbourhood", counting)
        line = build_grid_space(1, 2000, "graph")
        fam = IdealFamily(line, (frozenset({0}), frozenset({5})),
                          max_union=2, k_grid=(0, 1))
        T = BandOperator.identity(line)
        seq = DirectionSequence(tuple(2 ** k for k in range(4, 11)))
        for _ in range(2):
            cross_validate_ghostly(T, fam, [seq], k_cap=3, window_radius=2,
                                   tail=4)
        assert sorted(calls) == [0, 0, 1, 1, 3, 3]
