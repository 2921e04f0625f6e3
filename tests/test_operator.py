import time

import numpy as np
import pytest

import roelab.operator as opr
from roelab import (
    BandOperator,
    NormConvergenceError,
    OperatorError,
    build_graph_space,
    build_grid_space,
    dense_norm,
    norm_bracket,
    operator_norm,
    operator_norm_bracket,
    power_iteration_norm,
    schur_norm_bound,
)
from roelab.cli import random_band_operator


@pytest.fixture
def window100():
    return build_grid_space(1, 100, "graph")


def small_op(space, entries):
    return BandOperator.from_entries(space, entries)


class TestConstruction:
    def test_dedup_and_prune(self, window100):
        T = BandOperator(window100, [0, 0, 1], [1, 1, 1], [0.5, 0.5, 1e-16])
        assert T.nnz == 1
        assert T.entry(0, 1) == 1.0

    def test_propagation(self, window100):
        T = small_op(window100, {(0, 0): 1.0, (0, 3): 2.0, (7, 5): 1.0})
        assert T.propagation == 3
        assert isinstance(T.propagation, int)

    def test_propagation_recompute_matches(self, window100):
        T = random_band_operator(window100, 3, 0.5, seed=1)
        by_hand = max(window100.distance(x, y) for x, y in T.support())
        assert T.propagation == by_hand

    @pytest.mark.parametrize("rows, cols", [([0, 1], [10, 0]),
                                            ([0, -1], [0, 3]),
                                            ([10], [10])])
    def test_point_ids_out_of_range_rejected(self, rows, cols):
        # the key 0 * 10 + 10 would alias 1 * 10 + 0 and merge the entries
        sp = build_grid_space(1, 10, "graph")
        with pytest.raises(OperatorError, match="0..9"):
            BandOperator(sp, rows, cols, np.ones(len(rows)))

    def test_pruned_out_of_range_id_still_rejected(self):
        sp = build_grid_space(1, 10, "graph")
        with pytest.raises(OperatorError):
            BandOperator(sp, [0, 12], [0, 0], [1.0, 0.0])

    def test_adjacency_matches_ball_loop(self):
        spaces = [build_grid_space(1, 30, "graph"),
                  build_grid_space(2, 8, "euclidean-rounded"),
                  build_grid_space(3, 4, "sup"),
                  build_graph_space([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)],
                                    separation_schedule=[1.5, 2.0])]
        for sp in spaces:
            for R in (0, 1, 2.5, 3):
                # the loop that adjacency ran before `pairs_within`
                rows, cols = [], []
                for x in sp.points:
                    for y in sp.ball(x, R):
                        if y != x:
                            rows.append(x)
                            cols.append(y)
                ref = BandOperator(sp, rows, cols, np.ones(len(rows)))
                got = BandOperator.adjacency(sp, R)
                for a, b in ((got.rows, ref.rows), (got.cols, ref.cols),
                             (got.vals, ref.vals)):
                    assert a.tobytes() == b.tobytes()

    def test_immutable(self, window100):
        T = BandOperator.identity(window100)
        with pytest.raises(AttributeError):
            T.propagation = 5

    def test_identity(self, window100):
        I = BandOperator.identity(window100)
        assert I.nnz == 100
        assert I.propagation == 0


class TestLookup:
    @pytest.mark.parametrize("space", [build_grid_space(1, 60, "graph"),
                                       build_grid_space(2, 9, "sup")])
    def test_values_at_matches_entries(self, space):
        rng = np.random.default_rng(5)
        for seed in range(6):
            T = random_band_operator(space, 2, 0.4, seed=seed)
            if seed % 2:
                T = BandOperator(space, T.rows, T.cols, T.vals.real)
            ref = T.entries()
            xs = rng.integers(0, space.n, 400)
            ys = rng.integers(0, space.n, 400)
            got = T.values_at(xs, ys)
            assert np.iscomplexobj(got) == (seed % 2 == 0)
            assert [ref.get((x, y), 0) for x, y in
                    zip(xs.tolist(), ys.tolist())] == got.tolist()
            # absent coordinates included: most random pairs are far apart
            assert sum((x, y) not in ref for x, y in
                       zip(xs.tolist(), ys.tolist())) > 100
            for (x, y), v in ref.items():
                assert T.entry(x, y) == v
            assert T.entry(0, space.n - 1) == 0j

    def test_broadcast_shape_and_zero_operator(self):
        sp = build_grid_space(1, 20, "graph")
        S = BandOperator.shift_1d(sp)
        got = S.values_at(np.arange(1, 20)[:, None], np.arange(19)[None, :])
        np.testing.assert_array_equal(got, np.eye(19))
        Z = BandOperator(sp, [], [], [])
        assert Z.values_at([0, 1], [1, 0]).tolist() == [0, 0]
        assert Z.entry(3, 3) == 0j

    def test_out_of_range_lookup_rejected(self):
        sp = build_grid_space(1, 20, "graph")
        S = BandOperator.shift_1d(sp)
        with pytest.raises(OperatorError):
            S.values_at([1], [20])


class TestEpsilonSupport:
    def test_basic(self, window100):
        T = small_op(window100, {(0, 0): 0.5, (0, 1): 0.05})
        assert T.epsilon_support(0.1) == {(0, 0)}

    def test_boundary_value_kept(self, window100):
        # closed inequality: an entry exactly at the threshold stays
        T = small_op(window100, {(0, 0): 0.5, (0, 1): 0.05})
        assert T.epsilon_support(0.05) == {(0, 0), (0, 1)}

    def test_constant_block(self):
        sp = build_grid_space(1, 8, "graph")
        n = 8
        T = small_op(sp, {(x, y): 1.0 / n for x in range(n)
                          for y in range(n)})
        assert T.epsilon_support(1.0 / n) == {(x, y) for x in range(n)
                                              for y in range(n)}

    def test_nested_in_threshold(self, window100):
        T = random_band_operator(window100, 2, 0.6, seed=3)
        assert T.epsilon_support(0.5) <= T.epsilon_support(0.25)

    def test_sum_support_containment(self, window100):
        # supp_eps(T+S) within supp_{eps/2}(T) union supp_{eps/2}(S)
        for seed in range(5):
            T = random_band_operator(window100, 2, 0.4, seed=seed)
            S = random_band_operator(window100, 2, 0.4, seed=seed + 50)
            for eps in (0.5, 0.1, 0.02):
                assert (T + S).epsilon_support(eps) <= (
                    T.epsilon_support(eps / 2) | S.epsilon_support(eps / 2))


class TestTruncate:
    def test_drops_small_offdiagonal(self, window100):
        T = small_op(window100, {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 0.05})
        Te = T.truncate(0.1)
        assert Te.support() == {(0, 0), (1, 1)}

    def test_no_change_when_all_large(self, window100):
        T = small_op(window100, {(0, 0): 0.5, (0, 1): 0.3})
        Te = T.truncate(0.2)
        assert Te.entries() == T.entries()

    def test_schur_bound_on_random_band(self):
        sp = build_grid_space(1, 150, "graph")
        k3 = sp.geometry_profile(3)
        for seed in range(5):
            T = random_band_operator(sp, 3, 0.7, seed=seed)
            for eps in (0.5, 0.1):
                Te = T.truncate(eps)
                assert Te.propagation <= T.propagation
                assert Te.support() == T.epsilon_support(eps)
                assert dense_norm(T - Te) <= eps * k3 + 1e-12


class TestNorm:
    def test_identity(self, window100):
        assert operator_norm(BandOperator.identity(window100)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_path_three_points(self):
        sp = build_graph_space([(0, 1), (1, 2)])
        A = BandOperator.adjacency(sp)
        assert operator_norm(A) == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_window_adjacency_closed_form(self):
        sp = build_grid_space(1, 200, "graph")
        A = BandOperator.adjacency(sp)
        assert operator_norm(A) == pytest.approx(2 * np.cos(np.pi / 201),
                                                 abs=1e-9)

    def test_power_iteration_agrees_with_dense(self):
        sp = build_grid_space(1, 300, "graph")
        for seed in range(3):
            T = random_band_operator(sp, 3, 0.4, seed=seed)
            assert power_iteration_norm(T) == \
                pytest.approx(dense_norm(T), rel=1e-8)

    def test_power_iteration_start_not_orthogonal_to_top_vector(self):
        # T = I + (e0 - e1)(e0 - e1)^T has norm 3 along e0 - e1, which is
        # orthogonal to the all-ones vector; 1000 points take the power
        # iteration path
        sp = build_grid_space(1, 1000, "graph")
        T = BandOperator.identity(sp) + small_op(
            sp, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): -1.0, (1, 0): -1.0})
        assert np.union1d(T.rows, T.cols).size > opr.DENSE_NORM_CUTOFF
        assert operator_norm(T) == pytest.approx(3.0, abs=1e-9)

    def test_normalized_path_with_a_clustered_top(self):
        # the top singular value is double, and the next lies 8e-5 below:
        # power iteration raised NormConvergenceError here
        A = BandOperator.adjacency(build_grid_space(1, 601, "graph"),
                                   normalize=True)
        assert operator_norm(A) == pytest.approx(np.cos(np.pi / 602),
                                                 abs=1e-9)

    def test_random_operator_with_close_top_singular_values(self):
        # s2 / s1 = 0.99981: power iteration raised with bracket 6.89..14.0
        grid = build_grid_space(2, 26, "graph")
        T = random_band_operator(grid, 3, 0.152692502235424, 1951822153)
        sigma = np.linalg.norm(T.to_dense(), 2)
        assert operator_norm(T) == pytest.approx(sigma, rel=1e-12)
        lo, hi, _, _ = operator_norm_bracket(T)
        assert lo <= sigma * (1 + 1e-12) and sigma <= hi

    def test_5000_point_path_in_under_a_second(self):
        A = BandOperator.adjacency(build_grid_space(1, 5000, "graph"),
                                   normalize=True)
        start = time.perf_counter()
        norm = operator_norm(A)
        assert time.perf_counter() - start < 1.0
        assert norm == pytest.approx(np.cos(np.pi / 5001), abs=1e-9)

    def test_over_the_memory_cap_raises_with_a_sound_bracket(self,
                                                              monkeypatch):
        A = BandOperator.adjacency(build_grid_space(1, 601, "graph"),
                                   normalize=True)
        monkeypatch.setattr(opr, "CERTIFICATE_MAX_ENTRIES", 600)
        with pytest.raises(NormConvergenceError) as info:
            norm_bracket(A)
        lo, hi = info.value.bracket
        assert lo <= np.cos(np.pi / 602) <= hi

    def test_sup_entry_below_norm(self, window100):
        for seed in range(5):
            T = random_band_operator(window100, 2, 0.5, seed=seed)
            assert T.sup_entry_norm() <= operator_norm(T) + 1e-12

    def test_schur_bound_above_norm(self, window100):
        T = random_band_operator(window100, 2, 0.5, seed=9)
        assert schur_norm_bound(T) >= operator_norm(T) - 1e-12

    def test_zero(self, window100):
        Z = BandOperator(window100, [], [], [])
        assert operator_norm(Z) == 0.0


class TestNormPaths:
    """dense_norm picks real, Hermitian or general arithmetic from the
    entries; operator_norm caches per operator."""

    @pytest.fixture
    def base(self, window100):
        # complex, non-Hermitian, propagation 2
        return random_band_operator(window100, 2, 0.5, seed=11)

    def structures(self, base):
        real = BandOperator(base.space, base.rows, base.cols, base.vals.real)
        return {
            "real symmetric": real + real.adjoint(),
            "complex Hermitian": base + base.adjoint(),
            "real non-symmetric": real,
            "complex general": base,
        }

    def test_dense_norm_matches_numpy(self, base):
        for name, T in self.structures(base).items():
            assert dense_norm(T) == pytest.approx(
                np.linalg.norm(T.to_dense(), 2), rel=1e-12), name

    def test_bracket_beside_the_cached_value(self, base):
        # dense below the cutoff, certified above it
        assert operator_norm_bracket(base) == (operator_norm(base),) * 2 + (
            "dense", 0)
        big = random_band_operator(build_grid_space(1, 400, "graph"), 2, 0.5,
                                   seed=11)
        lo, hi, method, steps = operator_norm_bracket(big)
        assert operator_norm(big) == lo
        assert method == "lanczos" and steps == 1
        assert hi - lo <= opr.NORM_RTOL * hi

    def test_second_call_returns_cached_value(self, base, monkeypatch):
        first = operator_norm(base)

        def recompute(T):
            raise AssertionError("norm recomputed")
        monkeypatch.setattr(opr, "dense_norm", recompute)
        assert operator_norm(base) == first

    def test_scaled_operator_gets_its_own_norm(self, base):
        norm = operator_norm(base)
        assert operator_norm(base.scale(2.0)) == pytest.approx(2 * norm,
                                                               rel=1e-12)
        assert operator_norm(base) == norm

    def test_entries_are_read_only(self, base):
        for arr in (base.rows, base.cols, base.vals):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_active_points_match_union(self, window100, base):
        # shifts leave the first row and the last column empty; a single
        # entry and a window restriction leave most of both empty
        ops = [BandOperator.shift_1d(window100, 1),
               BandOperator.shift_1d(window100, -3),
               small_op(window100, {(3, 7): 1.0}),
               base.window_restrict(range(10, 30), range(28, 40)),
               BandOperator(window100, [], [], [])]
        for T in ops:
            np.testing.assert_array_equal(opr.active_points(T),
                                          np.union1d(T.rows, T.cols))


class TestAlgebra:
    def test_identity_multiply(self, window100):
        T = random_band_operator(window100, 2, 0.5, seed=2)
        I = BandOperator.identity(window100)
        assert (I @ T).entries() == T.entries()

    def test_adjoint_of_shift(self, window100):
        S = BandOperator.shift_1d(window100, 1)
        back = BandOperator.shift_1d(window100, -1)
        assert S.adjoint().entries() == back.entries()

    def test_product_propagation_and_dense_oracle(self, window100):
        T = random_band_operator(window100, 1, 0.8, seed=4)
        S = random_band_operator(window100, 1, 0.8, seed=5)
        P = T @ S
        assert P.propagation <= 2
        np.testing.assert_allclose(P.to_dense(), T.to_dense() @ S.to_dense(),
                                   atol=1e-12)

    def test_space_mismatch(self, window100):
        other = build_grid_space(1, 101, "graph")
        T = BandOperator.identity(window100)
        S = BandOperator.identity(other)
        with pytest.raises(OperatorError):
            T @ S


class TestWindowRestrict:
    def test_full_window_is_identity(self, window100):
        T = random_band_operator(window100, 2, 0.5, seed=6)
        full = set(window100.points)
        assert T.window_restrict(full, full).entries() == T.entries()

    def test_disjoint_rows_zero(self, window100):
        T = small_op(window100, {(0, 1): 1.0, (2, 3): 1.0})
        assert T.window_restrict({50, 51}, set(window100.points)).is_zero()

    def test_block_norm(self):
        sp = build_grid_space(1, 20, "graph")
        block_a = {(x, y): 0.5 for x in range(3) for y in range(3)}
        block_b = {(x, y): 0.25 for x in range(10, 13) for y in range(10, 13)}
        T = small_op(sp, {**block_a, **block_b})
        rest = T.window_restrict(range(3), range(3))
        assert rest.support() == set(block_a)
        assert operator_norm(rest) == pytest.approx(1.5, abs=1e-12)


class TestGhostProfile:
    def test_compactly_supported(self, window100):
        T = small_op(window100, {(0, 1): 1.0, (2, 2): 0.5})
        stages = [set(range(5)), set(range(50)), set(range(100))]
        assert T.ghost_profile(stages) == [0.0, 0.0, 0.0]

    def test_constant_block_profile(self):
        n = 10
        sp = build_grid_space(1, n, "graph")
        T = small_op(sp, {(x, y): 1.0 / n for x in range(n)
                          for y in range(n)})
        stages = [set(range(k)) for k in (2, 5, 9)] + [set(range(n))]
        assert T.ghost_profile(stages) == [1.0 / n] * 3 + [0.0]

    def test_requires_increasing_exhaustion(self, window100):
        T = BandOperator.identity(window100)
        with pytest.raises(OperatorError):
            T.ghost_profile([{0, 1}, {2}, set(window100.points)])

    def test_requires_full_final_stage(self, window100):
        T = BandOperator.identity(window100)
        with pytest.raises(OperatorError):
            T.ghost_profile([{0}, set(range(50))])


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path, window100):
        T = random_band_operator(window100, 3, 0.5, seed=8)
        path = tmp_path / "op.txt"
        T.serialize(path)
        again = BandOperator.deserialize(path)
        assert again.entries() == T.entries()
        assert again.propagation == T.propagation
        assert again.space.descriptor() == window100.descriptor()
