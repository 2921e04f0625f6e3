import numpy as np
import pytest

import roelab.operator as opr
from roelab import (
    BandOperator,
    OperatorError,
    build_graph_space,
    build_grid_space,
    dense_norm,
    is_ghost_at,
    operator_norm,
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

    def test_immutable(self, window100):
        T = BandOperator.identity(window100)
        with pytest.raises(AttributeError):
            T.propagation = 5

    def test_identity(self, window100):
        I = BandOperator.identity(window100)
        assert I.nnz == 100
        assert I.propagation == 0


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
            assert power_iteration_norm(T, tol=1e-10) == \
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
        assert is_ghost_at(T.ghost_profile(stages), 0.2, 0)
        assert not is_ghost_at(T.ghost_profile(stages), 0.05, 0)

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
