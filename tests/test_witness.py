import numpy as np
import pytest

from roelab import (
    BandOperator,
    Kernel,
    WitnessError,
    averaging_witness_grid,
    build_graph_space,
    build_grid_space,
    check_partition_witness,
    check_positive_type,
    delta_witness,
    kernel_from_witness,
    localization_constant,
    resistance_check,
)
import roelab.witness as witness
from roelab.cli import random_band_operator
from roelab.expander import (
    chebyshev_band_approx,
    constant_projection,
    random_regular_expander,
)
from roelab.operator import operator_norm
from roelab.witness import (
    WINDOW_TIE_RTOL,
    candidate_windows,
    default_margin,
    l1_difference,
)


@pytest.fixture
def window():
    return build_grid_space(1, 80, "graph")


class TestWitnessVariation:
    def test_delta_witness_worst_case(self, window):
        w = delta_witness(window, range(window.n))
        variation, pair = check_partition_witness(window, w, 1)
        assert variation == 2.0

    def test_averaging_closed_form(self, window):
        for S in (1, 3, 5, 10):
            margin = default_margin(window, S)
            D = sorted(set(window.points) - set(margin))
            w = averaging_witness_grid(window, D, S)
            for R in (1, 2, 3):
                variation, _ = check_partition_witness(window, w, R)
                assert variation == pytest.approx(2 * R / (2 * S + 1),
                                                  abs=1e-12)

    def test_averaging_closed_form_2d_sup(self):
        sp = build_grid_space(2, 21, "sup")
        for S in (1, 2, 4):
            margin = default_margin(sp, S)
            D = sorted(set(sp.points) - set(margin))
            w = averaging_witness_grid(sp, D, S)
            # axis-aligned unit step: boxes overlap in all but one slab
            x = sp.point_id((10, 10))
            y = sp.point_id((10, 11))
            assert l1_difference(w.vectors[x], w.vectors[y]) == \
                pytest.approx(2.0 / (2 * S + 1), abs=1e-12)
            # the sup-metric worst pair at distance 1 is the diagonal step
            variation, _ = check_partition_witness(sp, w, 1)
            assert variation == pytest.approx(
                2.0 * (4 * S + 1) / (2 * S + 1) ** 2, abs=1e-12)

    def test_restricted_domain_only_pairs_inside(self, window):
        # variation measured only over domain pairs: excising one side of a
        # worst pair removes its contribution
        D = [x for x in range(20, 60) if x != 40]
        w = averaging_witness_grid(window, D, 2)
        variation, pair = check_partition_witness(window, w, 1)
        assert set(pair) <= set(D)

    def test_validation_rejects_bad_mass(self, window):
        from roelab import WitnessFunction
        bad = WitnessFunction((0,), {0: {0: 0.7}}, 1)
        with pytest.raises(WitnessError):
            bad.validate(window)


class TestKernel:
    def test_delta_gives_identity_kernel(self, window):
        k = kernel_from_witness(delta_witness(window, range(10)))
        np.testing.assert_allclose(k.matrix, np.eye(10), atol=1e-12)

    def test_averaging_gives_triangular_kernel(self, window):
        S = 4
        D = list(range(20, 60))
        k = kernel_from_witness(averaging_witness_grid(window, D, S))
        for i, x in enumerate(D):
            for j, y in enumerate(D):
                expect = max(0.0, 1.0 - abs(x - y) / (2 * S + 1))
                assert k.matrix[i, j] == pytest.approx(expect, abs=1e-12)

    def test_kernel_vanishes_beyond_twice_radius(self, window):
        S = 3
        D = list(range(10, 70))
        k = kernel_from_witness(averaging_witness_grid(window, D, S))
        for i, x in enumerate(D):
            for j, y in enumerate(D):
                if abs(x - y) > 2 * S:
                    assert k.matrix[i, j] == 0.0

    def test_gram_kernels_always_positive_type(self, window):
        rng = np.random.default_rng(0)
        from roelab import WitnessFunction
        for _ in range(5):
            vectors = {}
            D = sorted(rng.choice(80, size=15, replace=False).tolist())
            for x in D:
                ball = window.ball(x, 3)
                raw = rng.random(len(ball))
                raw /= raw.sum()
                vectors[x] = dict(zip(ball, raw))
            w = WitnessFunction(tuple(D), vectors, 3).validate(window)
            k = kernel_from_witness(w)
            assert check_positive_type(k, [k.points])


class TestPositiveType:
    def test_identity_kernel(self):
        k = Kernel(tuple(range(5)), np.eye(5))
        assert check_positive_type(k, [range(5)])

    def test_all_ones_kernel(self):
        k = Kernel(tuple(range(5)), np.ones((5, 5)))
        assert check_positive_type(k, [range(5)])

    def test_fejer_type_kernel(self, window):
        for S in (3, 8, 15):
            pts = tuple(window.points)
            mat = np.maximum(
                0.0, 1.0 - np.abs(np.subtract.outer(pts, pts)) / S)
            assert check_positive_type(Kernel(pts, mat), [pts])

    def test_detects_indefinite(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert not check_positive_type(Kernel((0, 1), mat), [(0, 1)])


class TestLocalization:
    def test_identity_is_fully_local(self, window):
        I = BandOperator.identity(window)
        for S in (0, 1, 5):
            rep = localization_constant(I, S)
            assert rep.best_constant == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_S(self, window):
        A = BandOperator.adjacency(window)
        values = [localization_constant(A, S).best_constant
                  for S in (2, 5, 10, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_full_diameter_window_reaches_one(self):
        sp = build_grid_space(1, 30, "graph")
        A = BandOperator.adjacency(sp)
        rep = localization_constant(A, sp.diameter(), margin=frozenset())
        assert rep.best_constant == pytest.approx(1.0, abs=1e-12)

    def test_window_adjacency_matches_path_eigenvalue(self):
        sp = build_grid_space(1, 120, "graph")
        A = BandOperator.adjacency(sp, normalize=True)
        for S in (2, 7, 20):
            rep = localization_constant(A, S)
            assert rep.window_norm == pytest.approx(
                np.cos(np.pi / (S + 2)), abs=1e-9)

    def test_tie_break_lowest_center(self, window):
        A = BandOperator.adjacency(window)
        rep = localization_constant(A, 4)
        assert rep.witness_center == min(
            c for c, _ in candidate_windows(window, 4,
                                            default_margin(window, 4)))

    def test_projection_cauchy_schwarz_bound(self):
        g = random_regular_expander(60, 3, 2.9, seed=2)
        sp = build_graph_space(g.edges)
        P = constant_projection(sp, [range(60)])
        for S in (2, 4):
            rep = localization_constant(P, S, margin=frozenset(),
                                        mode="column")
            limit = np.sqrt(sp.geometry_profile(S / 2.0) / 60)
            assert rep.best_constant <= limit + 1e-9

    def test_zero_operator_rejected(self, window):
        Z = BandOperator(window, [], [], [])
        with pytest.raises(WitnessError):
            localization_constant(Z, 3)


def brute_force_localization(T, S, margin, mode):
    """The per-window reference: one full SVD (or eigh of the Gram block)
    per candidate window, in center order, then the first window that ties
    with the largest norm."""
    dense = T.to_dense()
    gram = (T.adjoint() @ T).to_dense()
    windows = [(c, w) for c, w in candidate_windows(T.space, S, margin) if w]
    norms = []
    for _, window in windows:
        w = np.asarray(window)
        if mode == "two_sided":
            norms.append(float(np.linalg.svd(dense[np.ix_(w, w)])[1][0]))
        else:
            evals = np.linalg.eigh(gram[np.ix_(w, w)])[0]
            norms.append(float(np.sqrt(max(evals[-1], 0.0))))
    top = max(norms)
    best = next(i for i, v in enumerate(norms)
                if v >= top * (1 - WINDOW_TIE_RTOL))
    center, window = windows[best]
    return center, window, top / operator_norm(T)


def assert_matches_brute_force(T, S, margin=None, mode="two_sided"):
    if margin is None:
        margin = default_margin(T.space, S)
    rep = localization_constant(T, S, margin=margin, mode=mode)
    center, window, constant = brute_force_localization(T, S, margin, mode)
    assert rep.witness_center == center
    assert rep.witness_window == window
    assert rep.best_constant == pytest.approx(constant, abs=1e-12)
    # the witness vector lives in the window and attains the window norm
    pos = {p: i for i, p in enumerate(window)}
    v = np.zeros(len(window), dtype=complex)
    for p, value in rep.witness_vector.items():
        v[pos[p]] = value
    w = np.asarray(window)
    image = (T.to_dense()[np.ix_(w, w)] @ v if mode == "two_sided"
             else T.to_dense()[:, w] @ v)
    assert np.linalg.norm(image) == pytest.approx(
        rep.window_norm * np.linalg.norm(v), rel=1e-9)


class TestWindowEngine:
    """The batched engine against the per-window loop it replaced."""

    def test_path_without_margin_repeats_clamped_windows(self):
        sp = build_grid_space(1, 60, "graph")
        A = BandOperator.adjacency(sp, normalize=True)
        R = random_band_operator(sp, 3, 0.6, seed=4)
        for S in (1, 3, 8, 59, 70):
            windows = [w for _, w in candidate_windows(sp, S, frozenset())]
            assert len(set(windows)) < len(windows)
            for T in (A, R):
                assert_matches_brute_force(T, S, margin=frozenset())

    @pytest.mark.parametrize("metric", ["sup", "graph", "euclidean-rounded"])
    def test_grids_with_mixed_window_sizes(self, metric):
        sp = build_grid_space(2, 13, metric)
        A = BandOperator.adjacency(sp, normalize=True)
        R = random_band_operator(sp, 2, 0.5, seed=3)
        for S in (2, 3, 5):
            sizes = {len(w) for _, w in candidate_windows(sp, S, frozenset())}
            assert len(sizes) > 1
            for T in (A, R):
                for margin in (None, frozenset()):
                    assert_matches_brute_force(T, S, margin=margin)
                    assert_matches_brute_force(T, S, margin=margin,
                                               mode="column")

    def test_complex_non_hermitian_random_operator(self):
        sp = build_grid_space(2, 12, "sup")
        T = random_band_operator(sp, 2, 0.5, seed=8)
        assert T.vals.imag.any()
        assert not np.allclose(T.to_dense(), T.to_dense().conj().T)
        for S in (2, 3, 5):
            assert_matches_brute_force(T, S)
            assert_matches_brute_force(T, S, mode="column")

    def test_expander_block_column_mode(self):
        g = random_regular_expander(60, 3, 2.9, seed=2)
        sp = build_graph_space(g.edges)
        cheb, _ = chebyshev_band_approx(g, g.second_eigenvalue, 3)
        R = random_band_operator(sp, 2, 0.5, seed=5)
        for S in (2, 3, 4):
            for T in (cheb, R):
                assert_matches_brute_force(T, S, margin=frozenset(),
                                           mode="column")
                assert_matches_brute_force(T, S, margin=frozenset())

    def test_sparse_gather_matches_dense(self, monkeypatch):
        # above DENSE_WINDOW_CUTOFF points blocks come from the sorted
        # coordinate entries instead of a dense matrix
        sp = build_grid_space(2, 12, "sup")
        ops = (BandOperator.adjacency(sp, normalize=True),
               random_band_operator(sp, 2, 0.5, seed=6))
        dense = [localization_constant(T, S, mode=mode)
                 for T in ops for S in (2, 4) for mode in ("two_sided",
                                                           "column")]
        monkeypatch.setattr(witness, "DENSE_WINDOW_CUTOFF", 0)
        sparse = [localization_constant(T, S, mode=mode)
                  for T in ops for S in (2, 4) for mode in ("two_sided",
                                                            "column")]
        for a, b in zip(dense, sparse):
            assert (a.witness_center, a.witness_window) == \
                (b.witness_center, b.witness_window)
            assert a.best_constant == pytest.approx(b.best_constant,
                                                    abs=1e-12)

    @pytest.mark.parametrize("metric", ["sup", "graph", "euclidean-rounded"])
    def test_grid_windows_are_balls(self, metric):
        for dims, side in ((2, 11), (3, 5)):
            sp = build_grid_space(dims, side, metric)
            for S in (0, 1, 2, 5, 6):
                for margin in (default_margin(sp, S), frozenset()):
                    windows = candidate_windows(sp, S, margin)
                    assert [c for c, _ in windows] == \
                        [c for c in sp.points if c not in margin]
                    for c, window in windows:
                        assert window == tuple(sp.ball(c, S / 2))

    def test_default_margin_matches_coordinates(self):
        sp = build_grid_space(2, 9, "graph")
        for S in (0, 1, 3, 5):
            expect = {x for x in sp.points
                      if any(v < S or v >= sp.side - S for v in sp.coords(x))}
            assert default_margin(sp, S) == expect


class TestResistanceCheck:
    def test_all_zero_blocks_vacuous(self, window):
        Z = BandOperator(window, [], [], [])
        ok, details = resistance_check([(Z, {0, 1}), (Z, {2, 3})],
                                       kappa=0.01, S_schedule=[1, 2])
        assert ok

    def test_identity_blocks_fail_below_one(self, window):
        blocks = []
        for lo in (0, 40):
            pts = range(lo, lo + 10)
            op = BandOperator.from_entries(window,
                                           {(x, x): 1.0 for x in pts})
            blocks.append((op, set(pts)))
        ok, details = resistance_check(blocks, kappa=0.9, S_schedule=[1, 2])
        assert not ok
        assert all(d["constant"] == pytest.approx(1.0, abs=1e-12)
                   for d in details)

    def test_overlap_rejected(self, window):
        I = BandOperator.identity(window)
        with pytest.raises(WitnessError):
            resistance_check([(I, {0, 1}), (I, {1, 2})], 0.5, [1, 2])

    def test_schedule_must_increase(self, window):
        I = BandOperator.identity(window)
        with pytest.raises(WitnessError):
            resistance_check([(I, {0}), (I, {1})], 0.5, [2, 2])


def test_l1_difference():
    assert l1_difference({0: 0.5, 1: 0.5}, {1: 0.5, 2: 0.5}) == 1.0
