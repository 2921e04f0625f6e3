import numpy as np
import pytest

from roelab import (
    BandOperator,
    DirectionSequence,
    ExpanderError,
    ExpanderFamily,
    build_column_space,
    chebyshev_band_approx,
    constant_projection,
    expander_column_space,
    ghostly_membership,
    random_regular_expander,
    resistance_blocks,
    resistance_check,
    second_eigenvalue,
    vanishing_in_direction,
)
from roelab.expander import _cheb_at, block_profile, chebyshev_degree_for
from roelab.operator import dense_norm, operator_norm
from roelab.space import GraphSpace, build_graph_space


def small_family(sizes=(10, 20, 40), seed=0, lam_max=2.99):
    graphs = tuple(random_regular_expander(n, 3, lam_max, seed=seed + 97 * i)
                   for i, n in enumerate(sizes))
    return ExpanderFamily(graphs=graphs, gap_threshold=lam_max)


class TestRandomRegular:
    def test_complete_graph_gap(self):
        g = random_regular_expander(4, 3, 1.5, seed=0)
        assert g.second_eigenvalue == pytest.approx(1.0, abs=1e-9)

    def test_hundred_vertices_succeeds(self):
        g = random_regular_expander(100, 3, 2.9, seed=0)
        assert g.second_eigenvalue <= 2.9
        assert all(sum(1 for e in g.edges if v in e) == 3
                   for v in range(100))

    def test_parity_rejected(self):
        with pytest.raises(ExpanderError):
            random_regular_expander(5, 3, 2.9)

    def test_retries_exhausted_reports_best(self):
        with pytest.raises(ExpanderError, match="best was"):
            random_regular_expander(20, 3, 0.5, seed=0)

    def test_family_requires_growth(self):
        g = random_regular_expander(10, 3, 2.99, seed=0)
        with pytest.raises(ExpanderError):
            ExpanderFamily(graphs=(g, g), gap_threshold=2.99)


class TestConstantProjection:
    def test_single_pair_block(self):
        sp = build_graph_space([(0, 1)])
        P = constant_projection(sp, [{0, 1}])
        assert all(v == 0.5 for v in P.entries().values())
        np.testing.assert_allclose((P @ P).to_dense(), P.to_dense(),
                                   atol=1e-12)

    def test_two_blocks_norm_one(self):
        sp = build_graph_space([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)],
                               separation_schedule=[4, 4])
        P = constant_projection(sp, [{0, 1}, {2, 3, 4, 5}])
        assert operator_norm(P) == pytest.approx(1.0, abs=1e-12)

    def test_projection_identities(self):
        fam = small_family((10, 20), seed=3)
        col = build_column_space(fam.graphs, 2, [5, 7, 9])
        P = constant_projection(col.space,
                                [pts for _, _, pts in col.blocks])
        np.testing.assert_allclose((P @ P).to_dense(), P.to_dense(),
                                   atol=1e-12)
        np.testing.assert_allclose(P.adjoint().to_dense(), P.to_dense(),
                                   atol=1e-12)

    def test_entries_are_exactly_one_over_block_size(self):
        fam = small_family((10, 20), seed=3)
        col = build_column_space(fam.graphs, 2, [5, 7, 9])
        blocks = [pts for _, _, pts in col.blocks]
        P = constant_projection(col.space, blocks)
        # the triple loop that constant_projection ran before
        rows, cols, vals = [], [], []
        for b in [sorted(b) for b in blocks]:
            for x in b:
                for y in b:
                    rows.append(x)
                    cols.append(y)
                    vals.append(1.0 / len(b))
        ref = BandOperator(col.space, rows, cols, vals)
        for a, b in ((P.rows, ref.rows), (P.cols, ref.cols),
                     (P.vals, ref.vals)):
            assert a.tobytes() == b.tobytes()
        size = {x: len(b) for b in blocks for x in b}
        assert P.nnz == sum(len(b) ** 2 for b in blocks)
        for (x, y), v in P.entries().items():
            assert size[x] == size[y] and v == 1.0 / size[x]

    def test_no_blocks_is_zero(self):
        sp = build_graph_space([(0, 1)])
        assert constant_projection(sp, []).is_zero()

    def test_overlap_rejected(self):
        sp = build_graph_space([(0, 1), (1, 2)])
        with pytest.raises(ExpanderError):
            constant_projection(sp, [{0, 1}, {1, 2}])


class TestChebyshevApprox:
    def test_certified_small_error(self):
        g = random_regular_expander(100, 3, 2.9, seed=1)
        m = chebyshev_degree_for(g.second_eigenvalue / 3, 0.05)
        a, bound = chebyshev_band_approx(g, g.second_eigenvalue, m)
        P = constant_projection(a.space, [range(100)])
        err = dense_norm(a - P)
        assert bound < 0.05
        assert err <= bound
        assert a.propagation <= m

    def test_degree_zero_is_identity(self):
        g = random_regular_expander(20, 3, 2.99, seed=0)
        a, bound = chebyshev_band_approx(g, g.second_eigenvalue, 0)
        assert a.entries() == {(x, x): 1.0 for x in range(20)}
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_complete_graph_exact_at_degree_one(self):
        g = random_regular_expander(4, 3, 1.5, seed=0)
        a, bound = chebyshev_band_approx(g, g.second_eigenvalue, 1)
        P = constant_projection(a.space, [range(4)])
        assert dense_norm(a - P) <= 1e-8
        assert bound <= 1e-8

    def test_bound_decays_with_degree(self):
        g = random_regular_expander(100, 3, 2.9, seed=2)
        bounds = [chebyshev_band_approx(g, g.second_eigenvalue, m)[1]
                  for m in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_no_gap_refused(self):
        g = random_regular_expander(20, 3, 2.99, seed=0)
        with pytest.raises(ExpanderError):
            chebyshev_band_approx(g, 3.0, 4)


def dense_chebyshev_reference(graph, lam_certificate, degree):
    """Reference for `chebyshev_band_approx`: the same polynomial evaluated
    with dense n x n products, its bulk values by cos / cosh.  Returns the
    support (rows, cols), its entries and the bound."""
    n, d = graph.n, graph.degree
    A = np.zeros((n, n))
    for u, v in graph.edges:
        A[u, v] = A[v, u] = 1.0 / d
    b = lam_certificate / d
    bulk = np.sort(np.linalg.eigvalsh(A))[:-1]
    distinct = np.unique(np.round(bulk, 9))
    if degree == 0:
        mat, p_bulk = np.eye(n), np.ones_like(bulk)
    elif distinct.size <= degree:
        denom = float(np.prod(1.0 - distinct))
        mat = np.eye(n) / denom
        for r in distinct:
            mat = mat @ (A - r * np.eye(n))
        p_bulk = np.prod(bulk[:, None] - distinct[None, :], axis=1) / denom
    else:
        M = A / b
        t_prev, t_cur = np.eye(n), M.copy()
        for _ in range(degree - 1):
            t_prev, t_cur = t_cur, 2.0 * (M @ t_cur) - t_prev
        scale = _cheb_at(degree, 1.0 / b)
        mat = t_cur / scale
        y = bulk / b
        inside = np.abs(y) <= 1.0
        p_bulk = np.empty_like(y)
        p_bulk[inside] = np.cos(degree * np.arccos(y[inside]))
        p_bulk[~inside] = np.sign(y[~inside]) ** degree * \
            np.cosh(degree * np.arccosh(np.abs(y[~inside])))
        p_bulk /= scale
    rows, cols = np.nonzero(np.abs(mat) >= 1e-14)
    return (rows, cols), mat[rows, cols], float(np.abs(p_bulk).max()) + 1e-12


class TestChebyshevAgainstDenseReference:
    @pytest.mark.parametrize("n, lam_max, seed, degrees", [
        (20, 2.99, 0, (0,)),
        (4, 1.5, 0, (1,)),            # K4: exact interpolation
        (60, 2.9, 12345, (1, 2, 5, 9)),
        (100, 2.9, 1, (3, 8, 13)),
    ])
    def test_support_entries_and_bound(self, n, lam_max, seed, degrees):
        g = random_regular_expander(n, 3, lam_max, seed=seed)
        for m in degrees:
            a, bound = chebyshev_band_approx(g, g.second_eigenvalue, m)
            (rows, cols), vals, ref_bound = dense_chebyshev_reference(
                g, g.second_eigenvalue, m)
            np.testing.assert_array_equal(a.rows, rows)
            np.testing.assert_array_equal(a.cols, cols)
            np.testing.assert_allclose(a.vals, vals, rtol=0, atol=1e-15)
            assert bound == pytest.approx(ref_bound, rel=0, abs=1e-15)

    def test_adjacency_is_sparse_and_symmetric(self):
        g = random_regular_expander(60, 3, 2.9, seed=12345)
        A = g.adjacency()
        assert A.format == "csr" and A.nnz == 2 * len(g.edges) == 180
        dense = A.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert all(dense[u, v] == 1.0 for u, v in g.edges)


class TestColumnSpace:
    def test_single_block_trivially_not_ghost(self):
        fam = small_family((10,), seed=1)
        col, P, ideal = expander_column_space(fam, 1, [5])
        profile = P.ghost_profile([set(col.space.points)])
        assert profile == [0.0]
        assert P.sup_entry_norm() == pytest.approx(0.1, abs=1e-12)

    def test_three_column_pipeline_facts(self):
        fam = small_family((10, 20, 40), seed=0)
        sep = [20.0 * (k + 1) for k in range(7)]
        col, P, ideal = expander_column_space(fam, 5, sep)
        sp = col.space

        # ghostly for the column family
        ok, failing = ghostly_membership(P, ideal, k_cap=10)
        assert ok, failing

        # fixed-i (copy-prefix) exhaustions keep the profile at 1/10
        stages = [{p for _, j, pts in col.blocks if j <= js for p in pts}
                  for js in range(1, 6)]
        profile = P.ghost_profile(stages)
        assert min(profile[:-1]) >= 0.1
        assert profile[-1] == 0.0

        # vanishes across columns
        pts = []
        for i, j in ((1, 1), (2, 2), (3, 3), (3, 4), (3, 5)):
            blk = col.block_points(i, j)
            pts.append(blk[len(blk) // 2])
        seq = DirectionSequence(tuple(pts)).validate(sp)
        assert vanishing_in_direction(P, seq, window_radius=2, tail=3,
                                      eps=1.5 / 20)

        # does not vanish along a fixed column
        pts_j = tuple(col.block_points(1, j)[5] for j in range(1, 6))
        seq_j = DirectionSequence(pts_j).validate(sp)
        assert not vanishing_in_direction(P, seq_j, window_radius=2,
                                          tail=3, eps=0.1)

    def test_schedule_validation(self):
        fam = small_family((10, 20), seed=2)
        with pytest.raises(ExpanderError):
            build_column_space(fam.graphs, 3, [5, 7])
        with pytest.raises(ExpanderError):
            build_column_space(fam.graphs, 2, [5, 5, 5])


class TestResistanceBlocks:
    def test_small_pipeline_certifies(self):
        fam = small_family((60, 120), seed=5, lam_max=2.9)
        space, blocks, kappa = resistance_blocks(fam, 0.5, [2, 3])
        assert kappa <= 0.5
        for op, pts in blocks:
            assert operator_norm(op) == pytest.approx(1.0, abs=0.05)
            assert set(int(r) for r in op.rows) <= set(pts)
        ok, _ = resistance_check(blocks, 0.5, [2, 3])
        assert ok

    def test_single_block_degenerate(self):
        fam = small_family((60,), seed=6, lam_max=2.9)
        space, blocks, kappa = resistance_blocks(fam, 0.6, [2])
        assert len(blocks) == 1 and kappa <= 0.6

    @pytest.mark.parametrize("separation", [None, [0.8, 0.9]])
    def test_block_ball_sizes_match_own_space(self, monkeypatch,
                                              separation):
        # outposts 0.8 and 0.9 keep the blocks 1.7 apart: beyond the
        # largest window radius S / 2 = 1.5, but within radius 2, where
        # every ambient ball also holds the other block, which the profile
        # must leave out; stacks of 1000 entries hold 5 rows of the
        # 180-point space
        fam = small_family((60, 120), seed=5, lam_max=2.9)
        space, blocks, _ = resistance_blocks(fam, 0.5, [2, 3])
        monkeypatch.setattr("roelab.space.WINDOW_BATCH_ELEMENTS", 1000)
        if separation is not None:
            g, h = fam.graphs
            space = GraphSpace(list(g.edges) + [(u + g.n, v + g.n)
                                                for u, v in h.edges],
                               n=g.n + h.n, separation_schedule=separation)
            assert len(space.ball(0, 2)) > 120
        for g, (_, pts) in zip(fam.graphs, blocks):
            for r in (1, 2):
                own = GraphSpace(g.edges, n=g.n).geometry_profile(r)
                assert block_profile(space, pts, r) == own

    def test_growth_condition_enforced(self):
        fam = small_family((10, 20), seed=7)
        with pytest.raises(ExpanderError):
            resistance_blocks(fam, 0.1, [2, 3])


def test_second_eigenvalue_of_cycle():
    # 5-cycle spectrum is {2, 2cos(72deg), 2cos(144deg)}; the largest
    # non-trivial modulus is the golden ratio
    A = np.zeros((5, 5))
    for i in range(5):
        A[i, (i + 1) % 5] = A[(i + 1) % 5, i] = 1
    assert second_eigenvalue(A, 2) == pytest.approx((1 + np.sqrt(5)) / 2,
                                                    abs=1e-9)
