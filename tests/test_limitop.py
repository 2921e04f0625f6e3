import numpy as np
import pytest

from roelab import (
    BandOperator,
    DirectionError,
    DirectionSequence,
    NoEmpiricalLimit,
    build_disjoint_translates,
    build_grid_space,
    cross_validate_ghostly,
    empirical_limit_operator,
    finite_sets_family,
    sparsity_certificate,
    spatial_ideal,
    translate_intersection,
    vanishing_in_direction,
)


@pytest.fixture
def line():
    return build_grid_space(1, 4000, "graph")


@pytest.fixture
def powers(line):
    return DirectionSequence.from_name("powers:2", line.n).validate(line)


def laurent(space, coeffs):
    """Operator constant along diagonals: coeffs maps offset -> value."""
    entries = {}
    for off, v in coeffs.items():
        for x in space.points:
            if 0 <= x + off < space.n:
                entries[(x + off, x)] = v
    return BandOperator.from_entries(space, entries)


class TestDirectionSequence:
    def test_needs_two_points(self):
        with pytest.raises(DirectionError):
            DirectionSequence((5,))

    def test_must_escape(self, line):
        with pytest.raises(DirectionError):
            DirectionSequence((10, 5, 20)).validate(line)

    def test_named_generators(self, line):
        sq = DirectionSequence.from_name("squares", 100)
        assert sq.points == tuple(k * k for k in range(1, 11))
        po = DirectionSequence.from_name("powers:3", 100)
        assert po.points == (3, 9, 27, 81)
        af = DirectionSequence.from_name("affine:7,3", 40)
        assert af.points == (3, 10, 17, 24, 31, 38)

    @pytest.mark.parametrize("name, message", [
        ("powers:1", "at least 2"), ("powers:0", "at least 2"),
        ("powers:-1", "at least 2"), ("powers:", "malformed"),
        ("powers:x", "malformed"), ("affine:1", "malformed"),
        ("cubes", "unknown"),
    ])
    def test_bad_names_rejected(self, name, message):
        with pytest.raises(DirectionError, match=message):
            DirectionSequence.from_name(name, 100)

    @pytest.mark.parametrize("points", [(-90, 20, 40), (10, 20, 150)])
    def test_ids_outside_the_space_rejected(self, points):
        # -90 would wrap around to point 10 of the 100-point path
        with pytest.raises(DirectionError, match=r"0\.\.99"):
            DirectionSequence(points).validate(
                build_grid_space(1, 100, "graph"))


class TestEmpiricalLimit:
    def test_laurent_reproduces_symbol(self, line, powers):
        T = laurent(line, {-1: 0.5, 0: 1.0, 2: 0.25j})
        limit, diag = empirical_limit_operator(T, powers, window_radius=5,
                                               tail=4)
        assert diag["max_oscillation"] == 0.0
        w = 5
        for i in range(-w, w + 1):
            for j in range(-w, w + 1):
                expect = {-1: 0.5, 0: 1.0, 2: 0.25j}.get(i - j, 0.0)
                assert limit.entry(i + w, j + w) == expect

    def test_block_planted_recovers_block(self, line):
        block = {(0, 0): 1.0, (1, 0): 0.5, (0, 2): -0.25}
        anchors = (512, 1024, 2048, 3000)
        entries = {}
        for h in anchors:
            for (i, j), v in block.items():
                entries[(h + i, h + j)] = v
        T = BandOperator.from_entries(line, entries)
        seq = DirectionSequence(anchors).validate(line)
        limit, diag = empirical_limit_operator(T, seq, window_radius=4,
                                               tail=3)
        assert diag["max_oscillation"] == 0.0
        assert limit.entries() == {(i + 4, j + 4): v
                                   for (i, j), v in block.items()}

    def test_unilateral_shift_becomes_bilateral(self, line, powers):
        S = BandOperator.shift_1d(line, 1)
        limit, diag = empirical_limit_operator(S, powers, window_radius=6,
                                               tail=5)
        assert diag["max_oscillation"] == 0.0
        w = 6
        expect = {(i + 1 + w, i + w): 1.0 for i in range(-w, w)}
        assert limit.entries() == expect

    def test_oscillation_raises(self, line, powers):
        # diagonal alternating by parity of log2 h: no stabilized value
        entries = {h: 1.0 if k % 2 == 0 else -1.0
                   for k, h in enumerate(powers.points)}
        T = BandOperator.from_entries(line,
                                      {(h, h): v for h, v in entries.items()})
        with pytest.raises(NoEmpiricalLimit) as err:
            empirical_limit_operator(T, powers, window_radius=2, tail=4)
        assert (0, 0) in err.value.offenders

    def test_limit_commutes_with_adjoint(self, line, powers):
        T = laurent(line, {-2: 0.3, 1: 0.7 - 0.1j})
        lim_T, _ = empirical_limit_operator(T, powers, window_radius=4,
                                            tail=4)
        lim_Tadj, _ = empirical_limit_operator(T.adjoint(), powers,
                                               window_radius=4, tail=4)
        assert lim_Tadj.entries() == lim_T.adjoint().entries()

    def test_limit_of_product_on_laurent_pair(self, line, powers):
        T = laurent(line, {1: 0.5, 0: 0.2})
        S = laurent(line, {-1: 0.4, 0: 0.1})
        lim_prod, _ = empirical_limit_operator(T @ S, powers,
                                               window_radius=4, tail=4)
        lim_T, _ = empirical_limit_operator(T, powers, window_radius=4,
                                            tail=4)
        lim_S, _ = empirical_limit_operator(S, powers, window_radius=4,
                                            tail=4)
        prod = lim_T @ lim_S
        for (x, y), v in lim_prod.entries().items():
            # interior offsets of the product window agree exactly
            if 1 <= x <= 7 and 1 <= y <= 7:
                assert prod.entry(x, y) == pytest.approx(v, abs=1e-12)

    def test_limit_propagation_bounded(self, line, powers):
        T = laurent(line, {3: 1.0, -2: 1.0})
        limit, _ = empirical_limit_operator(T, powers, window_radius=5,
                                            tail=4)
        assert limit.propagation <= T.propagation

    def test_tail_too_close_to_boundary(self, line):
        seq = DirectionSequence((3990, 3995, 3999)).validate(line)
        T = BandOperator.identity(line)
        with pytest.raises(DirectionError):
            empirical_limit_operator(T, seq, window_radius=10, tail=2)


class TestVanishing:
    def test_compactly_supported_vanishes(self, line, powers):
        T = BandOperator.from_entries(line, {(0, 1): 5.0, (3, 3): 2.0})
        assert vanishing_in_direction(T, powers, window_radius=5, tail=4)

    def test_constant_diagonal_does_not_vanish(self, line, powers):
        T = BandOperator.identity(line)
        assert not vanishing_in_direction(T, powers, window_radius=5, tail=4)

    def test_threshold_is_closed(self, line, powers):
        eps = 2.0 ** -6
        T = BandOperator.from_entries(
            line, {(h, h): eps for h in powers.points})
        # entries exactly at eps are visible (closed inequality)
        assert not vanishing_in_direction(T, powers, window_radius=2,
                                          tail=4, eps=eps)


class TestCrossValidation:
    def test_compact_operator_agrees_true(self, line, powers):
        fam = finite_sets_family(line, [0, 5], max_union=2)
        T = BandOperator.from_entries(line, {(0, 0): 1.0, (5, 6): 0.5})
        report = cross_validate_ghostly(T, fam, [powers], k_cap=3)
        assert report["ghostly"] and report["vanishes_in_all_directions"]
        assert report["agree"]

    def test_identity_agrees_false(self, line, powers):
        fam = finite_sets_family(line, [0, 5], max_union=2)
        I = BandOperator.identity(line)
        report = cross_validate_ghostly(I, fam, [powers], k_cap=3)
        assert not report["ghostly"]
        assert report["failing_eps"] == 0.5
        assert not report["vanishes_in_all_directions"]
        assert report["agree"]

    def test_sequence_must_escape_family(self, line):
        fam = spatial_ideal(line, set(range(100)))
        seq = DirectionSequence((50, 90, 1000, 2000)).validate(line)
        T = BandOperator.identity(line)
        with pytest.raises(DirectionError):
            cross_validate_ghostly(T, fam, [seq], k_cap=5, tail=4)


class TestTranslateCombinatorics:
    def test_squares_small_intersections(self):
        H = {k * k for k in range(1001)}
        assert translate_intersection(H, 1, 10 ** 6) == {1}
        assert translate_intersection(H, 0, 10 ** 6) == H

    def test_powers_of_two(self):
        H = {2 ** k for k in range(20)}
        assert translate_intersection(H, 2, 2 ** 20) == {4}

    def test_bound_enforced(self):
        with pytest.raises(DirectionError):
            translate_intersection({5, 200}, 1, 100)
        with pytest.raises(DirectionError, match="escapes the stated bound"):
            build_disjoint_translates({5, 200}, 1, 100)

    def test_sparsity_certificate(self):
        assert sparsity_certificate({k * k for k in range(100)})
        assert sparsity_certificate({2 ** k for k in range(15)})
        assert not sparsity_certificate({0, 10, 11, 30})

    def test_disjoint_translates_squares(self):
        H = {k * k for k in range(1001)}
        pairs = build_disjoint_translates(H, 10, 10 ** 6)
        assert pairs[0] == (0, frozenset(H))
        assert pairs[1] == (1, frozenset(H - {h - 1 for h in H}))
        assert len(pairs) == 11

    def test_powers_removed_counts(self):
        H = {2 ** k for k in range(20)}
        pairs = build_disjoint_translates(H, 8, 2 ** 20)
        for n, B in pairs:
            assert len(H - set(B)) <= max(n, 0)

    def test_refuses_uncertified_sets(self):
        with pytest.raises(DirectionError):
            build_disjoint_translates({0, 10, 11, 30}, 2, 100)
