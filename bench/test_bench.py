"""Tests of the benchmark's own checks, loop and tracer.

Each check must pass the program's genuine output and reject a planted
wrong answer.  Run with `python -m pytest bench` from the repository root.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import harness
import roelab.cli as cli
import roelab.operator as opr
import roelab.witness as wt
import tracer as tracing
import workloads
from workloads import Band, Certify, Ghost, Sweep

SEED = 7


@pytest.fixture(scope="module")
def sweep():
    w = Sweep()
    return w, w.build(w.draw(SEED))


def _sweep_item(state, key, S):
    return state.items.index((key, S))


def test_sweep_genuine_output_passes(sweep):
    w, state = sweep
    cache = {}
    outputs = {}
    for key, S in (("path", 4), ("path", 6), ("grid", 3), ("random", 3)):
        i = _sweep_item(state, key, S)
        outputs[i] = w.run_item(state, i)
        assert w.check_item(state, i, outputs[i], cache) == []
    assert w.check_round(state, outputs) == []


def test_sweep_rejects_norm_off_by_1e6(sweep):
    w, state = sweep
    for key in ("path", "random"):
        i = _sweep_item(state, key, 2)
        rep = w.run_item(state, i)
        norm = rep.operator_norm * (1 + 1e-6)
        bad = dataclasses.replace(rep, operator_norm=norm,
                                  best_constant=rep.window_norm / norm)
        problems = w.check_item(state, i, bad, {})
        assert any("numpy's SVD" in p for p in problems), problems


def test_sweep_rejects_window_norm_from_wrong_window(sweep):
    w, state = sweep
    i = _sweep_item(state, "random", 4)
    rep = w.run_item(state, i)
    space = state.data["ops"]["random"].space
    others = [c for c in space.points if c != rep.witness_center
              and tuple(space.ball(c, 2)) != rep.witness_window
              and len(space.ball(c, 2)) == len(rep.witness_window)]
    wrong = tuple(space.ball(others[len(others) // 2], 2))
    bad = dataclasses.replace(rep, witness_window=wrong)
    problems = w.check_item(state, i, bad, {})
    assert any("block of the reported window" in p for p in problems)


def test_sweep_rejects_decreasing_path_norms(sweep):
    w, state = sweep
    i, j = _sweep_item(state, "path", 4), _sweep_item(state, "path", 6)
    a, b = w.run_item(state, i), w.run_item(state, j)
    assert w.check_round(state, {i: b, j: a})


@pytest.fixture(scope="module")
def ghost():
    w = Ghost()
    return w, w.build(w.draw(SEED))


def test_ghost_rejects_flipped_verdict(ghost):
    w, state = ghost
    for i in range(4):  # the three-column family, one item of each kind
        report = w.run_item(state, i)
        assert w.check_item(state, i, report, {}) == []
        flipped = dict(report, ghostly=not report["ghostly"])
        assert w.check_item(state, i, flipped, {})
        both = dict(flipped, vanishes_in_all_directions=flipped["ghostly"])
        assert w.check_item(state, i, both, {})


def test_ghost_plants_both_verdicts(ghost):
    _, state = ghost
    truths = [item[4] for item in state.items]
    assert True in truths and False in truths


@pytest.fixture(scope="module")
def band():
    w = Band()
    state = w.build(w.draw(SEED))
    i = next(k for k, item in enumerate(state.items) if item[0] == "grid")
    return w, state, i, w.run_item(state, i)


def test_band_genuine_output_passes(band):
    w, state, i, out = band
    assert w.check_item(state, i, out, {}) == []


def test_band_rejects_truncated_support_missing_a_pair(band):
    w, state, i, out = band
    T, truncated = out[0], out[1]
    short = opr.BandOperator(T.space, truncated.rows[1:], truncated.cols[1:],
                             truncated.vals[1:])
    problems = w.check_item(state, i, (T, short) + out[2:], {})
    assert any("1 pairs missing" in p for p in problems), problems


def test_band_rejects_norm_off_by_1e6(band):
    w, state, i, out = band
    bad = out[:3] + (out[3] * (1 + 1e-6),) + out[4:]
    problems = w.check_item(state, i, bad, {})
    assert any("numpy's SVD" in p for p in problems), problems


def test_band_rejects_wrong_profile_and_offenders(band):
    w, state, i, out = band
    profile, outcome = out[4], out[5]
    bad_profile = [profile[0] * (1 + 1e-12)] + list(profile[1:])
    assert w.check_item(state, i, out[:4] + (bad_profile, outcome), {})
    kind, payload = outcome
    assert kind == "offenders"
    fewer = ("offenders", set(sorted(payload)[1:]))
    assert w.check_item(state, i, out[:5] + (fewer,), {})


def test_band_redraws_operators_without_a_spectral_gap():
    # s2/s1 = 0.99981: power_iteration_norm raises NormConvergenceError
    grid = wt.GridSpace(*Band.GRIDS["grid"])
    T = cli.random_band_operator(grid, Band.PROPAGATION, 0.152692502235424,
                                 1951822153)
    assert not workloads._power_iteration_converges(T)
    _, items = Band().draw(2)
    assert (0.152692502235424, 1951822153) not in [i[1:3] for i in items]


def test_certificate_oracles():
    # Petersen graph: 3-regular, spectrum {3, 1, -2}
    petersen = [(i, (i + 1) % 5) for i in range(5)] + \
        [(i, i + 5) for i in range(5)] + \
        [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert checks.second_eigenvalue_of(10, 3, petersen) == pytest.approx(2.0)
    n = 8
    exact = np.full((n, n), 1.0 / n)
    assert checks.check_blocks([(exact, n)], [2.0]) == []
    off = exact.copy()
    off[0, 0] += 0.06
    assert checks.check_blocks([(off, n)], [2.0])
    assert checks.check_blocks([(exact, n)], [2.95])
    assert checks.check_certificate_values(0.25, 1.0) == []
    assert checks.check_certificate_values(0.31, 1.0)
    assert checks.check_certificate_values(0.25, 0.89)


class _Flaky:
    """Seven items a round; items 2 and 5 raise, item 6 answers wrongly."""

    name = "flaky"
    tail_pct = 90

    def draw(self, seed):
        return seed

    def build(self, seed):
        return SimpleNamespace(items=list(range(7)))

    def run_item(self, state, index):
        if index in (2, 5):
            raise ValueError("planted failure")
        return index + (1 if index == 6 else 0)

    def check_item(self, state, index, out, cache):
        return [] if out == index else [f"{out} != {index}"]

    def check_round(self, state, outputs):
        return []


def test_attempted_and_failed_counts():
    result = harness.measure(_Flaky(), 0, seconds=1e-6)
    rounds = result["rounds"]
    assert harness.min_items(90) == 100
    assert rounds == 1 + -(-100 // 7)  # a warm-up round, then 100 items
    assert result["attempted"] == 7 * rounds
    assert result["failed"] == 2 * rounds
    assert len(result["problems"]) == min(rounds, harness.MAX_PROBLEMS)
    assert all("7 != 6" in p for p in result["problems"])
    # timings read each item at its slowest round; failed items have none
    slowest = [max(v) for v in result["item_ms_rounds_by_index"] if v]
    assert len(slowest) == 5
    assert result["metrics"]["wall_s"] == pytest.approx(sum(slowest) / 1e3)
    assert result["metrics"]["item_p50_ms"] == sorted(slowest)[2]


def test_tracer_wraps_every_binding_and_restores_them():
    original = opr.operator_norm
    assert wt.operator_norm is original
    A = opr.BandOperator.adjacency(wt.GridSpace(1, 40, "graph"),
                                   normalize=True)
    t = tracing.Tracer()
    t.install()
    try:
        assert wt.operator_norm is not original
        assert opr.operator_norm is wt.operator_norm
        wt.localization_constant(A, 4)
    finally:
        t.uninstall()
    assert wt.operator_norm is original and opr.operator_norm is original
    assert t.counts["witness.localization_constant.calls"] == 1
    assert t.counts["operator.operator_norm.calls"] == 1
    assert t.counts["operator.dense_norm.calls"] == 1
    assert t.counts["operator.to_dense.calls"] == 1
    # 40 points less the 4 + 4 margin points within S of an end
    assert t.counts["witness.windows"] == 32
    # self times exclude nested spans and add up to the outer span
    assert t.names[t.span_name[0]] == "witness.localization_constant"
    assert t.span_parent[0] == -1 and min(t.span_parent[1:]) >= 0
    total = t.span_end[0] - t.span_start[0]
    inner = sum(t.self_s[n] for n in t.self_s)
    assert inner == pytest.approx(total, rel=1e-9)


def test_per_layer_flags_counts_that_do_not_repeat():
    setup = {"a.calls": 2.0, "a.ms": 1.0}
    rounds = [{"a.calls": 3.0, "a.ms": 2.0}, {"a.calls": 3.0, "a.ms": 4.0}]
    layers, unsteady = tracing.per_layer(setup, rounds)
    assert layers == {"a.calls": 5.0, "a.ms": 4.0}
    assert unsteady == []
    _, unsteady = tracing.per_layer(setup, rounds + [{"a.calls": 4.0}])
    assert unsteady == ["a.calls"]


def test_certify_rejects_planted_answers():
    w = Certify()
    state = w.build(w.draw(SEED))
    blocks, kappa, bound = w.run_item(state, 0)
    cache = {}
    assert w.check_item(state, 0, (blocks, kappa, bound), cache) == []
    assert w.check_item(state, 0, (blocks, 0.31, bound), cache)
    assert w.check_item(state, 0, (blocks, kappa, 0.89), cache)
    op, pts = blocks[0]
    bumped = opr.BandOperator(op.space, op.rows, op.cols,
                              op.vals + 0.06 * (op.rows == op.cols))
    problems = w.check_item(state, 0, ([(bumped, pts)] + blocks[1:], kappa,
                                       bound), cache)
    assert any("from J/n" in p for p in problems), problems
