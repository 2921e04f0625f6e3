import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from roelab import BandOperator, build_graph_space, build_grid_space
from roelab.cli import (
    ConfigError,
    load_config,
    main,
    random_band_operator,
    run,
)
from roelab.ideals import DEFAULT_EPS_GRID
from roelab.witness import (
    averaging_witness_grid,
    check_partition_witness,
    default_margin,
)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_output(tmp_path):
    return {"json": str(tmp_path / "report.json"),
            "csv": str(tmp_path / "table_{name}.csv")}


class TestConfigValidation:
    def test_empty_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["run", str(path)]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path):
        cfg = {"experiment": "ghost-audit", "output": {"json": "x"},
               "space": {"type": "grid", "dims": 1, "side": 10,
                         "metric": "graph", "bogus": 1},
               "operator": {"kind": "adjacency"}}
        with pytest.raises(ConfigError, match="space"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = {"experiment": "frobnicate", "output": {"json": "x"}}
        with pytest.raises(ConfigError, match="experiment"):
            load_config(write_config(tmp_path, cfg))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


def path_space(side):
    return {"type": "grid", "dims": 1, "side": side, "metric": "graph"}


# a valid minimal config of each experiment, without output
MINIMAL = {
    "localization-sweep": {"space": path_space(20),
                           "operator": {"kind": "shift"}},
    "ghost-audit": {"space": path_space(20), "operator": {"kind": "shift"}},
    "ideal-membership": {"space": path_space(20),
                         "parameters": {"generators": [[0, 1]]}},
    "limit-operator": {"space": path_space(20),
                       "operator": {"kind": "shift"}},
    "column-pipeline": {},
    "resistance-pipeline": {},
    "witness-check": {"space": path_space(20)},
}


def minimal(kind, parameters=None, **top):
    cfg = {"experiment": kind, "output": {"json": "x"}, **MINIMAL[kind], **top}
    if parameters:
        cfg["parameters"] = dict(cfg.get("parameters", {}), **parameters)
    return cfg


class TestAcceptedKeys:
    """Each experiment accepts only the inputs and parameters it reads."""

    def test_sweep_with_keys_of_other_experiments_exits_2(self, tmp_path,
                                                           capsys):
        cfg = minimal("localization-sweep",
                      {"kappa": 0.3, "column_sizes": [10, 20], "k_cap": 3},
                      output=base_output(tmp_path))
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("kappa", "column_sizes", "k_cap"))
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind", sorted(MINIMAL))
    def test_minimal_configs_load(self, tmp_path, kind):
        load_config(write_config(tmp_path, minimal(kind)))

    @pytest.mark.parametrize("kind, parameters, top, key", [
        ("localization-sweep", {"kappa": 0.3}, {}, "kappa"),
        ("ghost-audit", {"eps_grid": [0.5]}, {}, "eps_grid"),
        ("ideal-membership", {"window_radius": 2}, {}, "window_radius"),
        ("limit-operator", {"k_cap": 3}, {}, "k_cap"),
        ("column-pipeline", {"expander_sizes": [10]}, {}, "expander_sizes"),
        ("column-pipeline", {}, {"space": path_space(20)}, "space"),
        ("resistance-pipeline", {"copies": 2}, {}, "copies"),
        ("resistance-pipeline", {}, {"operator": {"kind": "shift"}},
         "operator"),
        ("witness-check", {"mode": "column"}, {}, "mode"),
        ("witness-check", {}, {"operator": {"kind": "shift"}}, "operator"),
        ("witness-check", {}, {"seed": 1}, "seed"),
    ])
    def test_unread_key_rejected(self, tmp_path, kind, parameters, top, key):
        cfg = minimal(kind, parameters, **top)
        with pytest.raises(ConfigError, match=f"'{key}' was unexpected"):
            load_config(write_config(tmp_path, cfg))

    def test_eps_grid_without_operator_exits_2(self, tmp_path, capsys):
        # only the ghostly query, which needs an operator, reads eps_grid
        cfg = minimal("ideal-membership", {"eps_grid": [0.5]},
                      output=base_output(tmp_path))
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert "'eps_grid'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eps_grid_with_operator_is_read_and_echoed(self, tmp_path):
        cfg = minimal("ideal-membership", {"eps_grid": [0.5]},
                      operator={"kind": "shift"},
                      output=base_output(tmp_path))
        load_config(write_config(tmp_path, cfg))
        status, report = run(cfg)
        assert status == 0
        assert report["body"]["parameters"]["eps_grid"] == [0.5]
        assert "ghostly" in report["body"]

    @pytest.mark.parametrize("kind, missing", [
        ("localization-sweep", "space"),
        ("localization-sweep", "operator"),
        ("ghost-audit", "operator"),
        ("ideal-membership", "space"),
        ("limit-operator", "space"),
        ("witness-check", "space"),
    ])
    def test_missing_input_exits_2(self, tmp_path, capsys, kind, missing):
        cfg = minimal(kind, output=base_output(tmp_path))
        del cfg[missing]
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{missing}' is a required property" in err and "usage" in err

    @pytest.mark.parametrize("audit", [{}, {"audit": False}])
    def test_assert_needs_audit(self, tmp_path, audit):
        cfg = minimal("witness-check", {"assert": {"domain_size": 10}},
                      **audit)
        with pytest.raises(ConfigError, match="audit"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("expect, ok", [
        ({"mni": 5}, False), ({}, False), ({"min": "a"}, False),
        ({"min": 1, "max": 2, "eq": 3}, False),
        ({"min": 1}, True), ({"min": 1, "max": 2.5}, True), (3, True),
        ("two_sided", True), ([1, 2], True), (None, True),
    ])
    def test_assert_value_schema(self, tmp_path, expect, ok):
        cfg = minimal("witness-check", {"assert": {"max_variation": expect}},
                      audit=True)
        path = write_config(tmp_path, cfg)
        if ok:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match="parameters/assert"):
                load_config(path)

    def test_readme_configs_validate(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme_{i}.json"
            path.write_text(block)
            load_config(str(path))


# a default run of each experiment: the parameters its body echoes (point
# lists excepted), with the values the experiments used before the echo
# existed, and the body's other keys
ECHO_CASES = [
    ({"experiment": "localization-sweep", "space": path_space(60),
      "operator": {"kind": "adjacency"}},
     {"S_range": [2, 29], "mode": "two_sided"}, {"rows"}),
    ({"experiment": "ghost-audit", "space": path_space(40),
      "operator": {"kind": "random-band"}},
     {}, {"profile", "sup_entry_norm"}),
    ({"experiment": "ideal-membership", "space": path_space(50),
      "parameters": {"generators": [list(range(10))]}},
     {"max_union": None, "k_cap": 12.25}, {"exhaustive"}),
    ({"experiment": "limit-operator", "space": path_space(2100),
      "operator": {"kind": "shift"}},
     {"sequences": ["powers:2"], "window_radius": 10, "tail": 8,
      "oscillation_tol": 1e-9}, {"sequences"}),
    ({"experiment": "column-pipeline"},
     {"column_sizes": [10, 20, 40], "copies": 5, "degree": 3,
      "lam_max": 2.9, "eps_grid": list(DEFAULT_EPS_GRID), "k_cap": 10.0,
      "window_radius": 2, "tail": 3},
     {"second_eigenvalues", "ghost_profile", "min_proper_profile",
      "not_ghost_at", "ghostly", "failing_eps", "vanishes_across_columns",
      "across_eps", "fixed_column", "certified_triple"}),
    ({"experiment": "resistance-pipeline"},
     {"expander_sizes": [250, 500, 1000], "degree": 3, "lam_max": 2.9,
      "kappa": 0.3, "S_schedule": [2, 3, 4]},
     {"second_eigenvalues", "block_norms", "certified_kappa", "passed",
      "details"}),
    ({"experiment": "witness-check", "space": path_space(30)},
     {"witness_radius": 5, "variation_radius": 1},
     {"domain_size", "max_variation", "worst_pair",
      "kernel_positive_type"}),
]


class TestParameterEcho:
    @pytest.mark.parametrize("cfg, echo, other_keys", ECHO_CASES,
                             ids=[c[0]["experiment"] for c in ECHO_CASES])
    def test_default_run_echoes_its_parameters(self, tmp_path, cfg, echo,
                                               other_keys):
        cfg = dict(cfg, output=base_output(tmp_path))
        load_config(write_config(tmp_path, cfg))
        status, report = run(cfg)
        assert status == 0
        assert report["body"]["parameters"] == echo
        assert set(report["body"]) == other_keys | {"parameters"}
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["body"]["parameters"] == echo


class TestLocalizationSweep:
    def test_matches_closed_form_and_emits_csv(self, tmp_path):
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": 100,
                      "metric": "graph"},
            "operator": {"kind": "adjacency", "normalize": True},
            "parameters": {"S_range": [2, 6]},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert status == 0
        for row in report["body"]["rows"]:
            S = row["S"]
            assert row["window_norm"] == pytest.approx(
                np.cos(np.pi / (S + 2)), abs=1e-9)
        with open(str(tmp_path / "table_localization.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["S"]) for r in rows] == [2, 3, 4, 5, 6]

    def test_reports_reproduce_byte_identically(self, tmp_path):
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": 60,
                      "metric": "graph"},
            "operator": {"kind": "adjacency"},
            "parameters": {"S_range": [2, 4]},
            "output": base_output(tmp_path),
        }
        run(cfg)
        first = json.loads((tmp_path / "report.json").read_text())
        run(cfg)
        second = json.loads((tmp_path / "report.json").read_text())
        first.pop("header")
        second.pop("header")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


    def test_runs_on_the_601_point_normalized_path(self, tmp_path):
        # its norm took the power-iteration path, which raised on the
        # path's clustered top and made the run exit 2
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": 601,
                      "metric": "graph"},
            "operator": {"kind": "adjacency", "normalize": True},
            "parameters": {"S_range": [2, 3]},
            "output": base_output(tmp_path),
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for row in report["body"]["rows"]:
            assert row["operator_norm"] == pytest.approx(np.cos(np.pi / 602),
                                                         abs=1e-9)

    @pytest.mark.parametrize("side, method", [(60, "dense"),
                                              (601, "bisection")])
    def test_header_records_the_norm_bracket(self, tmp_path, side, method):
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": side,
                      "metric": "graph"},
            "operator": {"kind": "adjacency", "normalize": True},
            "parameters": {"S_range": [2, 2]},
            "output": base_output(tmp_path),
        }
        run(cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        norm = report["header"]["norm"]
        assert set(norm) == {"method", "lower", "upper", "steps"}
        assert norm["method"] == method
        assert norm["lower"] <= report["body"]["rows"][0]["operator_norm"] \
            <= norm["upper"]
        assert "norm" not in report["body"]

    def test_default_range_stops_where_centres_run_out(self, tmp_path):
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": 80,
                      "metric": "graph"},
            "operator": {"kind": "adjacency"},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert status == 0
        assert [r["S"] for r in report["body"]["rows"]] == list(range(2, 40))

    def test_explicit_range_past_the_centres_rejected(self, tmp_path, capsys):
        cfg = {
            "experiment": "localization-sweep",
            "space": {"type": "grid", "dims": 1, "side": 80,
                      "metric": "graph"},
            "operator": {"kind": "adjacency"},
            "parameters": {"S_range": [2, 40]},
            "output": base_output(tmp_path),
        }
        with pytest.raises(ConfigError, match="beyond S = 39"):
            run(cfg)
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert "usage" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


ISOLATED_POINTS = {"type": "graph", "n": 60, "edges": [],
                   "separation_schedule": [25.0] * 60}
ISOLATED_GENERATORS = [[1, 2, 3, 4], [1, 2, 5], [3, 4, 6]] + [
    [p] for p in range(7, 49)]


def shift20_on_10_points(tmp_path):
    """A file operator holding the 20-point shift, loaded onto 10 points."""
    path = str(tmp_path / "shift20.txt")
    BandOperator.shift_1d(build_grid_space(1, 20, "graph")).serialize(path)
    return {"experiment": "ghost-audit",
            "space": {"type": "grid", "dims": 1, "side": 10,
                      "metric": "graph"},
            "operator": {"kind": "file", "path": path}}


class TestRunValidationErrors:
    @pytest.mark.parametrize("cfg, message", [
        ({"experiment": "ideal-membership",
          "space": {"type": "grid", "dims": 1, "side": 20,
                    "metric": "graph"}},
         "generators"),
        ({"experiment": "witness-check",
          "space": {"type": "grid", "dims": 1, "side": 8,
                    "metric": "graph"},
          "parameters": {"witness_radius": 5}},
         "witness domain is empty"),
        ({"experiment": "ideal-membership", "space": ISOLATED_POINTS,
          "operator": {"kind": "adjacency"},
          "parameters": {"generators": ISOLATED_GENERATORS,
                         "max_union": 2, "k_cap": 10}},
         "6210 generator unions exceeds the limit of 5000"),
        # the default powers:2 sequence has 6 terms on 100 points, and the
        # default tail needs 8
        pytest.param(
            {"experiment": "limit-operator",
             "space": {"type": "grid", "dims": 1, "side": 100,
                       "metric": "graph"},
             "operator": {"kind": "shift"}},
            "sequence has 6 terms, tail needs 8",
            id="limit-operator-short-sequence"),
        # the default range on 4 points would end at S = 1, below its
        # lower end 2
        pytest.param(
            {"experiment": "localization-sweep",
             "space": {"type": "grid", "dims": 1, "side": 4,
                       "metric": "graph"},
             "operator": {"kind": "shift"}},
            "S_range [2, 1] is empty", id="sweep-empty-default-range"),
        pytest.param(
            {"experiment": "localization-sweep",
             "space": {"type": "grid", "dims": 1, "side": 40,
                       "metric": "graph"},
             "operator": {"kind": "shift"},
             "parameters": {"S_range": [5, 3]}},
            "S_range [5, 3] is empty", id="sweep-reversed-range"),
        # base 1 never reaches the end of the space
        pytest.param(
            {"experiment": "limit-operator", "space": path_space(100),
             "operator": {"kind": "shift"},
             "parameters": {"sequences": ["powers:1"]}},
            "the base must be at least 2", id="limit-operator-powers-1"),
        # ids 10..19 would alias ids on the 10-point grid
        pytest.param(shift20_on_10_points, "point ids must lie in 0..9",
                     id="file-operator-ids-out-of-range"),
    ])
    def test_exit_2_with_message(self, tmp_path, capsys, cfg, message):
        if callable(cfg):
            cfg = cfg(tmp_path)
        cfg = dict(cfg, output=base_output(tmp_path))
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "usage" in err


class TestExperiments:
    def test_ghost_audit(self, tmp_path):
        cfg = {
            "experiment": "ghost-audit",
            "space": {"type": "grid", "dims": 1, "side": 40,
                      "metric": "graph"},
            "operator": {"kind": "random-band", "propagation": 2,
                         "density": 0.5, "seed": 1},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert status == 0
        profile = report["body"]["profile"]
        assert profile[-1] == 0.0
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    def test_ideal_membership(self, tmp_path):
        cfg = {
            "experiment": "ideal-membership",
            "space": {"type": "grid", "dims": 1, "side": 50,
                      "metric": "graph"},
            "parameters": {"generators": [list(range(10))],
                           "target_set": [2, 5], "k_cap": 3},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert report["body"]["set_membership"] is True
        assert report["body"]["certificate"]["k"] == 0

    def test_ideal_membership_labels_greedy_negative(self, tmp_path):
        # generators 1 and 2 cover the target at k = 0, but 6210 searches
        # exceed the limit and the greedy cover misses them
        cfg = {
            "experiment": "ideal-membership",
            "space": ISOLATED_POINTS,
            "parameters": {"generators": ISOLATED_GENERATORS,
                           "max_union": 2, "k_cap": 10,
                           "target_set": [1, 2, 3, 4, 5, 6]},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert report["body"]["set_membership"] is False
        assert report["body"]["exhaustive"] is False
        # single generators: 6 * 45 searches, so the negative is a proof
        cfg["parameters"]["max_union"] = 1
        status, report = run(cfg)
        assert report["body"]["set_membership"] is False
        assert report["body"]["exhaustive"] is True

    def test_limit_operator_shift(self, tmp_path):
        cfg = {
            "experiment": "limit-operator",
            "space": {"type": "grid", "dims": 1, "side": 2000,
                      "metric": "graph"},
            "operator": {"kind": "shift", "step": 1},
            "parameters": {"sequences": ["powers:2"], "window_radius": 3,
                           "tail": 4},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        seq_report = report["body"]["sequences"][0]
        assert seq_report["converged"]
        assert seq_report["entries"]["1,0"] == [1.0, 0.0]

    def test_column_pipeline_triple(self, tmp_path):
        cfg = {
            "experiment": "column-pipeline",
            "parameters": {"column_sizes": [10, 20], "copies": 4},
            "seed": 0,
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        body = report["body"]
        assert body["certified_triple"]
        assert body["ghostly"]
        assert body["vanishes_across_columns"]
        assert all(not r["vanishes"] for r in body["fixed_column"])

    def test_witness_check(self, tmp_path):
        cfg = {
            "experiment": "witness-check",
            "space": {"type": "grid", "dims": 1, "side": 60,
                      "metric": "graph"},
            "parameters": {"witness_radius": 4, "variation_radius": 1},
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert report["body"]["max_variation"] == pytest.approx(2.0 / 9,
                                                                abs=1e-12)
        assert report["body"]["kernel_positive_type"]

    def test_witness_check_above_the_kernel_limit(self, tmp_path):
        # a 48 x 48 domain: past PSD_SUBSET_LIMIT = 2000 points, so the
        # kernel verdict is not computed, and the variation still is
        cfg = {
            "experiment": "witness-check",
            "space": {"type": "grid", "dims": 2, "side": 50,
                      "metric": "sup"},
            "parameters": {"witness_radius": 1},
            "output": base_output(tmp_path),
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        body = json.loads((tmp_path / "report.json").read_text())["body"]
        space = build_grid_space(2, 50, "sup")
        D = sorted(set(space.points) - default_margin(space, 1))
        variation, _ = check_partition_witness(
            space, averaging_witness_grid(space, D, 1), 1)
        assert body["domain_size"] == 2304
        assert body["max_variation"] == variation
        assert body["kernel_positive_type"] is None
        with open(tmp_path / "table_witness.csv") as fh:
            assert list(csv.DictReader(fh))[0]["positive_type"] == ""

    def test_audit_failure_exits_1(self, tmp_path):
        cfg = {
            "experiment": "witness-check",
            "space": {"type": "grid", "dims": 1, "side": 60,
                      "metric": "graph"},
            "parameters": {"witness_radius": 4, "variation_radius": 1,
                           "assert": {"max_variation": {"max": 0.01}}},
            "audit": True,
            "output": base_output(tmp_path),
        }
        status, report = run(cfg)
        assert status == 1
        assert report["audit_failures"]

    @pytest.mark.parametrize("cfg, assertions, failures", [
        # a list indexed by name, next to two assertions that hold
        ({"experiment": "localization-sweep", "space": path_space(30),
          "operator": {"kind": "adjacency"},
          "parameters": {"S_range": [2, 3]}},
         {"rows.S": {"min": 0}, "rows.0.S": 2, "parameters.mode": "two_sided"},
         ["rows.S: missing from report"]),
        # no cover within k_cap, so the certificate is null
        ({"experiment": "ideal-membership", "space": path_space(20),
          "parameters": {"generators": [[0, 1]], "target_set": [15],
                         "k_cap": 1}},
         {"certificate": {"min": 0}},
         ["certificate: None cannot be compared with {'min': 0}"]),
    ], ids=["name-index", "null-node"])
    def test_unresolved_or_incomparable_assertion_fails(
            self, tmp_path, cfg, assertions, failures):
        cfg = dict(cfg, audit=True, output=base_output(tmp_path))
        cfg["parameters"] = dict(cfg["parameters"], **{"assert": assertions})
        assert main(["run", write_config(tmp_path, cfg)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["audit_failures"] == failures


def assert_same_entries(got, ref):
    for a, b in ((got.rows, ref.rows), (got.cols, ref.cols),
                 (got.vals, ref.vals)):
        assert a.tobytes() == b.tobytes()


def reference_random_band_operator(space, propagation, density, seed):
    """The per-pair loop that `random_band_operator` ran before it drew
    all its keep decisions at once."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for x in space.points:
        for y in space.ball(x, propagation):
            if rng.random() < density:
                rows.append(x)
                cols.append(y)
    vals = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    return BandOperator(space, rows, cols, vals)


class TestRandomBandOperator:
    @pytest.mark.parametrize("space", [
        build_grid_space(1, 40, "graph"),
        build_grid_space(2, 9, "sup"),
        build_grid_space(2, 8, "euclidean-rounded"),
        build_grid_space(3, 4, "graph"),
        build_graph_space([(0, 1), (1, 2), (2, 3), (4, 5)], n=7,
                          separation_schedule=[1, 2, 0.5]),
    ])
    def test_bit_identical_to_pair_loop(self, space):
        for seed in range(5):
            for propagation, density in ((0, 0.5), (2, 0.3), (3.5, 0.9)):
                got = random_band_operator(space, propagation, density, seed)
                ref = reference_random_band_operator(space, propagation,
                                                     density, seed)
                assert_same_entries(got, ref)

    def test_benchmark_operator_without_a_gap(self):
        # the band workload's redraw example on the 26 x 26 grid
        grid = build_grid_space(2, 26, "graph")
        args = (grid, 3, 0.152692502235424, 1951822153)
        assert_same_entries(random_band_operator(*args),
                            reference_random_band_operator(*args))


class TestOneShots:
    def test_norm_and_truncate(self, tmp_path, capsys):
        sp = build_grid_space(1, 30, "graph")
        T = BandOperator.from_entries(sp, {(0, 0): 2.0, (1, 2): 0.05})
        op_path = str(tmp_path / "op.txt")
        T.serialize(op_path)
        assert main(["norm", op_path]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0)
        out_path = str(tmp_path / "trunc.txt")
        assert main(["truncate", op_path, "0.1", out_path]) == 0
        again = BandOperator.deserialize(out_path)
        assert again.entries() == {(0, 0): 2.0}

    def test_profile(self, tmp_path, capsys):
        sp = build_grid_space(1, 30, "graph")
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(sp.descriptor()))
        assert main(["profile", str(space_path), "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0 1", "1 3", "2 5"]

    @pytest.mark.parametrize("argv, message", [
        (["truncate", "{tmp}/op.txt", "-1", "{tmp}/out.txt"],
         "threshold must be positive"),
        (["norm", "{tmp}/missing.txt"], "No such file"),
        (["norm", "{tmp}/garbage.txt"], "Expecting value"),
        (["profile", "{tmp}/side0.json", "2"], "must be positive"),
        (["profile", "{tmp}/garbage.txt", "2"], "Expecting value"),
        (["run", "{tmp}/missing.json"], "cannot read config"),
    ], ids=["truncate", "norm-missing", "norm-garbage", "profile-side-0",
            "profile-garbage", "run"])
    def test_errors_exit_2(self, tmp_path, capsys, argv, message):
        T = BandOperator.from_entries(build_grid_space(1, 5, "graph"),
                                      {(0, 0): 2.0})
        T.serialize(str(tmp_path / "op.txt"))
        (tmp_path / "side0.json").write_text(
            json.dumps(dict(path_space(5), side=0)))
        (tmp_path / "garbage.txt").write_text("garbage line\n")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "usage" in err

    def test_run_subcommand_end_to_end(self, tmp_path, capsys):
        cfg = {
            "experiment": "ghost-audit",
            "space": {"type": "grid", "dims": 1, "side": 20,
                      "metric": "graph"},
            "operator": {"kind": "adjacency"},
            "output": base_output(tmp_path),
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        assert "ghost-audit: ok" in capsys.readouterr().out
