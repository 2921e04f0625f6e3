import csv
import json

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
        space_path.write_text(sp.to_json())
        assert main(["profile", str(space_path), "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0 1", "1 3", "2 5"]

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
