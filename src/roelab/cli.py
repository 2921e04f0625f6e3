"""Batch experiment driver: validated single-file configs, pipelines over
the library modules, and JSON + CSV report emission.

Exit codes: 0 ok, 1 audit assertion failure, 2 usage, validation or library
error.  Reports are deterministic given (config, seeds); the timestamp is
confined to a header field so the body reproduces byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
import time

import jsonschema
import numpy as np

from . import expander as ex
from . import ideals as il
from . import limitop as lo
from . import witness as wt
from .operator import (BandOperator, NormConvergenceError, OperatorError,
                       operator_norm, operator_norm_bracket)
from .space import SpaceError, space_from_descriptor

SCHEMA_VERSION = 1

_SPACE_SCHEMA = {
    "oneOf": [
        {"type": "object",
         "properties": {"type": {"const": "grid"},
                        "dims": {"type": "integer", "minimum": 1},
                        "side": {"type": "integer", "minimum": 1},
                        "metric": {"enum": ["euclidean-rounded", "sup",
                                            "graph"]}},
         "required": ["type", "dims", "side", "metric"],
         "additionalProperties": False},
        {"type": "object",
         "properties": {"type": {"const": "graph"},
                        "n": {"type": "integer", "minimum": 1},
                        "edges": {"type": "array",
                                  "items": {"type": "array",
                                            "items": {"type": "integer"},
                                            "minItems": 2, "maxItems": 2}},
                        "separation_schedule":
                            {"type": ["array", "null"],
                             "items": {"type": "number"}}},
         "required": ["type", "edges"],
         "additionalProperties": False},
    ]
}

_OPERATOR_SCHEMA = {
    "oneOf": [
        {"type": "object",
         "properties": {"kind": {"const": "adjacency"},
                        "R": {"type": "number", "minimum": 0},
                        "normalize": {"type": "boolean"}},
         "required": ["kind"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "shift"},
                        "step": {"type": "integer"}},
         "required": ["kind"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "file"},
                        "path": {"type": "string"}},
         "required": ["kind", "path"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "random-band"},
                        "propagation": {"type": "number", "minimum": 0},
                        "density": {"type": "number", "minimum": 0,
                                    "maximum": 1},
                        "seed": {"type": "integer"}},
         "required": ["kind"], "additionalProperties": False},
    ]
}

# parameter schemas that more than one experiment uses
_EPS_GRID = {"type": "array", "items": {"type": "number",
                                        "exclusiveMinimum": 0}}
_K_CAP = {"type": "number", "minimum": 0}
_DEGREE = {"type": "integer", "minimum": 3}
_LAM_MAX = {"type": "number", "exclusiveMinimum": 0}
_WINDOW_RADIUS = {"type": "integer", "minimum": 1}
_TAIL = {"type": "integer", "minimum": 2}
_POINT_SETS = {"type": "array",
               "items": {"type": "array", "items": {"type": "integer"}}}
# an audit assertion is a value to equal, or {"min": v} and/or {"max": v}
_ASSERT = {"type": "object", "additionalProperties": {"anyOf": [
    {"not": {"type": "object"}},
    {"type": "object", "properties": {"min": {"type": "number"},
                                      "max": {"type": "number"}},
     "additionalProperties": False, "minProperties": 1}]}}


class ConfigError(ValueError):
    pass


def load_config(path):
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not raw.strip():
        raise ConfigError("empty config")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config field {loc}: {e.message}")
    return cfg


def _build_operator(space, desc, seed=0):
    kind = desc["kind"]
    if kind == "adjacency":
        return BandOperator.adjacency(space, R=desc.get("R", 1),
                                      normalize=desc.get("normalize", False))
    if kind == "shift":
        return BandOperator.shift_1d(space, step=desc.get("step", 1))
    if kind == "file":
        return BandOperator.deserialize(desc["path"], space=space)
    if kind == "random-band":
        return random_band_operator(space, desc.get("propagation", 3),
                                    desc.get("density", 0.5),
                                    desc.get("seed", seed))
    raise ConfigError(f"unknown operator kind {kind!r}")


def random_band_operator(space, propagation, density, seed):
    """Random complex band operator: each entry within the propagation band
    is present with the given probability."""
    rng = np.random.default_rng(seed)
    rows, cols = space.pairs_within(propagation)
    # one uniform per pair, in lexicographic order: rng.random(k) yields the
    # same stream as k scalar draws
    keep = rng.random(rows.size) < density
    rows, cols = rows[keep], cols[keep]
    vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    return BandOperator(space, rows, cols, vals)


# -- experiment implementations ----------------------------------------------
# Each takes the space and operator that `run` built (None where the
# experiment reads none) and its parameters with every default filled in.

def _largest_sweep_S(space, upper):
    """Largest S <= upper for which the default margin leaves a window
    centre; S = 0 always does."""
    return next(S for S in range(upper, -1, -1)
                if len(wt.default_margin(space, S)) < space.n)


def _exp_localization_sweep(space, T, params, seed):
    lo_s, hi_s = params["S_range"]
    usable = _largest_sweep_S(space, hi_s)
    if usable < hi_s:
        raise ConfigError(
            f"S_range ends at {hi_s}, but the default margin leaves no "
            f"window centre beyond S = {usable}")
    if lo_s > hi_s:
        raise ConfigError(f"S_range [{lo_s}, {hi_s}] is empty")
    rows = []
    for S in range(lo_s, hi_s + 1):
        report = wt.localization_constant(T, S, mode=params["mode"])
        rows.append({"S": S, "constant": report.best_constant,
                     "window_norm": report.window_norm,
                     "operator_norm": report.operator_norm,
                     "center": report.witness_center})
    return {"rows": rows}, [("localization",
                             ["S", "constant", "window_norm",
                              "operator_norm", "center"], rows)]


def _exp_ghost_audit(space, T, params, seed):
    exhaustion = params["exhaustion"]
    profile = T.ghost_profile([set(F) for F in exhaustion])
    rows = [{"stage": k, "stage_size": len(exhaustion[k]),
             "profile": profile[k]} for k in range(len(profile))]
    return ({"profile": profile, "sup_entry_norm": T.sup_entry_norm()},
            [("ghost_profile", ["stage", "stage_size", "profile"], rows)])


def _exp_ideal_membership(space, T, params, seed):
    if T is None:
        del params["eps_grid"]  # only the ghostly query reads it
    gens = params["generators"]
    if not gens:
        raise ConfigError("ideal-membership needs parameters/generators")
    family = il.IdealFamily(space, tuple(frozenset(g) for g in gens),
                            max_union=params["max_union"])
    k_cap = params["k_cap"]
    body = {"exhaustive": family.exhaustive(k_cap)}
    rows = []
    if params["target_set"] is not None:
        ok, cert = il.ideal_membership(family, set(params["target_set"]),
                                       k_cap)
        body["set_membership"] = ok
        body["certificate"] = (None if cert is None else
                               {"generators": list(cert.generator_indices),
                                "k": cert.k})
        rows.append({"query": "set", "member": int(ok)})
    if T is not None:
        ghostly, failing = il.ghostly_membership(T, family,
                                                 params["eps_grid"], k_cap)
        dist = il.geometric_distance(T, family, k_cap=k_cap)
        body["ghostly"] = ghostly
        body["failing_eps"] = failing
        body["geometric_distance"] = dist
        rows.append({"query": "ghostly", "member": int(ghostly)})
    return body, [("membership", ["query", "member"], rows)]


def _exp_limit_operator(space, T, params, seed):
    seqs = [lo.DirectionSequence.from_name(s, space.n) if isinstance(s, str)
            else lo.DirectionSequence(tuple(s)) for s in params["sequences"]]
    w = params["window_radius"]
    results, rows = [], []
    for i, seq in enumerate(seqs):
        seq.validate(space)
        try:
            limit, diag = lo.empirical_limit_operator(
                T, seq, window_radius=w, tail=params["tail"],
                tol=params["oscillation_tol"])
            entry = {"sequence": i, "converged": True,
                     "max_oscillation": diag["max_oscillation"],
                     "nnz": limit.nnz,
                     "entries": {f"{x - w},{y - w}": [v.real, v.imag]
                                 for (x, y), v in limit.entries().items()}}
        except lo.NoEmpiricalLimit as exc:
            entry = {"sequence": i, "converged": False,
                     "offenders": sorted(list(o) for o in exc.offenders)}
        results.append(entry)
        rows.append({"sequence": i, "converged": int(entry["converged"]),
                     "nnz": entry.get("nnz", "")})
    return ({"sequences": results},
            [("limits", ["sequence", "converged", "nnz"], rows)])


def _exp_column_pipeline(space, T, params, seed):
    """Multi-column projection pipeline: a block projection that keeps a
    visible ghost profile, is ghostly for the column family, and vanishes in
    the across-columns direction but not along any fixed column."""
    sizes, copies = params["column_sizes"], params["copies"]
    lam_max = params["lam_max"]
    graphs = tuple(ex.random_regular_expander(n, params["degree"], lam_max,
                                              seed=seed + 97 * i)
                   for i, n in enumerate(sizes))
    family = ex.ExpanderFamily(graphs=graphs, gap_threshold=lam_max)
    need = len(sizes) + copies - 1
    sep = [20.0 * (k + 1) for k in range(need)]
    col, P, ideal = ex.expander_column_space(family, copies, sep)
    space = col.space

    # not a ghost: exhaust by copy index, so every proper stage still leaves
    # a block of the smallest column outside and the profile stays at
    # 1 / min block size there
    stages = []
    for j_stage in range(1, copies + 1):
        stages.append({p for _, j, pts in col.blocks if j <= j_stage
                       for p in pts})
    profile = P.ghost_profile(stages)
    min_proper_profile = min(profile[:-1]) if len(profile) > 1 else 0.0

    ghostly, failing = il.ghostly_membership(P, ideal, params["eps_grid"],
                                             params["k_cap"])

    w, tail = params["window_radius"], params["tail"]
    # across-columns direction: one interior point per (i, i-th copy) block
    i_pts = []
    for i in range(1, len(sizes) + 1):
        blk = col.block_points(i, min(i, copies))
        i_pts.append(blk[len(blk) // 2])
    extra = copies - len(sizes)
    for j in range(len(sizes) + 1, len(sizes) + extra + 1):
        blk = col.block_points(len(sizes), j)
        i_pts.append(blk[len(blk) // 2])
    i_seq = lo.DirectionSequence(tuple(i_pts)).validate(space)
    eps_i = 1.5 / min(sizes[-1], sizes[-2]) if len(sizes) > 1 else 0.05
    vanish_i = lo.vanishing_in_direction(P, i_seq, window_radius=w,
                                         tail=tail, eps=eps_i)

    j_results = []
    for i in range(1, len(sizes) + 1):
        pts = tuple(col.block_points(i, j)[sizes[i - 1] // 2]
                    for j in range(1, copies + 1))
        seq = lo.DirectionSequence(pts).validate(space)
        eps_j = 1.0 / sizes[i - 1]  # limit entries sit exactly on 1/|X_i|
        vanish_j = lo.vanishing_in_direction(P, seq, window_radius=w,
                                             tail=min(tail, copies),
                                             eps=eps_j)
        limit, diag = lo.empirical_limit_operator(
            P, seq, window_radius=w, tail=min(tail, copies))
        j_results.append({"column": i, "vanishes": vanish_j,
                          "limit_diagonal": limit.entry(w, w).real,
                          "expected": 1.0 / sizes[i - 1],
                          "max_oscillation": diag["max_oscillation"]})

    body = {
        "second_eigenvalues": [g.second_eigenvalue for g in graphs],
        "ghost_profile": profile,
        "min_proper_profile": min_proper_profile,
        "not_ghost_at": 1.0 / min(sizes),
        "ghostly": ghostly, "failing_eps": failing,
        "vanishes_across_columns": vanish_i,
        "across_eps": eps_i,
        "fixed_column": j_results,
        "certified_triple": bool(
            min_proper_profile >= 1.0 / min(sizes) - 1e-12
            and ghostly and vanish_i
            and all(not r["vanishes"] for r in j_results)),
    }
    rows = [{"column": r["column"], "vanishes": int(r["vanishes"]),
             "limit_diagonal": r["limit_diagonal"],
             "expected": r["expected"]} for r in j_results]
    return body, [("fixed_column_limits",
                   ["column", "vanishes", "limit_diagonal", "expected"],
                   rows)]


def _exp_resistance_pipeline(space, T, params, seed):
    sizes, lam_max = params["expander_sizes"], params["lam_max"]
    kappa, S_schedule = params["kappa"], params["S_schedule"]
    graphs = tuple(ex.random_regular_expander(n, params["degree"], lam_max,
                                              seed=seed + 31 * i)
                   for i, n in enumerate(sizes))
    family = ex.ExpanderFamily(graphs=graphs, gap_threshold=lam_max)
    space, blocks, certified = ex.resistance_blocks(family, kappa, S_schedule)
    norms = [operator_norm(op) for op, _ in blocks]
    ok, details = wt.resistance_check(blocks, kappa, S_schedule)
    body = {"second_eigenvalues": [g.second_eigenvalue for g in graphs],
            "block_norms": norms, "certified_kappa": certified,
            "passed": ok, "details": details}
    rows = [{"size": n, "S": d["S"], "constant": d["constant"],
             "norm": d["norm"]} for n, d in zip(sizes, details)]
    return body, [("resistance", ["size", "S", "constant", "norm"], rows)]


def _exp_witness_check(space, T, params, seed):
    S, R = params["witness_radius"], params["variation_radius"]
    margin = wt.default_margin(space, S)
    D = sorted(set(space.points) - set(margin))
    if not D:
        raise ConfigError("witness domain is empty after margin exclusion")
    witness = wt.averaging_witness_grid(space, D, S)
    variation, pair = wt.check_partition_witness(space, witness, R)
    psd = None  # not computed above PSD_SUBSET_LIMIT points
    if len(D) <= wt.PSD_SUBSET_LIMIT:
        kernel = wt.kernel_from_witness(witness)
        psd = wt.check_positive_type(kernel, [kernel.points])
    body = {"domain_size": len(D), "max_variation": variation,
            "worst_pair": list(pair) if pair else None,
            "kernel_positive_type": psd}
    rows = [{"S": S, "R": R, "max_variation": variation,
             "positive_type": "" if psd is None else int(psd)}]
    return body, [("witness", ["S", "R", "max_variation", "positive_type"],
                   rows)]


# -- the parameter table and the config schema built from it -----------------
# Per experiment: its function, the top-level inputs it requires, those it
# also reads, and each parameter's schema and default.  A callable default
# is applied to (space, parameters resolved so far).  An experiment accepts
# no other key.

_EXPERIMENTS = {
    "localization-sweep": (_exp_localization_sweep, ("space", "operator"),
                           ("seed",), {
        "S_range": ({"type": "array",
                     "items": {"type": "integer", "minimum": 0},
                     "minItems": 2, "maxItems": 2},
                    lambda space, p: [2, _largest_sweep_S(space, 50)]),
        "mode": ({"enum": ["two_sided", "column"]}, "two_sided"),
    }),
    "ghost-audit": (_exp_ghost_audit, ("space", "operator"), ("seed",), {
        # quartile prefixes of the id order
        "exhaustion": (_POINT_SETS, lambda space, p: [
            list(range(int(np.ceil(space.n * q / 4.0))))
            for q in range(1, 5)]),
    }),
    "ideal-membership": (_exp_ideal_membership, ("space",),
                         ("operator", "seed"), {
        "generators": (_POINT_SETS, None),
        "max_union": ({"type": ["integer", "null"], "minimum": 1}, None),
        "k_cap": (_K_CAP, lambda space, p: il.default_k_cap(space)),
        "target_set": ({"type": "array", "items": {"type": "integer"}}, None),
        "eps_grid": (_EPS_GRID, list(il.DEFAULT_EPS_GRID)),
    }),
    "limit-operator": (_exp_limit_operator, ("space", "operator"), ("seed",), {
        "sequences": ({"type": "array", "items": {"oneOf": [
            {"type": "string"},
            {"type": "array", "items": {"type": "integer"}, "minItems": 2}]}},
            ["powers:2"]),
        "window_radius": (_WINDOW_RADIUS, lo.DEFAULT_WINDOW_RADIUS),
        "tail": (_TAIL, lo.DEFAULT_TAIL),
        "oscillation_tol": ({"type": "number", "exclusiveMinimum": 0},
                            lo.DEFAULT_OSCILLATION_TOL),
    }),
    "column-pipeline": (_exp_column_pipeline, (), ("seed",), {
        "column_sizes": ({"type": "array",
                          "items": {"type": "integer", "minimum": 2},
                          "minItems": 1}, [10, 20, 40]),
        "copies": ({"type": "integer", "minimum": 1}, 5),
        "degree": (_DEGREE, 3),
        "lam_max": (_LAM_MAX, 2.9),
        "eps_grid": (_EPS_GRID, list(il.DEFAULT_EPS_GRID)),
        # half the smallest column separation, which is 20
        "k_cap": (_K_CAP, 10.0),
        "window_radius": (_WINDOW_RADIUS, 2),
        "tail": (_TAIL, lambda space, p: len(p["column_sizes"])),
    }),
    "resistance-pipeline": (_exp_resistance_pipeline, (), ("seed",), {
        "expander_sizes": ({"type": "array",
                            "items": {"type": "integer", "minimum": 4}},
                           [250, 500, 1000]),
        "degree": (_DEGREE, 3),
        "lam_max": (_LAM_MAX, 2.9),
        "kappa": ({"type": "number", "exclusiveMinimum": 0}, 0.3),
        "S_schedule": ({"type": "array",
                        "items": {"type": "number", "minimum": 0}},
                       lambda space, p: list(
                           range(2, 2 + len(p["expander_sizes"])))),
    }),
    "witness-check": (_exp_witness_check, ("space",), (), {
        "witness_radius": ({"type": "number", "minimum": 1}, 5),
        "variation_radius": ({"type": "number", "minimum": 0}, 1),
    }),
}

# left out of the echo: they can be as long as the space, and header.config
# already holds them when given
_POINT_LISTS = ("exhaustion", "generators", "target_set")


def _accepted_keys(kind, required, optional, params):
    """The schema branch that applies to one experiment."""
    parameters = {key: schema for key, (schema, _) in params.items()}
    parameters["assert"] = _ASSERT
    accepted = dict.fromkeys(("experiment", "output", "audit") + required
                             + optional, True)
    accepted["parameters"] = {"type": "object", "properties": parameters,
                              "additionalProperties": False}
    return {"if": {"properties": {"experiment": {"const": kind}},
                   "required": ["experiment"]},
            "then": {"properties": accepted, "required": list(required),
                     "additionalProperties": False}}


CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "experiment": {"enum": list(_EXPERIMENTS)},
        "space": _SPACE_SCHEMA,
        "operator": _OPERATOR_SCHEMA,
        "output": {
            "type": "object",
            "properties": {"json": {"type": "string"},
                           "csv": {"type": "string"}},
            "required": ["json"],
            "additionalProperties": False,
        },
        "audit": {"type": "boolean"},
        "seed": {"type": "integer"},
        "parameters": {"type": "object"},
    },
    "required": ["experiment", "output"],
    "allOf": [_accepted_keys(kind, *entry[1:])
              for kind, entry in _EXPERIMENTS.items()] + [
        # only ideal-membership's ghostly query, which needs an operator,
        # reads eps_grid
        {"if": {"properties": {"experiment": {"const": "ideal-membership"}},
                "required": ["experiment"], "not": {"required": ["operator"]}},
         "then": {"properties": {"parameters": {
             "propertyNames": {"not": {"const": "eps_grid"}}}}}},
        # assertions are read only in audit mode
        {"if": {"properties": {"parameters": {"required": ["assert"]}},
                "required": ["parameters"]},
         "then": {"properties": {"audit": {"const": True}},
                  "required": ["audit"]}}],
}


def _check_assertions(body, assertions):
    """Audit mode: each assertion maps a dotted report path to an expected
    value (scalar equality) or to {"min": v} / {"max": v} bounds.  A path
    that does not resolve, and a node that cannot be compared, fail."""
    failures = []
    for path, expect in assertions.items():
        node = body
        try:
            for part in path.split("."):
                node = node[int(part)] if isinstance(node, list) else node[part]
        except (KeyError, IndexError, TypeError, ValueError):
            failures.append(f"{path}: missing from report")
            continue
        try:
            if isinstance(expect, dict):
                if "min" in expect and not node >= expect["min"]:
                    failures.append(f"{path}: {node} < min {expect['min']}")
                if "max" in expect and not node <= expect["max"]:
                    failures.append(f"{path}: {node} > max {expect['max']}")
            elif node != expect:
                failures.append(f"{path}: {node} != {expect}")
        except TypeError:
            failures.append(f"{path}: {node!r} cannot be compared with "
                            f"{expect}")
    return failures


def _norm_record(T):
    """How the operator's norm was reached, for the header: the method, the
    bracket and the number of certificate factorizations.  A bracket that
    did not close is recorded, not raised, when the body never needed it."""
    try:
        lower, upper, method, steps = operator_norm_bracket(T)
    except NormConvergenceError as exc:
        (lower, upper), method, steps = exc.bracket, "unclosed", None
    return {"method": method, "lower": lower, "upper": upper, "steps": steps}


def run(config):
    """Run one experiment; returns (exit status, report dict).  The space,
    the operator and the parameters are resolved here, once; the body
    echoes every parameter value used under `parameters`, and the header
    records how the operator's norm was reached under `norm`."""
    kind = config["experiment"]
    experiment, _, _, table = _EXPERIMENTS[kind]
    seed = config.get("seed", 0)
    space = (space_from_descriptor(config["space"]) if "space" in config
             else None)
    T = (_build_operator(space, config["operator"], seed)
         if "operator" in config else None)
    given = config.get("parameters", {})
    params = {}
    for key, (_, default) in table.items():
        params[key] = (given[key] if key in given else
                       default(space, params) if callable(default) else
                       copy.deepcopy(default))
    body, tables = experiment(space, T, params, seed)
    body["parameters"] = {key: value for key, value in params.items()
                          if key not in _POINT_LISTS}
    failures = _check_assertions(body, given.get("assert", {})) \
        if config.get("audit") else []
    header = {"experiment": kind, "config": config,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if T is not None:
        header["norm"] = _norm_record(T)
    report = {
        "schema": SCHEMA_VERSION,
        "header": header,
        "body": body,
        "audit_failures": failures,
    }
    out = config["output"]
    stable = {k: report[k] for k in ("schema", "body", "audit_failures")}
    with open(out["json"], "w") as fh:
        json.dump({"header": report["header"], **stable}, fh, indent=2,
                  sort_keys=True, default=float)
        fh.write("\n")
    if "csv" in out:
        for name, fields, rows in tables:
            path = out["csv"].replace("{name}", name) \
                if "{name}" in out["csv"] else out["csv"]
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
    return (1 if failures else 0), report


# -- one-shot queries ---------------------------------------------------------

def _cmd_norm(args):
    T = BandOperator.deserialize(args.operator)
    print(f"{operator_norm(T):.12g}")
    return 0


def _cmd_truncate(args):
    T = BandOperator.deserialize(args.operator)
    kept = T.truncate(args.eps)
    kept.serialize(args.out)
    print(f"kept {kept.nnz} of {T.nnz} entries")
    return 0


def _cmd_profile(args):
    with open(args.space) as fh:
        space = space_from_descriptor(json.load(fh))
    for r in range(args.radius + 1):
        print(f"{r} {space.geometry_profile(r)}")
    return 0


def _cmd_run(args):
    config = load_config(args.config)
    status, report = run(config)
    n_fail = len(report["audit_failures"])
    print(f"{config['experiment']}: "
          f"{'ok' if status == 0 else f'{n_fail} audit failures'}; "
          f"report at {config['output']['json']}")
    for f in report["audit_failures"]:
        print(f"  FAIL {f}", file=sys.stderr)
    return status


USAGE = """\
usage: roelab run CONFIG.json        batch experiment from a JSON config
       roelab norm OPERATOR          spectral norm of a serialized operator
       roelab truncate OPERATOR EPS OUT
       roelab profile SPACE.json RADIUS

Config schema: {"experiment": <kind>, "output": {"json": path, "csv": path},
"space": descriptor, "operator": descriptor, "parameters": {...},
"audit": bool, "seed": int}.  Kinds: """ + ", ".join(_EXPERIMENTS) + """.
Each kind accepts only the keys it reads; body.parameters echoes them."""


def main(argv=None):
    parser = argparse.ArgumentParser(prog="roelab", usage=USAGE)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)
    p_norm = sub.add_parser("norm")
    p_norm.add_argument("operator")
    p_norm.set_defaults(func=_cmd_norm)
    p_trunc = sub.add_parser("truncate")
    p_trunc.add_argument("operator")
    p_trunc.add_argument("eps", type=float)
    p_trunc.add_argument("out")
    p_trunc.set_defaults(func=_cmd_truncate)
    p_prof = sub.add_parser("profile")
    p_prof.add_argument("space")
    p_prof.add_argument("radius", type=int)
    p_prof.set_defaults(func=_cmd_profile)
    args = parser.parse_args(argv)
    if args.command is None:
        print(USAGE, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, SpaceError, OperatorError, NormConvergenceError,
            wt.WitnessError, il.IdealError, lo.DirectionError,
            ex.ExpanderError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
