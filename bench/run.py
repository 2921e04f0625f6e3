"""roelab benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics, timed without
tracing; with --trace 1 they are the per-layer metrics of a traced run.
`--workload all` runs every workload in its own process, one after the
other, and sums them up in the last line.  The full record (and, when
traced, the spans) goes to bench/out/.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy is imported.  On the two-core machine
# the benchmark was tuned on, OpenBLAS's default of two threads made the
# certify items (60..240-point blocks) 1.5x slower and left every item
# waiting on whatever ran on the other core.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_REPEATS = 3

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms",
         "item_tail_ms": "ms", "peak_rss_mb": "MiB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_library():
    """Import roelab from this checkout's src/, and nowhere else."""
    if not (SRC / "roelab" / "__init__.py").is_file():
        sys.exit(f"error: no roelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import roelab
    if Path(roelab.__file__).resolve().parent != SRC / "roelab":
        sys.exit(f"error: roelab imported from {roelab.__file__}, not {SRC}")
    import roelab.cli  # noqa: F401  (the cli's imports belong to set-up)


def _import_seconds():
    """Median wall time of a fresh interpreter importing the library, the
    part of set-up a run cannot repeat in its own process."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import roelab.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _versions():
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"].get("version", blas)
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS)}


def _run_all(args, names):
    """Every workload in a fresh process; their metrics as workload/name."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.rstrip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = _parse(argv)
    _import_library()
    import harness
    import tracer as tracing
    from workloads import WORKLOADS
    own_import_s = time.perf_counter() - PROCESS_T0
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    names = _per_layer_names() if args.trace else None

    tracer, import_s = None, 0.0
    if not args.trace:
        import_s = _import_seconds()
    else:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = harness.measure(workload, args.seed, args.seconds,
                                 import_s=import_s, tracer=tracer)
    finally:
        if tracer:
            tracer.uninstall()

    if result["attempted"] == result["failed"]:
        for line in result["errors"]:
            print(f"FAIL {line}", file=sys.stderr)
        sys.exit("error: every item failed; no metrics to report")
    result["own_import_s"] = own_import_s
    result["environment"] = _versions()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        layers, unsteady = tracing.per_layer(result["setup_layers"],
                                             result["round_layers"])
        result["per_layer"] = layers
        result["unsteady_counts"] = unsteady
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in names.items()}
        tracer.save(f"{stem}.spans.npz")
        print(f"traced wall_s {result['metrics']['wall_s']:.4f} "
              f"(slowest timed round, tracing on)")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.3f} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in result["metrics"].items()}
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")
    for line in result["errors"] + result["problems"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload}: {result['rounds']} rounds of "
          f"{result['items_per_round']} items, tail p{workload.tail_pct}")
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
