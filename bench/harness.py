"""The measuring loop shared by every workload.

A workload object provides:

- `name` and `tail_pct`, the reported tail percentile: the highest one
  with at least ten items beyond it at the run length the benchmark uses;
- `draw(seed)`: the seeded choices of the inputs, made once and outside
  the timing (plain numbers, so every build from them is the same);
- `build(drawn)`: the set-up through the library; returns a state whose
  `items` list is one round;
- `run_item(state, index)`: one item, whose output goes to
- `check_item(state, index, output, cache)`: a list of problems, and
- `check_round(state, outputs)`: problems across one round's outputs.

The loop runs a warm-up round, then times whole rounds until `seconds` of
work are done and enough items are timed for ten to lie beyond the tail
percentile, and checks each round's outputs outside the timed
region.  This module imports nothing from roelab.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext

import numpy as np

SETUP_REPEATS = 3
BEYOND_TAIL = 10
MAX_PROBLEMS = 20


def percentile(values, pct):
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def min_items(tail_pct):
    """Items needed for BEYOND_TAIL of them to lie beyond the percentile."""
    return math.ceil(BEYOND_TAIL * 100 / (100 - tail_pct))


def peak_rss_mib():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, import_s=0.0, tracer=None):
    """Run one measurement and return the result record.

    With a tracer the set-up runs once and every round's counts and self
    times are kept for the per-layer metrics.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    repeats = 1 if tracer else SETUP_REPEATS
    build_s = []
    drawn = workload.draw(seed)
    snap0 = tracer.snapshot() if tracer else None
    for _ in range(repeats):
        t0 = time.perf_counter()
        with span("bench.setup"):
            state = workload.build(drawn)
        build_s.append(time.perf_counter() - t0)
    setup_delta = tracer.snapshot() if tracer else None

    n_items = len(state.items)
    item_ms, round_wall, round_cpu, round_layers = [], [], [], []
    # each item's wall (ms) and CPU (s) times, one per timed round
    by_index = [[] for _ in range(n_items)]
    cpu_by_index = [[] for _ in range(n_items)]
    attempted = failed = 0
    problems, errors = [], []
    cache = {}
    peak_mib = warmup_s = None
    timed = 0.0
    needed = min_items(workload.tail_pct)
    # the first round is a warm-up: checked and counted, and its time counts
    # towards `seconds`, but it is left out of the timing statistics
    while warmup_s is None or timed < seconds or \
            attempted - n_items < needed:
        warm = warmup_s is not None
        before = tracer.snapshot() if tracer else None
        outputs = []
        c0, w0 = time.process_time(), time.perf_counter()
        for index in range(n_items):
            t0, p0 = time.perf_counter(), time.process_time()
            try:
                with span("bench.item"):
                    out = workload.run_item(state, index)
            except Exception:  # counted as a failed item, run continues
                outputs.append((False, traceback.format_exc(limit=3)))
            else:
                if warm:
                    item_ms.append(1e3 * (time.perf_counter() - t0))
                    by_index[index].append(item_ms[-1])
                    cpu_by_index[index].append(time.process_time() - p0)
                outputs.append((True, out))
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        timed += wall
        if warm:
            round_wall.append(wall)
            round_cpu.append(cpu)
            if tracer:
                round_layers.append(_delta(tracer.snapshot(), before))
        else:
            warmup_s = wall
            # the program's peak over set-up and one round, before any
            # oracle allocates its dense matrices
            peak_mib = peak_rss_mib()
        good = {}
        for index, (ok, out) in enumerate(outputs):
            attempted += 1
            if not ok:
                failed += 1
                if len(errors) < MAX_PROBLEMS:
                    errors.append(f"item {index}: {out}")
                continue
            good[index] = out
            problems += [f"item {index}: {p}" for p in
                         workload.check_item(state, index, out, cache)]
        problems += workload.check_round(state, good)
        if len(problems) > MAX_PROBLEMS:
            break

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "items_per_round": n_items,
        "rounds": len(round_wall) + 1,
        "warmup_s": warmup_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "errors": errors,
        "tail_pct": workload.tail_pct,
        "metrics": {
            "setup_s": import_s + statistics.median(build_s),
            # Every item at its slowest timed round: the machine this was
            # tuned on switches between a contended and a free speed, and
            # nearly every run meets the contended one, so an item's slowest
            # repetition reads the same from run to run.  wall_s and cpu_s
            # are one round made of them, item_p50_ms their median.
            "wall_s": _slowest_round(by_index) / 1e3,
            "cpu_s": _slowest_round(cpu_by_index),
            "item_p50_ms": (statistics.median([max(v) for v in by_index if v])
                            if item_ms else float("nan")),
            "item_tail_ms": (percentile(item_ms, workload.tail_pct)
                             if item_ms else float("nan")),
            "peak_rss_mb": peak_mib,
        },
        "import_s": import_s,
        "build_s": build_s,
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "item_ms_by_index": [statistics.median(v) if v else None
                             for v in by_index],
        "item_ms_rounds_by_index": by_index,
    }
    if tracer:
        result["setup_layers"] = _delta(setup_delta, snap0)
        result["round_layers"] = round_layers
    return result


def _slowest_round(by_index):
    timed = [max(v) for v in by_index if v]
    return sum(timed) if timed else float("nan")


def _delta(after, before):
    return {k: v - before.get(k, 0.0) for k, v in after.items()
            if v != before.get(k, 0.0)}
