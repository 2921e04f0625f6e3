"""Span tracer for the benchmark's traced run.

The tracer wraps roelab's public functions from outside the library: it
replaces every module binding of a traced function (roelab modules import
names directly, so `roelab.witness.operator_norm` is a binding of its own)
and the traced methods on their classes.  Each call records a span (name,
start, end, parent) and a call count; self time is a span's duration minus
the time covered by the traced spans nested inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# metric prefix -> (module, attribute path) of each traced callable
FUNCTIONS = {
    "space.neighbourhood": ("roelab.space", "neighbourhood"),
    "operator.operator_norm": ("roelab.operator", "operator_norm"),
    "operator.power_iteration_norm": ("roelab.operator", "power_iteration_norm"),
    "operator.dense_norm": ("roelab.operator", "dense_norm"),
    "witness.localization_constant": ("roelab.witness", "localization_constant"),
    "witness.resistance_check": ("roelab.witness", "resistance_check"),
    "ideals.ideal_membership": ("roelab.ideals", "ideal_membership"),
    "ideals.ghostly_membership": ("roelab.ideals", "ghostly_membership"),
    "ideals.block_lower_bound": ("roelab.ideals", "block_lower_bound"),
    "limitop.empirical_limit_operator": ("roelab.limitop", "empirical_limit_operator"),
    "limitop.vanishing_in_direction": ("roelab.limitop", "vanishing_in_direction"),
    "expander.random_regular_expander": ("roelab.expander", "random_regular_expander"),
    "expander.second_eigenvalue": ("roelab.expander", "second_eigenvalue"),
    "expander.chebyshev_band_approx": ("roelab.expander", "chebyshev_band_approx"),
    "cli.random_band_operator": ("roelab.cli", "random_band_operator"),
}

METHODS = {
    "space.ball": [("roelab.space", "GridSpace", "ball"),
                   ("roelab.space", "GraphSpace", "ball")],
    "space.GraphSpace": [("roelab.space", "GraphSpace", "__init__")],
    "operator.BandOperator": [("roelab.operator", "BandOperator", "__init__")],
    "operator.matmul": [("roelab.operator", "BandOperator", "__matmul__")],
    "operator.to_dense": [("roelab.operator", "BandOperator", "to_dense")],
    "operator.ghost_profile": [("roelab.operator", "BandOperator", "ghost_profile")],
    "operator.window_restrict": [("roelab.operator", "BandOperator", "window_restrict")],
}

# generator methods: each resumption is a span, each yielded value counted
GENERATORS = {
    "ideals.candidate_sets": ("roelab.ideals", "IdealFamily", "candidate_sets"),
}

# counted, not timed: the candidate windows a localization sweep examines
WINDOWS = ("witness.windows", "roelab.witness", "candidate_windows")


class Tracer:
    """In-memory span and count recorder.

    Spans are kept in flat arrays (name id, parent index, start, end), so a
    run of a million spans costs tens of megabytes, not hundreds.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []  # [span index, time covered by child spans]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])

    def _close(self, name):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name)
        return wrapper

    def generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name)
                self.counts[name + ".yielded"] += 1
                yield value
        return wrapper

    def window_counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            windows = fn(*args, **kwargs)
            self.counts[name] += sum(1 for _, w in windows if w)
            return windows
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced callable in every binding a roelab module
        holds, and the traced methods on their classes."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "roelab" or n.startswith("roelab."))]
        plain = [(name, mod, attr, self.timed) for name, (mod, attr)
                 in FUNCTIONS.items()]
        plain.append((WINDOWS[0], WINDOWS[1], WINDOWS[2], self.window_counter))
        for name, mod, attr, make in plain:
            original = getattr(sys.modules[mod], attr)
            wrapper = make(name, original)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {mod}.{attr} found")
        for name, targets in METHODS.items():
            for mod, cls_name, attr in targets:
                self._patch_method(name, mod, cls_name, attr, self.timed)
        for name, (mod, cls_name, attr) in GENERATORS.items():
            original = getattr(getattr(sys.modules[mod], cls_name), attr)
            if not inspect.isgeneratorfunction(original):
                raise RuntimeError(f"{cls_name}.{attr} is no generator")
            self._patch_method(name, mod, cls_name, attr, self.generator)

    def _patch_method(self, name, mod, cls_name, attr, make):
        cls = getattr(sys.modules[mod], cls_name)
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(name, original))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Counts and self times (ms) as they stand, for round deltas."""
        out = {k: float(v) for k, v in self.counts.items()}
        out.update({k + ".ms": 1e3 * v for k, v in self.self_s.items()})
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def per_layer(setup, rounds):
    """Per-layer metrics of one pass: one set-up plus one round.

    `setup` and each entry of `rounds` are snapshot deltas.  Counts must
    repeat exactly from round to round (the rounds repeat the same items);
    times are the mean over the rounds.
    """
    keys = set(setup).union(*rounds) if rounds else set(setup)
    out, unsteady = {}, []
    for key in sorted(keys):
        values = [r.get(key, 0.0) for r in rounds]
        if not key.endswith(".ms") and len(set(values)) > 1:
            unsteady.append(key)
        loop = sum(values) / len(values) if values else 0.0
        out[key] = setup.get(key, 0.0) + loop
    return out, unsteady
