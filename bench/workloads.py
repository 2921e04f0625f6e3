"""The four benchmark workloads.

Each one builds its inputs from the seed through the library (the timed
set-up), then times rounds of items of one kind.  The items of a round are
fixed at set-up, so every round repeats the same work and the oracles in
`checks` are computed once per item and reused while the program's output
repeats exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

import roelab.cli as cli
import roelab.expander as ex
import roelab.ideals as il
import roelab.limitop as lo
import roelab.operator as opr
import roelab.space as sp
import roelab.witness as wt

import checks


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _same_output(cache, index, key):
    """True when item `index` produced exactly `key` before, so the cached
    oracle still applies; otherwise forgets the old oracle."""
    hit = cache.get(index)
    if hit is not None and len(hit[0]) == len(key) and all(
            np.array_equal(a, b) for a, b in zip(hit[0], key)):
        return True
    cache.pop(index, None)
    return False


def _coo(T):
    return (T.rows, T.cols, T.vals)


# Power iteration on T*T closes in on the norm by (s2/s1)^2 a step.  When
# the top two singular values lie closer than about 0.9995 the program's
# stop rule needs more than its 10n steps and it raises
# NormConvergenceError (a FOUND line of CHANGES.md), on about one random
# 676-point operator in a hundred.  The workloads draw their operators for
# the power-iteration path again until numpy shows a gap of this size.
POWER_GAP_MAX = 0.998


def _power_iteration_converges(T):
    s = np.linalg.svd(checks.dense(T.space.n, *_coo(T)), compute_uv=False)
    return s[1] <= POWER_GAP_MAX * s[0]


@dataclass
class State:
    items: list
    data: dict = field(default_factory=dict)


class Sweep:
    """Two-sided localization constants over window diameters for three
    fixed operators: the 500-point normalized path and the 24 x 24
    normalized grid (dense norm path), and a seeded random band operator on
    the 26 x 26 sup grid (676 points, power-iteration norm path)."""

    name = "sweep"
    tail_pct = 90
    PATH_N = 500
    GRID_SIDE = 24
    RANDOM_SIDE = 26
    S_VALUES = {"path": range(2, 21, 2), "grid": range(2, 12),
                "random": range(2, 8)}

    def draw(self, seed):
        """The random operator's seed, one with a spectral gap."""
        rng = _rng(seed, 1)
        space = sp.build_grid_space(2, self.RANDOM_SIDE, "sup")
        while True:
            op_seed = int(rng.integers(2 ** 31))
            if _power_iteration_converges(
                    cli.random_band_operator(space, 2, 0.5, op_seed)):
                return op_seed

    def build(self, op_seed):
        ops = {
            "path": opr.BandOperator.adjacency(
                sp.build_grid_space(1, self.PATH_N, "graph"), normalize=True),
            "grid": opr.BandOperator.adjacency(
                sp.build_grid_space(2, self.GRID_SIDE, "graph"),
                normalize=True),
            "random": cli.random_band_operator(
                sp.build_grid_space(2, self.RANDOM_SIDE, "sup"), 2, 0.5,
                op_seed),
        }
        items = [(key, S) for key, values in self.S_VALUES.items()
                 for S in values]
        return State(items=items, data={"ops": ops})

    def run_item(self, state, index):
        key, S = state.items[index]
        return wt.localization_constant(state.data["ops"][key], S)

    def _oracle(self, state, key, cache):
        if key not in cache:
            T = state.data["ops"][key]
            matrix = checks.dense(T.space.n, *_coo(T))
            cache[key] = (matrix, checks.spectral_norm(matrix))
        return cache[key]

    def check_item(self, state, index, rep, cache):
        key, S = state.items[index]
        matrix, norm = self._oracle(state, key, cache)
        problems = checks.check_window(matrix, rep.witness_window,
                                       rep.window_norm, rep.witness_vector)
        if not checks.rel_close(rep.operator_norm, norm, checks.NORM_REL_TOL):
            problems.append(f"{key} norm {rep.operator_norm!r} but numpy's "
                            f"SVD gives {norm!r}")
        if not checks.rel_close(rep.best_constant,
                                rep.window_norm / rep.operator_norm, 1e-12):
            problems.append("constant is not window norm / operator norm")
        if key == "path":
            problems += checks.check_closed_form(
                f"path window norm at S={S}", rep.window_norm,
                math.cos(math.pi / (S + 2)))
            problems += checks.check_closed_form(
                "path norm", rep.operator_norm,
                math.cos(math.pi / (self.PATH_N + 1)), tol=1e-9)
        elif key == "grid":
            problems += checks.check_closed_form(
                "grid norm", rep.operator_norm,
                math.cos(math.pi / (self.GRID_SIDE + 1)), tol=1e-9)
        return problems

    def check_round(self, state, outputs):
        path = [outputs[i].window_norm for i, (key, _) in
                enumerate(state.items) if key == "path" and i in outputs]
        return checks.check_non_decreasing("path window norm over S", path)


class Certify:
    """Localization-resistance certificates: each item builds the
    Chebyshev-approximated expander blocks of one certified family and
    bounds their distance to a finite-sets family from below."""

    name = "certify"
    tail_pct = 80
    SIZES = (60, 120, 240)
    S_SCHEDULE = (2, 3, 4)
    FAMILIES = 6
    KAPPA = 0.3
    LAM_MAX = 2.9
    DEGREE = 3

    def draw(self, seed):
        rng = _rng(seed, 2)
        return [int(rng.integers(2 ** 30)) for _ in range(self.FAMILIES)]

    def build(self, bases):
        families = []
        for base in bases:
            graphs = tuple(ex.random_regular_expander(
                n, self.DEGREE, self.LAM_MAX, seed=base + 97 * i)
                for i, n in enumerate(self.SIZES))
            families.append(ex.ExpanderFamily(graphs=graphs,
                                              gap_threshold=self.LAM_MAX))
        return State(items=families)

    def run_item(self, state, index):
        family = state.items[index]
        space, blocks, kappa = ex.resistance_blocks(
            family, self.KAPPA, list(self.S_SCHEDULE))
        offsets = np.cumsum([0] + [g.n for g in family.graphs[:-1]])
        total = blocks[0][0]
        for op, _ in blocks[1:]:
            total = total + op
        seeds = il.finite_sets_family(space, [int(o) for o in offsets],
                                      max_union=2)
        bound = il.block_lower_bound(total, seeds, [p for _, p in blocks])
        return blocks, kappa, bound

    def check_item(self, state, index, out, cache):
        family = state.items[index]
        blocks, kappa, bound = out
        key = tuple(a for op, _ in blocks for a in _coo(op))
        if _same_output(cache, index, key):
            verdict = cache[index][1]
        else:
            verdict = self._verdict(family, blocks)
            cache[index] = (key, verdict)
        return verdict + checks.check_certificate_values(
            kappa, bound, self.KAPPA)

    def _verdict(self, family, blocks):
        """Problems found in the blocks themselves; a function of the
        output operators alone, so it is kept while they repeat."""
        dense_blocks, problems = [], []
        offset = 0
        for (op, pts), g in zip(blocks, family.graphs):
            if pts != frozenset(range(offset, offset + g.n)):
                problems.append(f"block at offset {offset} has wrong points")
            inside = ((op.rows >= offset) & (op.rows < offset + g.n)
                      & (op.cols >= offset) & (op.cols < offset + g.n))
            if not inside.all():
                problems.append(f"block at offset {offset} leaves its points")
            dense_blocks.append((checks.dense(g.n, op.rows - offset,
                                              op.cols - offset, op.vals), g.n))
            offset += g.n
        lams = [checks.second_eigenvalue_of(g.n, g.degree, g.edges)
                for g in family.graphs]
        return problems + checks.check_blocks(dense_blocks, lams)

    def check_round(self, state, outputs):
        return []


def _path_blocks(sizes):
    edges, blocks, offset = [], [], 0
    for size in sizes:
        edges += [(i, i + 1) for i in range(offset, offset + size - 1)]
        blocks.append(tuple(range(offset, offset + size)))
        offset += size
    return edges, blocks


class Ghost:
    """Ghostly cross-validation of planted operators on two separated path
    spaces: three 40-point generator columns searched exhaustively, and 18
    disjoint 12-point generator blocks with unbounded unions, whose search
    counts 2^18 combinations and then runs greedily.  Six 21-point escape
    blocks carry the planted tails on both."""

    name = "ghost"
    tail_pct = 85
    # family -> (generator sizes, union cap, planted tail kinds of its items).
    # A non-ghostly verdict on the block family tries every k and costs
    # about 1.2x a ghostly one; with one such item a round, the median and
    # the p85 item both fall among the five ghostly block items, where the
    # costs are alike, and not on the edge between two groups.
    FAMILIES = {"columns": ((40, 40, 40), 3, (0, 1, 2, 3)),
                "blocks": ((12,) * 18, None, (0, 1, 0, 1, 0, 3))}
    ESCAPES = (21,) * 6
    SEPARATION = 30.0
    K_CAP = 10
    WINDOW = 5
    TAIL = 4

    def draw(self, seed):
        return seed

    def build(self, seed):
        rng = _rng(seed, 3)
        eps_min = min(il.DEFAULT_EPS_GRID)
        items = []
        for key, (sizes, max_union, kinds) in self.FAMILIES.items():
            edges, blocks = _path_blocks(sizes + self.ESCAPES)
            sched = [self.SEPARATION * (k + 1) for k in range(len(blocks))]
            space = sp.build_graph_space(edges, separation_schedule=sched)
            gens, escapes = blocks[:len(sizes)], blocks[len(sizes):]
            family = il.IdealFamily(space, tuple(frozenset(g) for g in gens),
                                    max_union=max_union)
            seq = lo.DirectionSequence(tuple(b[len(b) // 2] for b in escapes))
            seq.validate(space)
            for kind in kinds:
                entries = {}
                for g in gens:
                    for x in g:
                        for y in g:
                            if abs(x - y) <= 2 and rng.random() < 0.15:
                                entries[(x, y)] = complex(
                                    rng.standard_normal())
                if kind == 0:
                    tail = []
                elif kind == 1:   # decays far below every threshold
                    scale = float(rng.uniform(1e-6, 1e-4))
                    tail = [scale / (b + 1) for b in range(len(escapes))]
                elif kind == 2:   # constant mass
                    tail = [float(rng.uniform(0.05, 0.5))] * len(escapes)
                else:             # decays slowly, above the smallest threshold
                    scale = float(rng.uniform(0.05, 0.5))
                    tail = [scale / (b + 1) for b in range(len(escapes))]
                for b, value in zip(escapes, tail):
                    for x in b:
                        entries[(x, x)] = value
                T = opr.BandOperator.from_entries(space, entries)
                truth = checks.planted_ghostly(tail, eps_min)
                items.append((key, T, family, seq, truth))
        return State(items=items)

    def run_item(self, state, index):
        _, T, family, seq, _ = state.items[index]
        return lo.cross_validate_ghostly(
            T, family, [seq], k_cap=self.K_CAP, window_radius=self.WINDOW,
            tail=self.TAIL)

    def check_item(self, state, index, report, cache):
        return checks.check_verdict(report, state.items[index][4])

    def check_round(self, state, outputs):
        return []


class Band:
    """Random band operators built by `random_band_operator` and queried:
    truncation, eps-support, norm, ghost profile and one empirical limit
    window.  Spaces: the 26 x 26 graph-metric grid (676 points, above the
    dense-norm cut-off, so its norms take the power-iteration path), and on
    the dense-norm path the 400-point path, the 16 x 16 sup grid and a
    seeded 400-point 3-regular graph."""

    name = "band"
    # The costliest items are the ten grid operators, whose power iteration
    # takes longer the smaller the operator's spectral gap; p90 rests on the
    # four slowest of them and so on the seed more than on the program.
    tail_pct = 80
    PROPAGATION = 3
    PER_SPACE = 10
    EPS_POOL = (0.5, 0.2, 0.1, 0.05)
    WINDOW = 2
    TAIL = 4
    TOL = lo.DEFAULT_OSCILLATION_TOL
    REGULAR_N = 400

    GRIDS = {"grid": (2, 26, "graph"), "path": (1, 400, "graph"),
             "sup": (2, 16, "sup")}

    def draw(self, seed):
        """The regular graph's edges and each item's (space, density,
        operator seed, eps); the grid's operators have a spectral gap."""
        rng = _rng(seed, 4)
        graph_seed = int(rng.integers(2 ** 30))
        while True:
            g = nx.random_regular_graph(3, self.REGULAR_N, seed=graph_seed)
            if nx.is_connected(g):
                break
            graph_seed += 1
        edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
        grid = sp.build_grid_space(*self.GRIDS["grid"])
        items = []
        for _ in range(self.PER_SPACE):
            for key in (*self.GRIDS, "regular"):
                while True:
                    density = float(rng.uniform(0.1, 0.6))
                    op_seed = int(rng.integers(2 ** 31))
                    if key != "grid" or _power_iteration_converges(
                            cli.random_band_operator(grid, self.PROPAGATION,
                                                     density, op_seed)):
                        break
                items.append((key, density, op_seed,
                              self.EPS_POOL[len(items) % len(self.EPS_POOL)]))
        return edges, items

    def build(self, drawn):
        edges, items = drawn
        spaces = {key: sp.build_grid_space(*grid)
                  for key, grid in self.GRIDS.items()}
        spaces["regular"] = sp.build_graph_space(edges)
        queries = {}
        for key, space in spaces.items():
            n = space.n
            exhaustion = [set(range(math.ceil(n * q / 4))) for q in (1, 2, 3, 4)]
            seq = lo.DirectionSequence.from_name("powers:2", n - self.WINDOW)
            queries[key] = (exhaustion, seq)
        return State(items=items, data={"spaces": spaces, "queries": queries,
                                        "edges": edges})

    def run_item(self, state, index):
        key, density, op_seed, eps = state.items[index]
        space = state.data["spaces"][key]
        exhaustion, seq = state.data["queries"][key]
        T = cli.random_band_operator(space, self.PROPAGATION, density, op_seed)
        truncated = T.truncate(eps)
        support = T.epsilon_support(eps)
        norm = opr.operator_norm(T)
        profile = T.ghost_profile(exhaustion)
        try:
            limit, _ = lo.empirical_limit_operator(
                T, seq, window_radius=self.WINDOW, tail=self.TAIL,
                tol=self.TOL)
            w = self.WINDOW
            outcome = ("limit", {(x - w, y - w): v
                                 for (x, y), v in limit.entries().items()})
        except lo.NoEmpiricalLimit as exc:
            outcome = ("offenders", exc.offenders)
        return T, truncated, support, norm, profile, outcome

    def _distances(self, state, key, cache):
        name = ("distances", key)
        if name not in cache:
            space = state.data["spaces"][key]
            if key == "regular":
                cache[name] = checks.graph_distances(space.n,
                                                     state.data["edges"])
            else:
                cache[name] = checks.grid_distances(space.dims, space.side,
                                                    space.metric_kind)
        return cache[name]

    def check_item(self, state, index, out, cache):
        key, _, _, eps = state.items[index]
        T, truncated, support, norm, profile, outcome = out
        exhaustion, seq = state.data["queries"][key]
        problems = []
        if truncated.support() != support:
            problems.append("truncated support differs from the eps-support")
        if _same_output(cache, index, _coo(T) + _coo(truncated)):
            verdicts = cache[index][1]
        else:
            matrix = checks.dense(T.space.n, *_coo(T))
            distances = self._distances(state, key, cache)
            terms = seq.points[-self.TAIL:]
            verdicts = {
                "truncation": checks.check_truncation(
                    matrix, checks.dense(T.space.n, *_coo(truncated)), eps,
                    truncated.propagation, distances, self.PROPAGATION),
                "norm": checks.spectral_norm(matrix),
                "profile": checks.ghost_profile_of(matrix, exhaustion),
                "tail": checks.tail_offenders(matrix, terms, self.WINDOW,
                                              self.TOL),
            }
            cache[index] = (_coo(T) + _coo(truncated), verdicts)
        problems += verdicts["truncation"]
        if not checks.rel_close(norm, verdicts["norm"], checks.NORM_REL_TOL):
            problems.append(f"norm {norm!r} but numpy's SVD gives "
                            f"{verdicts['norm']!r}")
        if list(profile) != verdicts["profile"]:
            problems.append(f"ghost profile {profile} but numpy gives "
                            f"{verdicts['profile']}")
        problems += checks.compare_limit(outcome, *verdicts["tail"])
        return problems

    def check_round(self, state, outputs):
        return []


WORKLOADS = {w.name: w for w in (Sweep(), Certify(), Ghost(), Band())}
