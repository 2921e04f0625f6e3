"""Empirical limit operators along sparse direction sequences, vanishing
tests, and the integer sparse-set combinatorics behind them.

A direction sequence is a strictly escaping list of points standing in for
a boundary direction.  The limit entry at offset (i, j) is taken from the
tail terms T(h + i, h + j); the entry counts as converged when its
oscillation (max - min over the tail) is below tolerance, and an oscillating
entry is an honest "no empirical limit" outcome rather than a forced choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import BandOperator
from .space import GridSpace, build_grid_space

DEFAULT_TAIL = 8
DEFAULT_WINDOW_RADIUS = 10
DEFAULT_OSCILLATION_TOL = 1e-9


class DirectionError(ValueError):
    pass


class NoEmpiricalLimit(RuntimeError):
    def __init__(self, offenders):
        super().__init__(
            f"{len(offenders)} window entries oscillate beyond tolerance: "
            f"{sorted(offenders)[:5]}{'...' if len(offenders) > 5 else ''}")
        self.offenders = offenders


@dataclass(frozen=True)
class DirectionSequence:
    """Strictly escaping point list h_1, h_2, ... (by distance from the
    basepoint, which is point id 0, the lexicographically smallest)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise DirectionError("direction sequence needs at least 2 points")

    def validate(self, space, basepoint=0):
        dists = [space.distance(basepoint, p) for p in self.points]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise DirectionError(
                "distances from the basepoint must strictly increase")
        return self

    def gaps(self, space):
        return [space.distance(a, b)
                for a, b in zip(self.points, self.points[1:])]

    def has_spreading_certificate(self, space):
        """Successive gaps non-decreasing: the finite form of pairwise
        distances growing with the index sum."""
        g = self.gaps(space)
        return all(b >= a for a, b in zip(g, g[1:]))

    @classmethod
    def from_name(cls, name, limit):
        """Named integer generators: `squares`, `powers:b`, `affine:a,b`."""
        if name == "squares":
            pts = [k * k for k in range(1, int(np.sqrt(limit)) + 1)]
        elif name.startswith("powers:"):
            b = int(name.split(":")[1])
            pts, v = [], b
            while v < limit:
                pts.append(v)
                v *= b
        elif name.startswith("affine:"):
            a, b = (int(t) for t in name.split(":")[1].split(","))
            pts = [a * k + b for k in range(limit) if 0 <= a * k + b < limit]
        else:
            raise DirectionError(f"unknown sequence generator {name!r}")
        return cls(tuple(pts))


def _window_values(T, seq, window_radius, tail):
    """values[(i, j)] = list of T(h + i, h + j) over the last `tail` terms."""
    if tail < 2:
        raise DirectionError("tail must have at least 2 terms")
    if len(seq.points) < tail:
        raise DirectionError(
            f"sequence has {len(seq.points)} terms, tail needs {tail}")
    n = T.space.n
    w = int(window_radius)
    terms = seq.points[-tail:]
    for h in terms:
        if h - w < 0 or h + w >= n:
            raise DirectionError(
                f"tail point {h} is within {w} of the id boundary")
    lookup = {}
    for x, y, v in zip(T.rows, T.cols, T.vals):
        lookup[(int(x), int(y))] = complex(v)
    values = {}
    for i in range(-w, w + 1):
        for j in range(-w, w + 1):
            values[(i, j)] = [lookup.get((h + i, h + j), 0j) for h in terms]
    return values


def empirical_limit_operator(T, seq, window_radius=DEFAULT_WINDOW_RADIUS,
                             tail=DEFAULT_TAIL,
                             tol=DEFAULT_OSCILLATION_TOL):
    """Stabilized window of T around the sequence tail.

    Returns (limit, diagnostics) where limit is a band operator on a fresh
    1-d window space whose id w + i stands for offset i, and diagnostics
    maps each offset pair to its oscillation.  Raises NoEmpiricalLimit when
    any entry oscillates beyond `tol`.
    """
    values = _window_values(T, seq, window_radius, tail)
    w = int(window_radius)
    oscillation = {}
    offenders = set()
    entries = {}
    for (i, j), vals in values.items():
        arr = np.array(vals)
        osc = float(np.abs(arr[:, None] - arr[None, :]).max())
        oscillation[(i, j)] = osc
        if osc > tol:
            offenders.add((i, j))
        entries[(i + w, j + w)] = vals[-1]
    if offenders:
        raise NoEmpiricalLimit(offenders)
    window_space = build_grid_space(1, 2 * w + 1, "graph")
    limit = BandOperator.from_entries(window_space, entries)
    diagnostics = {"oscillation": oscillation,
                   "max_oscillation": max(oscillation.values()),
                   "tail": tail, "window_radius": w}
    return limit, diagnostics


def vanishing_in_direction(T, seq, window_radius=DEFAULT_WINDOW_RADIUS,
                           tail=DEFAULT_TAIL, eps=2.0 ** -12):
    """True when every window entry along the tail stays below eps in
    modulus and oscillates less than eps."""
    values = _window_values(T, seq, window_radius, tail)
    for vals in values.values():
        arr = np.array(vals)
        if np.abs(arr).max() >= eps:
            return False
        if np.abs(arr[:, None] - arr[None, :]).max() >= eps:
            return False
    return True


def cross_validate_ghostly(T, family, seqs, eps_grid=None, k_cap=None,
                           window_radius=DEFAULT_WINDOW_RADIUS,
                           tail=DEFAULT_TAIL):
    """Compare the threshold-support route with the direction route.

    Every sequence must escape the family: its tail points may not lie in
    any k_cap-neighbourhood of a generator.  Returns a report with both
    verdicts and any discrepancy witnesses.
    """
    from .ideals import DEFAULT_EPS_GRID, default_k_cap, ghostly_membership
    from .space import neighbourhood

    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    if k_cap is None:
        k_cap = default_k_cap(family.space)
    for si, seq in enumerate(seqs):
        tail_pts = set(seq.points[-tail:])
        for gi, gen in enumerate(family.generators):
            hood = neighbourhood(family.space, gen, k_cap)
            if tail_pts & hood:
                raise DirectionError(
                    f"sequence {si} does not escape generator {gi}")
    ghostly, failing_eps = ghostly_membership(T, family, eps_grid, k_cap)
    eps = min(eps_grid)
    per_seq = []
    for seq in seqs:
        per_seq.append(vanishing_in_direction(
            T, seq, window_radius=window_radius, tail=tail, eps=eps))
    vanishes = all(per_seq)
    return {
        "ghostly": ghostly,
        "failing_eps": failing_eps,
        "vanishes_in_all_directions": vanishes,
        "per_sequence": per_seq,
        "agree": ghostly == vanishes,
        "eps": eps,
        "k_cap": k_cap,
    }


def translate_intersection(H, g, bound):
    """{h in H : h - g in H}, for H a set of integers within [0, bound]."""
    H = set(int(h) for h in H)
    if any(h < 0 or h > bound for h in H):
        raise DirectionError("set escapes the stated bound")
    return {h for h in H if h - g in H}


def sparsity_certificate(H):
    """Gaps of the sorted set are non-decreasing: the finite form of
    pairwise distances escaping with the index sum."""
    hs = sorted(H)
    gaps = [b - a for a, b in zip(hs, hs[1:])]
    return all(b >= a for a, b in zip(gaps, gaps[1:]))


def build_disjoint_translates(H, n_max, bound):
    """Pairs (g_n, B_n) with g_n = n and B_n = H minus the union of the
    back-translates H - g_1, ..., H - g_n; the shifted sets B_n + g_n are
    pairwise disjoint, which the construction audits before returning."""
    H = set(int(h) for h in H)
    if not sparsity_certificate(H):
        raise DirectionError(
            "sparsity certificate failed; construction refused")
    pairs = []
    removed = set()
    for n in range(n_max + 1):
        if n > 0:
            removed |= {h - n for h in H}
        B = frozenset(H - removed)
        pairs.append((n, B))
    shifted = [frozenset(b + g for b in B) for g, B in pairs]
    for i in range(len(shifted)):
        for j in range(i + 1, len(shifted)):
            if shifted[i] & shifted[j]:
                raise DirectionError(
                    f"disjointness audit failed at pair ({i}, {j})")
    return pairs
