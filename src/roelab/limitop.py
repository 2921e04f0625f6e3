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
from .space import build_grid_space

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

    def validate(self, space):
        if not all(0 <= p < space.n for p in self.points):
            raise DirectionError(f"point ids must lie in 0..{space.n - 1}")
        dists = [space.distance(0, p) for p in self.points]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise DirectionError(
                "distances from the basepoint must strictly increase")
        return self

    @classmethod
    def from_name(cls, name, limit):
        """Named integer generators: `squares`, `powers:b` (b >= 2),
        `affine:a,b`."""
        kind, _, arg = name.partition(":")
        try:
            args = tuple(int(t) for t in arg.split(","))
        except ValueError:
            args = ()
        if name == "squares":
            pts = [k * k for k in range(1, int(np.sqrt(limit)) + 1)]
        elif kind == "powers" and len(args) == 1:
            b, = args
            if b < 2:
                raise DirectionError(f"{name!r}: the base must be at least 2")
            pts, v = [], b
            while v < limit:
                pts.append(v)
                v *= b
        elif kind == "affine" and len(args) == 2:
            a, b = args
            pts = [a * k + b for k in range(limit) if 0 <= a * k + b < limit]
        else:
            raise DirectionError(f"unknown or malformed sequence {name!r}")
        return cls(tuple(pts))


def _window_values(T, seq, window_radius, tail):
    """vals[i + w, j + w, t] = T(h_t + i, h_t + j) over the last `tail`
    terms h_t, an array of shape (2w + 1, 2w + 1, tail)."""
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
    offs = np.arange(-w, w + 1)
    terms = np.asarray(terms)
    return T.values_at(terms + offs[:, None, None], terms + offs[:, None])


def _oscillation(vals):
    """Largest |T(h_s + i, h_s + j) - T(h_t + i, h_t + j)| over pairs of tail
    terms, per window entry."""
    return np.abs(vals[..., :, None] - vals[..., None, :]).max(axis=(-2, -1))


def empirical_limit_operator(T, seq, window_radius=DEFAULT_WINDOW_RADIUS,
                             tail=DEFAULT_TAIL,
                             tol=DEFAULT_OSCILLATION_TOL):
    """Stabilized window of T around the sequence tail.

    Returns (limit, diagnostics) where limit is a band operator on a fresh
    1-d window space whose id w + i stands for offset i, and diagnostics
    holds the largest oscillation of an entry.  Raises NoEmpiricalLimit
    when any entry oscillates beyond `tol`.
    """
    vals = _window_values(T, seq, window_radius, tail)
    w = int(window_radius)
    oscillation = _oscillation(vals)
    offenders = {(int(i) - w, int(j) - w)
                 for i, j in np.argwhere(oscillation > tol)}
    if offenders:
        raise NoEmpiricalLimit(offenders)
    m = 2 * w + 1
    rows, cols = np.divmod(np.arange(m * m), m)
    limit = BandOperator(build_grid_space(1, m, "graph"), rows, cols,
                         vals[..., -1].ravel())
    return limit, {"max_oscillation": float(oscillation.max())}


def vanishing_in_direction(T, seq, window_radius=DEFAULT_WINDOW_RADIUS,
                           tail=DEFAULT_TAIL, eps=2.0 ** -12):
    """True when every window entry along the tail stays below eps in
    modulus and oscillates less than eps."""
    vals = _window_values(T, seq, window_radius, tail)
    return bool(np.abs(vals).max() < eps and _oscillation(vals).max() < eps)


def cross_validate_ghostly(T, family, seqs, k_cap=None,
                           window_radius=DEFAULT_WINDOW_RADIUS,
                           tail=DEFAULT_TAIL):
    """Compare the threshold-support route, over DEFAULT_EPS_GRID, with the
    direction route at its smallest threshold.

    Every sequence must escape the family: its tail points may not lie in
    any k_cap-neighbourhood of a generator.  Returns a report with both
    verdicts and any discrepancy witnesses.
    """
    from .ideals import DEFAULT_EPS_GRID, default_k_cap, ghostly_membership

    if k_cap is None:
        k_cap = default_k_cap(family.space)
    for si, seq in enumerate(seqs):
        tail_pts = set(seq.points[-tail:])
        for gi, hood in enumerate(family.hoods(k_cap)):
            if tail_pts & hood:
                raise DirectionError(
                    f"sequence {si} does not escape generator {gi}")
    ghostly, failing_eps = ghostly_membership(T, family, k_cap=k_cap)
    eps = min(DEFAULT_EPS_GRID)
    per_seq = [vanishing_in_direction(T, seq, window_radius=window_radius,
                                      tail=tail, eps=eps) for seq in seqs]
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


def _bounded_set(H, bound):
    """H as a set of ints, refused unless it lies within [0, bound]."""
    H = set(int(h) for h in H)
    if any(h < 0 or h > bound for h in H):
        raise DirectionError("set escapes the stated bound")
    return H


def translate_intersection(H, g, bound):
    """{h in H : h - g in H}, for H a set of integers within [0, bound]."""
    H = _bounded_set(H, bound)
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
    pairwise disjoint, which the construction audits before returning.  H
    must lie within [0, bound]."""
    H = _bounded_set(H, bound)
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
