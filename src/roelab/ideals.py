"""Finitely generated ideal families of subsets and the two membership
notions for operators: geometric (supported over a certified subset) and
ghostly (threshold supports certified at every scale on a grid).

A family is described by its generators; a set belongs to the family when
it fits inside a k-neighbourhood of a union of generators.  At finite scale
the union size and the neighbourhood radius must be capped, otherwise every
set is trivially covered; both caps are explicit parameters and are echoed
into every certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .operator import operator_norm
from .space import neighbourhood

DEFAULT_EPS_GRID = tuple(2.0 ** -k for k in range(1, 13))
EXACT_SUBSET_SEARCH_LIMIT = 5000


class IdealError(ValueError):
    pass


@dataclass(frozen=True)
class MembershipCertificate:
    generator_indices: tuple
    k: float


@dataclass(frozen=True)
class IdealFamily:
    """Generators plus the closure caps used by the membership search.

    max_union None means unions of all generators are allowed; a finite
    value m restricts covers to unions of at most m generators, which is
    how "finite union" keeps content on a finite space.
    """

    space: object
    generators: tuple  # tuple of frozensets of point ids
    max_union: object = None  # None or int
    k_grid: tuple = (0, 1, 2, 3, 5, 8, 13, 21)
    _hoods: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        gens = tuple(frozenset(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not set(g) <= set(self.space.points):
                raise IdealError("generator contains points outside the space")

    def union_cap(self):
        return len(self.generators) if self.max_union is None \
            else min(self.max_union, len(self.generators))

    def hoods(self, k):
        """The generators' k-neighbourhoods, computed once per k."""
        if k not in self._hoods:
            self._hoods[k] = tuple(frozenset(neighbourhood(self.space, g, k))
                                   for g in self.generators)
        return self._hoods[k]

    def search_size(self, k_cap):
        """Number of (k, union) pairs an exhaustive search examines."""
        n_ks = sum(1 for k in self.k_grid if k <= k_cap)
        g = len(self.generators)
        return max(n_ks, 1) * sum(math.comb(g, size)
                                  for size in range(1, self.union_cap() + 1))

    def exhaustive(self, k_cap):
        """True when the search fits EXACT_SUBSET_SEARCH_LIMIT, so that a
        negative membership answer is a proof."""
        return self.search_size(k_cap) <= EXACT_SUBSET_SEARCH_LIMIT

    def candidate_sets(self, k_cap):
        """Certified sets N_k(union of <= cap generators), deduplicated,
        yielded with their certificates: smallest k first, then fewest
        generators, then combination order.  Raises IdealError when the
        search size exceeds EXACT_SUBSET_SEARCH_LIMIT."""
        if not self.exhaustive(k_cap):
            raise IdealError(
                f"exhaustive search over {self.search_size(k_cap)} "
                f"generator unions exceeds the limit of "
                f"{EXACT_SUBSET_SEARCH_LIMIT}")
        seen = set()
        for k in (k for k in self.k_grid if k <= k_cap):
            hoods = self.hoods(k)
            for size in range(1, self.union_cap() + 1):
                for combo in itertools.combinations(range(len(hoods)), size):
                    Y = frozenset().union(*(hoods[i] for i in combo))
                    if Y not in seen:
                        seen.add(Y)
                        yield Y, MembershipCertificate(combo, k)


def spatial_ideal(space, A):
    """Single-generator family of the subsets staying near A."""
    return IdealFamily(space, (frozenset(A),))


def finite_sets_family(space, seeds, max_union):
    """Desk-scale stand-in for the family of finite subsets: singleton (or
    small) generators with a hard union cap so that the whole space is not
    trivially covered."""
    gens = tuple(frozenset(s if isinstance(s, (set, frozenset, list, tuple))
                           else (s,)) for s in seeds)
    return IdealFamily(space, gens, max_union=max_union)


def ideal_membership(family, Z, k_cap):
    """Is Z covered by N_k(union of <= cap generators) with k <= k_cap?

    Returns (bool, certificate-or-None).  When `family.exhaustive(k_cap)`
    the certified sets are searched in `candidate_sets` order (smallest k
    first, then fewest generators) and a False is a proof; above the limit
    a greedy cover runs instead, and its False is inconclusive.
    """
    Z = set(Z)
    if k_cap < 0:
        raise IdealError("k_cap must be non-negative")
    if not Z:
        return True, MembershipCertificate((), 0)
    if family.exhaustive(k_cap):
        for Y, cert in family.candidate_sets(k_cap):
            if Z <= Y:
                return True, cert
        return False, None
    cap = family.union_cap()
    for k in (k for k in family.k_grid if k <= k_cap):
        hoods = family.hoods(k)
        chosen, covered = [], set()
        for _ in range(cap):
            best, best_gain = None, 0
            for i, h in enumerate(hoods):
                if i in chosen:
                    continue
                gain = len((Z & h) - covered)
                if gain > best_gain:
                    best, best_gain = i, gain
            if best is None:
                break
            chosen.append(best)
            covered |= hoods[best]
            if Z <= covered:
                return True, MembershipCertificate(tuple(chosen), k)
    return False, None


def ghostly_membership(T, family, eps_grid=DEFAULT_EPS_GRID, k_cap=None):
    """T is ghostly for the family when the row projection of its
    eps-support is covered at every threshold of the grid.

    Returns (bool, largest failing threshold or None).
    """
    if k_cap is None:
        k_cap = default_k_cap(family.space)
    for eps in sorted(eps_grid, reverse=True):
        if not ideal_membership(family, T.epsilon_rows(eps), k_cap)[0]:
            return False, eps
    return True, None


def geometric_distance(T, family, k_cap=None):
    """Upper bound on the distance from T to operators supported over a
    certified set: min over certified Y of ||T - restriction of T to Y x Y||,
    each norm exact or to NORM_RTOL."""
    if k_cap is None:
        k_cap = default_k_cap(family.space)
    best = operator_norm(T)
    for Y, _cert in family.candidate_sets(k_cap):
        best = min(best, operator_norm(T - T.window_restrict(Y, Y)))
        if best == 0.0:
            break
    return best


def block_lower_bound(T, family, blocks, k_cap=None):
    """Lower bound on the distance from T to operators supported over a
    certified set, exhibited on pairwise-disjoint probe blocks: for every
    certified Y pick a block disjoint from Y and measure the corner norm
    there.  A Y with no disjoint block contributes 0."""
    blocks = [frozenset(b) for b in blocks]
    for a, b in itertools.combinations(blocks, 2):
        if a & b:
            raise IdealError("probe blocks overlap")
    if k_cap is None:
        k_cap = default_k_cap(family.space)
    corner_norms = {}

    def corner(block):
        if block not in corner_norms:
            corner_norms[block] = operator_norm(
                T.window_restrict(block, block))
        return corner_norms[block]

    bound = None
    for Y, _cert in family.candidate_sets(k_cap):
        disjoint = [b for b in blocks if not (b & Y)]
        value = max((corner(b) for b in disjoint), default=0.0)
        bound = value if bound is None else min(bound, value)
        if bound == 0.0:
            break
    return 0.0 if bound is None else bound


def default_k_cap(space):
    """A quarter of the diameter: large radii saturate a finite space and
    would trivialize membership."""
    return space.diameter() / 4.0
