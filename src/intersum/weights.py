"""Total intersection-size functionals over families.

omega_family sums |A ∩ B| over unordered pairs of distinct members;
omega_cross sums over ordered pairs from two families.  Both count by element
degrees, as the closed forms do: Σ_{A<B} |A ∩ B| = Σ_x C(d(x), 2) and
Σ_{A,B} |A ∩ B| = Σ_x d_A(x) d_B(x), which costs O(|F| k) instead of
O(|F|^2).  intersection_profile buckets the ordered pairs by meet size with
bitsets over members.  Results are exact integers at any size; omega_generic
keeps the plain pair loop for arbitrary weights and as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .setcore import Family, KSet, _require_same_ground, element_degrees

PairWeight = Callable[[KSet, KSet], int]


def meet_weight(a: KSet, b: KSet) -> int:
    return a.meet_size(b)


def unit_weight(a: KSet, b: KSet) -> int:
    return 1


@dataclass(frozen=True)
class Profile:
    """counts[m] = number of pairs with intersection size exactly m."""

    counts: tuple[int, ...]

    @property
    def total_pairs(self) -> int:
        return sum(self.counts)

    @property
    def weighted_sum(self) -> int:
        return sum(m * c for m, c in enumerate(self.counts))


def omega_family(family: Family) -> int:
    """Sum of |A ∩ B| over unordered pairs of distinct members."""
    return sum(d * (d - 1) // 2 for d in element_degrees(family))


def omega_cross(fam_a: Family, fam_b: Family) -> int:
    """Sum of |A ∩ B| over ordered pairs (A from fam_a, B from fam_b)."""
    _require_same_ground(fam_a, fam_b)
    return sum(x * y for x, y in zip(element_degrees(fam_a), element_degrees(fam_b)))


def omega_cross_strict(fam_a: Family, fam_b: Family) -> int:
    """omega_cross restricted to pairs with A != B as sets."""
    # Families are duplicate-free, so each common set contributes exactly one
    # ordered pair (S, S) with |S ∩ S| = |S|.
    common = set(fam_a.bitmasks) & set(fam_b.bitmasks)
    return omega_cross(fam_a, fam_b) - sum(b.bit_count() for b in common)


def pair_count(fam_a: Family, fam_b: Family, strict: bool = False) -> int:
    """Number of ordered pairs (A, B), without A = B when strict: omega_generic
    with unit_weight, in closed form."""
    _require_same_ground(fam_a, fam_b)
    pairs = len(fam_a) * len(fam_b)
    if strict:
        pairs -= len(set(fam_a.bitmasks) & set(fam_b.bitmasks))
    return pairs


def intersection_profile(fam_a: Family, fam_b: Family) -> Profile:
    """Histogram of |A ∩ B| over ordered pairs; indices 0..min(k_a, k_b).

    The histogram is symmetric in its arguments, so the larger family becomes
    bit positions: col[x] marks its members containing x.  For each member y
    of the other family, lev[j] marks the members that meet y in exactly j of
    the elements of y seen so far.
    """
    _require_same_ground(fam_a, fam_b)
    top = min(fam_a.k, fam_b.k)
    big, small = sorted((fam_a.bitmasks, fam_b.bitmasks), key=len, reverse=True)
    full = (1 << len(big)) - 1
    col = [0] * fam_a.n
    for i, bits in enumerate(big):
        while bits:
            low = bits & -bits
            col[low.bit_length() - 1] |= 1 << i
            bits ^= low
    counts = [0] * (top + 1)
    for bits in small:
        lev = [full] + [0] * top
        seen = 0
        while bits:
            low = bits & -bits
            c = col[low.bit_length() - 1]
            out = full ^ c
            seen = min(seen + 1, top)
            for j in range(seen, 0, -1):
                lev[j] = (lev[j] & out) | (lev[j - 1] & c)
            lev[0] &= out
            bits ^= low
        for j, members in enumerate(lev):
            counts[j] += members.bit_count()
    return Profile(tuple(counts))


def omega_generic(
    fam_a: Family,
    fam_b: Family,
    weight: PairWeight = meet_weight,
    strict: bool = False,
) -> int:
    """Ordered-pair sum of an arbitrary pair weight (always the plain loop)."""
    _require_same_ground(fam_a, fam_b)
    total = 0
    for a in fam_a.members:
        for b in fam_b.members:
            if strict and a.bits == b.bits:
                continue
            total += weight(a, b)
    return total
