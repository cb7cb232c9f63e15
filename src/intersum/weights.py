"""Total intersection-size functionals over families.

omega_family sums |A ∩ B| over unordered pairs of distinct members;
omega_cross sums over ordered pairs from two families.  Both count by element
degrees, as the closed forms do: Σ_{A<B} |A ∩ B| = Σ_x C(d(x), 2) and
Σ_{A,B} |A ∩ B| = Σ_x d_A(x) d_B(x), which costs O(|F| k) instead of
O(|F|^2).  intersection_profile buckets the ordered pairs by meet size with
bitsets over members.  Results are exact integers at any size.
"""
from __future__ import annotations

from .setcore import Family, _columns, _require_same_ground, element_degrees, frozen_record


@frozen_record
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
    """Number of ordered pairs (A, B), without A = B when strict."""
    _require_same_ground(fam_a, fam_b)
    pairs = len(fam_a) * len(fam_b)
    if strict:
        pairs -= len(set(fam_a.bitmasks) & set(fam_b.bitmasks))
    return pairs


def intersection_profile(fam_a: Family, fam_b: Family) -> Profile:
    """Histogram of |A ∩ B| over ordered pairs; indices 0..min(k_a, k_b).

    The histogram is symmetric in its arguments, so the larger family becomes
    bit positions: col[x] marks its members holding element x + 1.  For each
    member y of the other family, at_least[j] marks the members that meet y
    in at least j of the elements of y seen so far, and each new element
    moves the members of its column up one level.  Pairs meeting in exactly
    m elements are those meeting in at least m less those meeting in at
    least m + 1.
    """
    _require_same_ground(fam_a, fam_b)
    top = min(fam_a.k, fam_b.k)
    big, small = sorted((fam_a.bitmasks, fam_b.bitmasks), key=len, reverse=True)
    col = _columns(big, fam_a.n)
    reach = [len(big) * len(small)] + [0] * top  # pairs meeting in >= j elements
    for bits in small:
        at_least = [0] * (top + 1)  # at_least[0], every member, is never read
        seen = 0
        while bits:
            low = bits & -bits
            c = col[low.bit_length() - 1]
            seen = min(seen + 1, top)
            for j in range(seen, 1, -1):
                at_least[j] |= at_least[j - 1] & c
            at_least[1] |= c
            bits ^= low
        for j in range(1, top + 1):
            reach[j] += at_least[j].bit_count()
    reach.append(0)
    return Profile(tuple(reach[m] - reach[m + 1] for m in range(top + 1)))

