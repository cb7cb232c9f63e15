"""Total intersection-size functionals over families.

omega_family sums |A ∩ B| over unordered pairs of distinct members;
omega_cross sums over ordered pairs from two families.  Both count by element
degrees, as the closed forms do: Σ_{A<B} |A ∩ B| = Σ_x C(d(x), 2) and
Σ_{A,B} |A ∩ B| = Σ_x d_A(x) d_B(x), which costs O(|F| k) instead of
O(|F|^2).  intersection_profile buckets the ordered pairs by meet size.  Two
of its levels come from moments: the count above gives Σ_{A,B} |A ∩ B|, and
the same count over element pairs, Σ_{A,B} C(|A ∩ B|, 2) =
Σ_{x<y} d_A(xy) d_B(xy), takes at most C(n, 2) co-degree products whatever
the member size.  Only the levels of three or more shared elements are swept,
with bitsets over members.  Results are exact integers at any size.
"""
from __future__ import annotations

from itertools import combinations

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

    Let reach[j] be the number of pairs meeting in at least j elements.  The
    two lowest levels follow from two double counts over the member columns
    (col[x], the bitset of a family's members holding element x + 1):

        M1 = Σ_{j≥1} reach[j]       = Σ_x d_A(x) d_B(x),
        M2 = Σ_{j≥2} (j−1) reach[j] = Σ_{x<y} d_A(xy) d_B(xy),

    the second summing C(|A ∩ B|, 2) by co-degrees over at most C(n, 2)
    element pairs, whatever the member size.  The histogram is symmetric in
    its arguments, so the larger family becomes bit positions, and only the
    levels j ≥ 3 are swept: for each member y of the other family,
    at_least[j] marks the members that meet y in at least j of the elements
    of y seen so far, and each new element moves the members of its column
    up one level.  No member is swept when min(k_a, k_b) ≤ 2.  Pairs meeting
    in exactly m elements are those meeting in at least m less those
    meeting in at least m + 1.
    """
    _require_same_ground(fam_a, fam_b)
    top = min(fam_a.k, fam_b.k)
    big, small = sorted((fam_a.bitmasks, fam_b.bitmasks), key=len, reverse=True)
    col, col_small = _columns(big, fam_a.n), _columns(small, fam_a.n)
    reach = [len(big) * len(small)] + [0] * top  # pairs meeting in >= j elements
    for bits in small if top > 2 else ():  # levels 1 and 2 come from M1 and M2
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
        for j in range(3, top + 1):
            reach[j] += at_least[j].bit_count()
    if top > 1:
        second = 0
        for (big_x, small_x), (big_y, small_y) in combinations(zip(col, col_small), 2):
            meet = small_x & small_y
            if meet:
                second += (big_x & big_y).bit_count() * meet.bit_count()
        reach[2] = second - sum((j - 1) * reach[j] for j in range(3, top + 1))
    first = sum(x.bit_count() * y.bit_count() for x, y in zip(col, col_small))
    reach[1] = first - sum(reach[2:])
    reach.append(0)
    return Profile(tuple(reach[m] - reach[m + 1] for m in range(top + 1)))
