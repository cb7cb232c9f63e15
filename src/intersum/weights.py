"""Total intersection-size functionals over families.

omega_family sums |A ∩ B| over unordered pairs of distinct members;
omega_cross sums over ordered pairs from two families.  Both count by element
degrees, as the closed forms do: Σ_{A<B} |A ∩ B| = Σ_x C(d(x), 2) and
Σ_{A,B} |A ∩ B| = Σ_x d_A(x) d_B(x), which costs O(|F| k) instead of
O(|F|^2).  intersection_profile buckets the ordered pairs by meet size, from
the same double count over i-sets of elements, which gives every moment of
the histogram: Σ_{A,B} C(|A ∩ B|, i) = Σ_{|S|=i} d_A(S) d_B(S).  A walk over
the sets S that both families cover takes every moment when the inputs pay
for it, and otherwise the two lowest, sweeping the levels above them with
bitsets over members.  Results are exact integers at any size.
"""
from __future__ import annotations

from math import comb

from .setcore import Family, _columns, _require_same_ground, element_degrees


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


def intersection_profile(fam_a: Family, fam_b: Family) -> tuple[int, ...]:
    """Histogram of |A ∩ B| over ordered pairs: entry m counts the pairs
    meeting in exactly m elements, for m = 0..min(k_a, k_b).

    Let reach[j] be the number of pairs meeting in at least j elements.  A
    pair meeting in m elements shares C(m, i) i-sets, so the i-th moment is a
    sum of co-degree products (col[x], the bitset of a family's members
    holding element x + 1, and d(S) the popcount of the AND of S's columns):

        moments[i] = Σ_{A,B} C(|A ∩ B|, i) = Σ_{|S|=i} d_A(S) d_B(S)
                   = Σ_{j≥i} C(j−1, i−1) reach[j].

    The histogram is symmetric in its arguments: the family with more members
    is "big", the other "small".  An iterative walk visits the sets S in
    ascending order, carrying the ANDs of S's columns in both families, and
    extends S by a larger element y only while both ANDs stay nonzero (the
    small family's first).  Stopped at depth d, it does one big-column AND
    per nonempty set S of at most d elements that the small family covers, at
    most W(d) = Σ_{1≤i≤d} min(C(n, i), |small| C(k_small, i)) in all, so it
    visits at most W(d) sets besides the empty one, with two popcounts each; from each visited set
    below depth d it tries up to n small-column ANDs.  The walk takes every level, d = top, when
    W(top) ≤ |small| k_small, the element steps of a sweep over the small
    family's members.  Otherwise d = min(2, top), at most C(n, 2) pairs
    whatever the member size, and the levels above 2 are swept: for each
    small member, at_least[j] marks the big members that meet it in at least
    j of the elements seen so far, and each new element moves the members of
    its column up one level.  Then, from level d down,

        reach[i] = moments[i] − Σ_{j>i} C(j−1, i−1) reach[j],

    and pairs meeting in exactly m elements are those meeting in at least m
    less those meeting in at least m + 1.
    """
    _require_same_ground(fam_a, fam_b)
    n, top = fam_a.n, min(fam_a.k, fam_b.k)
    big, small = sorted((fam_a, fam_b), key=len, reverse=True)
    col, col_small = _columns(big.bitmasks, n), _columns(small.bitmasks, n)
    walk = sum(min(comb(n, i), len(small) * comb(small.k, i)) for i in range(1, top + 1))
    depth = top if walk <= len(small) * small.k else min(2, top)
    reach = [len(big) * len(small)] + [0] * top  # pairs meeting in >= j elements
    for bits in small.bitmasks if depth < top else ():
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
        for j in range(depth + 1, top + 1):
            reach[j] += at_least[j].bit_count()
    moments = [0] * (depth + 1)
    # a node is (first element it may add, |S|, big AND, small AND); the root
    # S = {} holds every member, and the sets of depth d are summed, not pushed
    stack = [(0, 0, (1 << len(big)) - 1, (1 << len(small)) - 1)]
    while stack:
        start, size, big_and, small_and = stack.pop()
        moments[size] += big_and.bit_count() * small_and.bit_count()
        if size + 1 < depth:
            for y in range(start, n):
                meet_small = small_and & col_small[y]
                if meet_small:
                    meet_big = big_and & col[y]
                    if meet_big:
                        stack.append((y + 1, size + 1, meet_big, meet_small))
        elif size < depth:
            last = 0
            for y in range(start, n):
                meet_small = small_and & col_small[y]
                if meet_small:
                    last += (big_and & col[y]).bit_count() * meet_small.bit_count()
            moments[depth] += last
    for i in range(depth, 0, -1):
        reach[i] = moments[i] - sum(comb(j - 1, i - 1) * reach[j] for j in range(i + 1, top + 1))
    reach.append(0)
    return tuple(reach[m] - reach[m + 1] for m in range(top + 1))
