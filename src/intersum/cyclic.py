"""Katona's cycle method: cycle orders, their windows, and the sweeps over them.

A cycle order of {1..n} is the tuple of element bits (element e is bit e-1)
in cyclic order, rotated so element 1 comes first.  Rotations are thereby
identified and reflections are not, so there are (n-1)! orders; _orders
yields them with the identity order first.  The length-t window at position s
is the union of the bits at positions s, s+1, ..., s+t-1 (mod n), and
_windows reads all n of them off prefix sums.  For 1 <= t < n a window has
exactly one start, so windows are the intervals of the order.

An ordered pair (A, B) of a k-set and an l-set with |A ∩ B| = m >= 1 is
*representable* in an order when A is the k-window at some position s and B
the l-window at s + k - m: their meet is then the m-window at s + k - m,
which ends where A ends and starts where B starts.  katona_verify checks
that at most k of an order's n k-windows pairwise meet (n >= 2k), and that
for n > 2k every maximum shares an element.  double_count_check counts the
representable pairs of every meet size two ways, per pair across all orders
and per order across pairs, in one pass over the orders.  _interval_patterns
tests the searches' witnesses for the star pattern: in every order, a
family's member windows are those through one position.
"""
from __future__ import annotations

from itertools import accumulate, compress, permutations
from math import factorial
from operator import sub
from typing import Iterator, Sequence

from .errors import HypothesisError, TooLargeError
from .setcore import (
    MAX_SWEEP_GROUND,
    Family,
    _is_int,
    _require_same_ground,
    frozen_record,
    is_cross_intersecting,
)

# All-permutation sweeps are capped at MAX_SWEEP_GROUND, defined in setcore.
# Single-permutation interval analysis only needs the 2^n subset walk.
MAX_SINGLE_GROUND = 16


# ---------------------------------------------------------------------------
# windows of a cycle order, and the sweeps over all orders
# ---------------------------------------------------------------------------


def _windows(order_bits: Sequence[int], t: int) -> list[int]:
    """The n length-t windows of a cycle order; window s starts at position s.

    order_bits holds the element bits in cycle order (1 <= t <= n).  With its
    first t - 1 entries appended, any n consecutive entries are distinct bits,
    so window s is the difference prefix[s + t] - prefix[s] of prefix sums.
    """
    prefix = [0, *accumulate(order_bits + order_bits[: t - 1])]
    return list(map(sub, prefix[t:], prefix))


def _orders(n: int) -> Iterator[tuple[int, ...]]:
    """Element bits of every cycle order: element 1, then each arrangement of
    2..n in itertools.permutations order, so the identity order comes first."""
    for rest in permutations([1 << x for x in range(1, n)]):
        yield (1, *rest)


def _interval_patterns(n: int, families: Sequence[Family]) -> bool:
    """True when, in every cycle order of 1..n, each family's members that
    are windows are exactly the windows through one position, the same
    position for every family (the family's center in that order).

    For each family of k-sets, end_of maps the bitset of start positions of
    the length-k windows through position p to p.
    """
    checks = [
        (f.k, set(f.bitmasks), {sum(1 << (p - j) % n for j in range(f.k)): p for p in range(n)})
        for f in families
    ]
    position_bits = [1 << s for s in range(n)]
    for order in _orders(n):
        center = None
        for t, members, end_of in checks:
            windows = _windows(order, t)
            present = sum(compress(position_bits, map(members.__contains__, windows)))
            p = end_of.get(present)
            if p is None or center not in (None, p):
                return False
            center = p
    return True


# ---------------------------------------------------------------------------
# maximum intersecting interval subfamilies
# ---------------------------------------------------------------------------


def _maximum_meeting_sets(masks: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Max size and all maximum pairwise-meeting sets of masks, each as its
    ascending indices: the maximum cliques of the meet graph adj, where
    adj[i] has bit j set when masks i and j (i != j) share an element.

    Subset DP: S is a clique iff S minus its lowest member is, and the lowest
    member is adjacent to everything else.
    """
    n_iv = len(masks)
    adj = [
        sum(1 << j for j, other in enumerate(masks) if j != i and mask & other)
        for i, mask in enumerate(masks)
    ]
    ok = bytearray(1 << n_iv)
    ok[0] = 1
    best, maxima = 0, [0]
    for s in range(1, 1 << n_iv):
        low = s & -s
        rest = s ^ low
        if ok[rest] and (rest & ~adj[low.bit_length() - 1]) == 0:
            ok[s] = 1
            size = s.bit_count()
            if size > best:
                best, maxima = size, [s]
            elif size == best:
                maxima.append(s)
    return best, tuple(tuple(i for i in range(n_iv) if s >> i & 1) for s in maxima)


def _each_shares_element(masks: Sequence[int], cliques: Sequence[Sequence[int]]) -> bool:
    """Every clique's masks have an element in common."""
    for clique in cliques:
        common = -1
        for i in clique:
            common &= masks[i]
        if not common:
            return False
    return True


@frozen_record
class KatonaReport:
    """Outcome of sweeping interval subfamilies of cyclic permutations."""

    n: int
    k: int
    all_perms: bool
    perms_checked: int
    max_size: int
    expected_max: int
    maxima_count: int
    maxima_count_consistent: bool
    all_maxima_fixed: bool
    uniqueness_expected: bool
    ok: bool
    example_maxima: tuple[Family, ...]


def katona_verify(n: int, k: int, all_perms: bool = False) -> KatonaReport:
    """Check that among the n k-intervals of a cyclic permutation, at most k
    pairwise-meeting ones can be chosen, with equality forced through a
    common element when n > 2k.

    With all_perms the sweep covers every cyclic permutation (n <= 8), else
    just the identity cycle (n <= 16).

    The overlap argument: distinct positions of an order hold distinct
    elements, so two k-windows meet exactly when their runs of positions
    overlap, whatever the order.  So every order has the identity order's
    meet graph and maximum cliques (as window positions), which are built
    once: maxima_count_consistent is True by this argument, and each swept
    order is read only to test the maxima of its own windows for a common
    element.
    """
    if not (_is_int(n) and _is_int(k)) or k < 1:
        raise HypothesisError(f"need integers n >= 2k >= 2, got n={n!r}, k={k!r}")
    if n < 2 * k:
        raise HypothesisError(f"interval analysis needs n >= 2k, got n={n}, k={k}")
    limit = MAX_SWEEP_GROUND if all_perms else MAX_SINGLE_GROUND
    if n > limit:
        mode = "all permutations" if all_perms else "one permutation"
        raise TooLargeError(f"katona_verify over {mode} is limited to n <= {limit}, got {n}")

    identity = next(_orders(n))
    masks = _windows(identity, k)
    best, maxima = _maximum_meeting_sets(masks)
    orders = _orders(n) if all_perms else [identity]
    fixed = [_each_shares_element(_windows(order, k), maxima) for order in orders]

    uniqueness_expected = n > 2 * k
    return KatonaReport(
        n=n,
        k=k,
        all_perms=all_perms,
        perms_checked=len(fixed),
        max_size=best,
        expected_max=k,
        maxima_count=len(maxima),
        maxima_count_consistent=True,
        all_maxima_fixed=all(fixed),
        uniqueness_expected=uniqueness_expected,
        ok=best == k and (not uniqueness_expected or all(fixed)),
        # the identity order's maxima are the examples
        example_maxima=tuple(
            Family.from_bitmasks(n, k, [masks[i] for i in clique]) for clique in maxima
        ),
    )


# ---------------------------------------------------------------------------
# double counting of representable pairs across all cyclic permutations
# ---------------------------------------------------------------------------


@frozen_record
class DoubleCountReport:
    """Census of representable pairs with a fixed meet size m."""

    n: int
    k: int
    l: int
    m: int
    perms_checked: int
    pair_count: int
    per_pair_expected: int
    per_pair_ok: bool
    lhs_total: int
    rhs_total: int
    meets_distinct_ok: bool
    meet_bound_checked: bool
    meet_bound_ok: bool
    max_meets_in_one_perm: int
    ok: bool


def double_count_check(fam_a: Family, fam_b: Family) -> tuple[DoubleCountReport, ...]:
    """Census, over all (n-1)! cycle orders, of the representable pairs of
    each meet size m = 1..min(k, l): one report per m, in ascending m.

    Every ordered pair (A, B) with |A ∩ B| = m >= 1 is representable in
    exactly (n-k-l+m)! (k-m)! m! (l-m)! orders, so the sweep total must
    equal that factor times the number of such pairs; when the families are
    cross-intersecting with n >= k + l, at most m distinct meets of size m
    occur in one order.  Each order's windows are built once and read at
    every shift k - m, so an order costs n dictionary lookups per m.

    The one-start argument: a t-window with t < n has one start, and the
    meet of a hit at s is the m-window at s + k - m, so hits at distinct
    starts have distinct meets.  An order's meet count is thus its hit
    count, and meets_distinct_ok is True by this argument.  When
    k + l - m > n the l-window at s + k - m wraps round onto A and meets it
    in more than m elements, so shift k - m looks up the pairs of meet size
    m alone.

    Needs member sizes 1 <= k, l < n (HypothesisError otherwise): a member of
    size n is the whole cycle, which is no interval, so the census does not
    apply to it.
    """
    _require_same_ground(fam_a, fam_b)
    n, k, l = fam_a.n, fam_a.k, fam_b.k
    if n > MAX_SWEEP_GROUND:
        raise TooLargeError(
            f"double_count_check sweeps (n-1)! permutations; limit n <= {MAX_SWEEP_GROUND}"
        )
    if n < 2:
        raise HypothesisError(f"double counting needs n >= 2, got {n}")
    if k >= n or l >= n:
        raise HypothesisError(
            f"double counting needs member sizes below n; got k={k}, l={l}, n={n}"
        )

    sizes = range(1, min(k, l) + 1)
    # every meeting pair, indexed once among the pairs of its meet size
    index: dict[int, dict[tuple[int, int], int]] = {m: {} for m in sizes}
    for a in fam_a.bitmasks:
        for b in fam_b.bitmasks:
            m = (a & b).bit_count()
            if m:
                pairs = index[m]
                pairs[a, b] = len(pairs)
    per_pair = {m: [0] * len(index[m]) for m in sizes}
    most_hits = dict.fromkeys(sizes, 0)
    for order in _orders(n):
        a_windows = _windows(order, k)
        b_windows = _windows(order, l) * 2  # b_windows[s + k - m] for every s < n
        for m in sizes:
            hits = [
                i for i in map(index[m].get, zip(a_windows, b_windows[k - m :])) if i is not None
            ]
            counts = per_pair[m]
            for i in hits:
                counts[i] += 1
            if len(hits) > most_hits[m]:
                most_hits[m] = len(hits)

    check_bound = n >= k + l and is_cross_intersecting(fam_a, fam_b)
    reports = []
    for m in sizes:
        counts = per_pair[m]
        if n - k - l + m >= 0:
            factor = (
                factorial(n - k - l + m) * factorial(k - m) * factorial(m) * factorial(l - m)
            )
        else:
            factor = 0
        lhs, rhs = sum(counts), len(counts) * factor
        per_pair_ok = all(c == factor for c in counts)
        bound_ok = not check_bound or most_hits[m] <= m
        reports.append(
            DoubleCountReport(
                n=n,
                k=k,
                l=l,
                m=m,
                perms_checked=factorial(n - 1),
                pair_count=len(counts),
                per_pair_expected=factor,
                per_pair_ok=per_pair_ok,
                lhs_total=lhs,
                rhs_total=rhs,
                meets_distinct_ok=True,
                meet_bound_checked=check_bound,
                meet_bound_ok=bound_ok,
                max_meets_in_one_perm=most_hits[m],
                ok=lhs == rhs and per_pair_ok and bound_ok,
            )
        )
    return tuple(reports)
