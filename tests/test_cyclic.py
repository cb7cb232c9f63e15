"""The interval maximum sweep and pair double counting over cycle orders."""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersum import cyclic
from intersum.bounds import pm_star_count
from intersum.cyclic import (
    DoubleCountReport,
    KatonaReport,
    double_count_check,
    katona_verify,
)
from intersum.errors import GroundMismatchError, HypothesisError, TooLargeError
from intersum.setcore import Family, is_cross_intersecting, make_family, star


# --- Katona sweep ---

# (n, k) -> (max_size, maxima_count, all_fixed, uniqueness_expected)
KATONA_TABLE = {
    (4, 2): (2, 4, True, False),
    (6, 2): (2, 6, True, True),
    (7, 3): (3, 7, True, True),
    (8, 4): (4, 16, False, False),
}


@pytest.mark.parametrize("n,k", sorted(KATONA_TABLE))
def test_katona_identity_perm(n, k):
    expect_max, maxima, fixed, uniq = KATONA_TABLE[(n, k)]
    r = katona_verify(n, k)
    assert r.ok
    assert r.max_size == r.expected_max == expect_max == k
    assert r.maxima_count == maxima
    assert r.maxima_count_consistent
    assert r.all_maxima_fixed == fixed
    assert r.uniqueness_expected == uniq
    assert r.perms_checked == 1 and not r.all_perms


def test_katona_all_perms():
    r = katona_verify(6, 2, all_perms=True)
    assert r.ok and r.all_perms
    assert r.perms_checked == math.factorial(5)
    assert r.maxima_count == 6


def test_katona_guards():
    with pytest.raises(HypothesisError):
        katona_verify(5, 3)
    with pytest.raises(HypothesisError):
        katona_verify(4, True)
    with pytest.raises(TooLargeError):
        katona_verify(18, 2)
    with pytest.raises(TooLargeError):
        katona_verify(10, 2, all_perms=True)


# --- double counting ---

# (n, k, l, m) -> (pair_count, per_pair_expected, totals)
DC_TABLE = {
    (5, 2, 2, 1): (12, 2, 24),
    (5, 2, 2, 2): (4, 12, 48),
    (6, 2, 2, 1): (20, 6, 120),
    (6, 2, 2, 2): (5, 48, 240),
    (6, 3, 2, 1): (30, 4, 120),
    (6, 3, 2, 2): (20, 12, 240),
}


@pytest.mark.parametrize("n,k,l,m", sorted(DC_TABLE))
def test_double_count_star_pairs(n, k, l, m):
    pairs, per_pair, total = DC_TABLE[(n, k, l, m)]
    rep = double_count_check(star(n, k, 1), star(n, l, 1))[m - 1]
    assert rep.ok and rep.m == m
    assert rep.pair_count == pairs == pm_star_count(n, k, l, m)
    assert rep.per_pair_expected == per_pair
    assert rep.lhs_total == rep.rhs_total == total == pairs * per_pair
    assert rep.perms_checked == math.factorial(n - 1)
    assert rep.meets_distinct_ok
    assert rep.meet_bound_checked and rep.meet_bound_ok
    assert rep.max_meets_in_one_perm == m


def test_double_count_guards():
    with pytest.raises(TooLargeError):
        double_count_check(star(9, 2, 1), star(9, 2, 1))
    with pytest.raises(GroundMismatchError):
        double_count_check(star(5, 2, 1), star(6, 2, 1))
    # n = 1 leaves no member size below n
    with pytest.raises(HypothesisError, match="below n"):
        double_count_check(star(1, 1, 1), star(1, 1, 1))


@pytest.mark.parametrize("n,k,l,m", [(8, 8, 2, 2), (8, 2, 8, 2), (3, 3, 3, 3), (3, 3, 1, 1)])
def test_double_count_refuses_whole_cycle_members(n, k, l, m):
    # a member of size n is the whole cycle, never an interval: the census does
    # not apply at any meet size, the largest, m = min(k, l), included
    assert m == min(k, l)
    with pytest.raises(HypothesisError, match="below n"):
        double_count_check(star(n, k, 1), star(n, l, 1))


def test_double_count_non_star_inputs_still_count():
    # arbitrary families are censused too; only the meet bound needs the cross property
    a = make_family(5, 2, [[1, 2], [3, 4]])
    rep, _ = double_count_check(a, a)
    assert rep.m == 1
    assert rep.pair_count == 0  # no ordered pair meets in exactly one element
    assert rep.lhs_total == rep.rhs_total == 0
    assert not rep.meet_bound_checked  # family is not cross-intersecting with itself
    assert rep.ok


# --- oracles: cycle orders as plain element tuples, arcs read off one by one ---


def cycle_orders(n):
    """Every cycle order of 1..n as an element tuple with 1 first; the
    identity order comes first."""
    return [(1, *rest) for rest in permutations(range(2, n + 1))]


def arc(order, s, t):
    """Bitmask of the t elements of order at positions s, s+1, ... (mod n)."""
    return sum(1 << (order[(s + j) % len(order)] - 1) for j in range(t))


def arc_starts(order, t):
    """Each length-t arc of order (1 <= t < n), mapped to its start position."""
    return {arc(order, s, t): s for s in range(len(order))}


def oracle_dc_chunk(n, k, l, pairs, m):
    """Per-pair census over all orders: (A, B) counts in an order when A, B
    and A ∩ B are arcs, the meet starting where B starts and ending where A
    ends."""
    per_pair = [0] * len(pairs)
    meets_distinct = True
    meet_counts = []
    for order in cycle_orders(n):
        starts_a, starts_b, starts_m = (arc_starts(order, t) for t in (k, l, m))
        seen_meets = set()
        hits = 0
        for idx, (abits, bbits) in enumerate(pairs):
            sa, sb = starts_a.get(abits), starts_b.get(bbits)
            sm = starts_m.get(abits & bbits)
            if None in (sa, sb, sm) or sm != sb or (sm + m - 1) % n != (sa + k - 1) % n:
                continue
            per_pair[idx] += 1
            hits += 1
            if abits & bbits in seen_meets:
                meets_distinct = False
            seen_meets.add(abits & bbits)
        meet_counts.append(len(seen_meets))
        if len(seen_meets) != hits:
            meets_distinct = False
    return per_pair, meets_distinct, meet_counts


def oracle_double_count(fam_a, fam_b, m):
    n, k, l = fam_a.n, fam_a.k, fam_b.k
    pairs = [(a, b) for a in fam_a.bitmasks for b in fam_b.bitmasks if (a & b).bit_count() == m]
    per_pair, meets_distinct, meet_counts = oracle_dc_chunk(n, k, l, pairs, m)
    check_bound = n >= k + l and is_cross_intersecting(fam_a, fam_b)
    bound_ok = all(c <= m for c in meet_counts)
    if n - k - l + m >= 0:
        factor = math.prod(map(math.factorial, (n - k - l + m, k - m, m, l - m)))
    else:
        factor = 0
    per_pair_ok = all(c == factor for c in per_pair)
    lhs, rhs = sum(per_pair), len(pairs) * factor
    return DoubleCountReport(
        n=n,
        k=k,
        l=l,
        m=m,
        perms_checked=math.factorial(n - 1),
        pair_count=len(pairs),
        per_pair_expected=factor,
        per_pair_ok=per_pair_ok,
        lhs_total=lhs,
        rhs_total=rhs,
        meets_distinct_ok=meets_distinct,
        meet_bound_checked=check_bound,
        meet_bound_ok=bound_ok if check_bound else True,
        max_meets_in_one_perm=max(meet_counts),
        ok=lhs == rhs and per_pair_ok and meets_distinct and (bound_ok or not check_bound),
    )


def oracle_max_intersecting(masks):
    """Max size and all maximum index subsets S with pairwise-meeting masks.

    Subset DP: S is intersecting iff S minus its lowest member is, and the
    lowest member meets everything else.
    """
    n_iv = len(masks)
    adj = [0] * n_iv
    for i in range(n_iv):
        for j in range(i + 1, n_iv):
            if masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    ok = bytearray(1 << n_iv)
    ok[0] = 1
    best, maxima = 0, [0]
    for sub in range(1, 1 << n_iv):
        low = sub & -sub
        rest = sub ^ low
        if ok[rest] and (rest & ~adj[low.bit_length() - 1]) == 0:
            ok[sub] = 1
            size = sub.bit_count()
            if size > best:
                best, maxima = size, [sub]
            elif size == best:
                maxima.append(sub)
    return best, maxima


def oracle_sweep_one_order(order, k):
    """(max size, maximum index subsets, all maxima share an element) for order."""
    masks = [arc(order, s, k) for s in range(len(order))]
    best, maxima = oracle_max_intersecting(masks)
    all_fixed = True
    for sub in maxima:
        common = (1 << len(order)) - 1
        s = sub
        while s:
            low = s & -s
            common &= masks[low.bit_length() - 1]
            s ^= low
        if common == 0:
            all_fixed = False
            break
    return best, maxima, all_fixed


def oracle_katona(n, k, all_perms):
    ident, *others = cycle_orders(n)
    best, maxima, all_fixed = oracle_sweep_one_order(ident, k)
    counts = {len(maxima)}
    perms_checked = 1
    if all_perms:
        for order in others:
            b, subs, fixed = oracle_sweep_one_order(order, k)
            best = max(best, b)
            counts.add(len(subs))
            all_fixed = all_fixed and fixed
            perms_checked += 1
    masks = [arc(ident, s, k) for s in range(n)]
    examples = tuple(
        Family.from_bitmasks(n, k, [masks[i] for i in range(n) if sub >> i & 1])
        for sub in maxima
    )
    uniqueness_expected = n > 2 * k
    return KatonaReport(
        n=n,
        k=k,
        all_perms=all_perms,
        perms_checked=perms_checked,
        max_size=best,
        expected_max=k,
        maxima_count=len(maxima),
        maxima_count_consistent=len(counts) == 1,
        all_maxima_fixed=all_fixed,
        uniqueness_expected=uniqueness_expected,
        ok=best == k and len(counts) == 1 and (not uniqueness_expected or all_fixed),
        example_maxima=examples,
    )


@st.composite
def family_pairs(draw, max_n=7, max_members=8):
    """Two families on one ground set, 1 <= k, l < n; may be empty and need not
    cross-intersect."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, n - 1))

    def family(size):
        universe = [sum(1 << x for x in c) for c in combinations(range(n), size)]
        masks = draw(st.lists(st.sampled_from(universe), unique=True, max_size=max_members))
        return Family.from_bitmasks(n, size, masks)

    return family(k), family(l)


@settings(max_examples=60, deadline=None)
@given(family_pairs())
@example((star(5, 2, 1), star(5, 3, 1)))
@example((Family.from_bitmasks(6, 3, []), star(6, 2, 1)))
@example((make_family(6, 2, [[1, 2], [3, 4], [5, 6]]), make_family(6, 2, [[1, 2], [3, 4]])))
@example((make_family(7, 3, [[1, 2, 3], [2, 3, 4], [5, 6, 7]]), star(7, 2, 3)))
@example((star(5, 4, 1), star(5, 4, 2)))  # k + l - m > n for m < 3: wrap-around windows
def test_double_count_matches_oracle(fams):
    fam_a, fam_b = fams
    sizes = range(1, min(fam_a.k, fam_b.k) + 1)
    expected = tuple(oracle_double_count(fam_a, fam_b, m) for m in sizes)
    assert double_count_check(fam_a, fam_b) == expected


def test_double_count_walks_the_orders_once(monkeypatch):
    calls, orders = 0, 0

    def counted(n):
        nonlocal calls, orders
        calls += 1
        for order in walk(n):
            orders += 1
            yield order

    walk = cyclic._orders
    monkeypatch.setattr(cyclic, "_orders", counted)
    reports = double_count_check(star(7, 3, 1), star(7, 3, 1))
    assert [r.m for r in reports] == [1, 2, 3]
    assert (calls, orders) == (1, math.factorial(6))


KATONA_CONFIGS = [(n, k) for n in range(2, 9) for k in range(1, n // 2 + 1)]


@pytest.mark.parametrize("n,k", KATONA_CONFIGS)
def test_katona_matches_oracle(n, k):
    assert katona_verify(n, k, all_perms=True) == oracle_katona(n, k, all_perms=True)
    assert katona_verify(n, k) == oracle_katona(n, k, all_perms=False)
