"""Exact search (branch-and-bound, naive oracle), heuristic annealing, uniqueness reports."""

import hashlib
import json
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersum.bounds import BoundValue, omega_cross_bound, omega_intersecting_bound
from intersum.cyclic import _interval_patterns
from intersum.errors import (
    BadSizeError,
    CounterexampleError,
    HypothesisError,
    InternalError,
    NotExhaustiveError,
    TooLargeError,
)
from intersum import search
from intersum.search import (
    HeuristicConfig,
    SearchResult,
    _bits_list,
    _element_tuples,
    _witness_classes,
    heuristic_max,
    max_omega_cross,
    max_omega_intersecting,
    max_omega_intersecting_naive,
    uniqueness_report,
)
from intersum.setcore import (
    Family,
    _canonical_masks,
    element_degrees,
    is_intersecting,
    is_star,
    ksubset_masks,
    make_family,
    record_dict,
    star,
)
from intersum.weights import intersection_profile, omega_cross, omega_family


# --- witness normalization ---

# C6 and two disjoint triangles on 11 points: equal sorted degrees and equal
# meet profiles, not isomorphic
HEXAGON = make_family(11, 2, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
TRIANGLES = make_family(11, 2, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])


def test_family_classes_keep_equal_fingerprints_apart():
    assert sorted(element_degrees(HEXAGON)) == sorted(element_degrees(TRIANGLES))
    assert intersection_profile(HEXAGON, HEXAGON) == intersection_profile(TRIANGLES, TRIANGLES)
    raw = [(list(f.bitmasks),) for f in (HEXAGON, TRIANGLES)]
    assert len(_witness_classes(11, (2,), raw)) == 2


def test_pair_classes_keep_equal_fingerprints_apart():
    point = make_family(11, 1, [[11]])
    raw = [(list(f.bitmasks), list(point.bitmasks)) for f in (HEXAGON, TRIANGLES)]
    classes = _witness_classes(11, (2, 1), raw)
    assert len(classes) == 2


def classes_one_by_one(n, raw):
    """Oracle for the witness classes: the distinct canonical forms of the
    raw winners, each canonicalised on its own, in ascending order."""
    return sorted({_canonical_masks(n, colours) for colours in raw})


@st.composite
def raw_winners(draw):
    """Raw winners on n <= 7 with one or two member lists each, drawn as
    random relabellings of up to three base winners.  A base list is a few
    random k-sets, or those closed under the rotation x -> x + 1 (mod n),
    which gives every element the same degree, so no degree statistic can
    tell the winners apart and only the canonical form can."""
    n = draw(st.integers(2, 7))
    sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
    full = (1 << n) - 1
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        base = []
        for k in sizes:
            drawn = st.lists(st.sampled_from(ksubset_masks(n, k)), min_size=1, max_size=5)
            masks = set(draw(drawn))
            if draw(st.booleans()):
                masks = {(m << s | m >> (n - s)) & full for m in masks for s in range(n)}
            base.append(sorted(masks))
        bases.append(base)
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        image = draw(st.permutations(range(n)))
        raw.append(
            tuple(
                [sum(1 << image[p] for p in range(n) if m >> p & 1) for m in masks]
                for masks in draw(st.sampled_from(bases))
            )
        )
    return n, tuple(sizes), raw


@settings(max_examples=100, deadline=None)
@given(raw_winners())
@example((11, (2,), [(list(f.bitmasks),) for f in (HEXAGON, TRIANGLES)]))
@example(
    (11, (2, 1), [(list(f.bitmasks), [1 << 10]) for f in (HEXAGON, TRIANGLES, HEXAGON)])
)
@example((6, (3, 3), [(list(star(6, 3, x).bitmasks),) * 2 for x in (1, 4, 6)]))
def test_witness_classes_match_one_by_one(case):
    """One class per distinct canonical form of the raw winners, in ascending
    order of the canonical masks, each built as families of the winners'
    member sizes on the same ground set."""
    n, sizes, raw = case
    classes = _witness_classes(n, sizes, raw)
    assert [tuple(f.bitmasks for f in cls) for cls in classes] == classes_one_by_one(n, raw)
    assert all(tuple((f.n, f.k) for f in cls) == tuple((n, k) for k in sizes) for cls in classes)


# --- exact family search ---


def test_exact_family_5_2():
    r = max_omega_intersecting(5, 2)
    assert r.best_value == 6 == r.bound
    assert r.tight and r.exhaustive
    assert [f.bitmasks for f in r.witnesses] == [star(5, 2, 1).bitmasks]
    assert is_star(r.witnesses[0]) == 1


@pytest.mark.parametrize("n,k", [(6, 2), (7, 2), (9, 3), (10, 3), (12, 3), (9, 4), (10, 4)])
def test_exact_family_sole_star(n, k):
    r = max_omega_intersecting(n, k, budget=256)
    assert r.best_value == omega_intersecting_bound(n, k).value
    assert r.tight
    assert len(r.witnesses) == 1
    assert is_star(r.witnesses[0]) == 1


def test_exact_family_boundary_4_2():
    r = max_omega_intersecting(4, 2)
    assert r.best_value == 3 == r.bound and r.tight
    got = {f.bitmasks for f in r.witnesses}
    triangle = make_family(4, 2, [[1, 2], [1, 3], [2, 3]])
    assert got == {triangle.bitmasks, star(4, 2, 1).bitmasks}


def test_exact_family_boundary_6_3():
    r = max_omega_intersecting(6, 3)
    assert r.best_value == 75 and r.tight
    got = {f.bitmasks for f in r.witnesses}
    clique_on_five = make_family(6, 3, combinations(range(1, 6), 3))
    assert got == {clique_on_five.bitmasks, star(6, 3, 1).bitmasks}
    for f in r.witnesses:
        assert is_intersecting(f)
        assert omega_family(f) == 75


def test_exact_family_boundary_8_4():
    """n = 2k again has exactly two classes: the star, and all k-sets
    avoiding one element (any two 4-subsets of a 7-set meet)."""
    r = max_omega_intersecting(8, 4, budget=256)
    assert r.best_value == 1330 == r.bound and r.tight
    got = {f.bitmasks for f in r.witnesses}
    avoid_8 = make_family(8, 4, combinations(range(1, 8), 4))
    assert got == {avoid_8.bitmasks, star(8, 4, 1).bitmasks}


def test_exact_family_guards():
    with pytest.raises(HypothesisError):
        max_omega_intersecting(5, 3)
    with pytest.raises(TooLargeError):
        max_omega_intersecting(10, 3)  # C(10,3) = 120 over the default budget
    with pytest.raises(TooLargeError):
        max_omega_intersecting_naive(8, 2)  # 2^28 subsets is past the naive budget


def test_naive_matches_branch_and_bound():
    """Every config the oracle reaches: (4,2), (5,2), (6,2) and (n,1) for
    n <= 16.  At k = 1 the empty family ties the star's value 0, so a search
    that scored it would report a spurious empty class."""
    configs = [
        (n, k)
        for k in range(1, 9)
        for n in range(2 * k, 17)
        if math.comb(n, k) <= search.NAIVE_BUDGET
    ]
    assert (6, 2) in configs and (16, 1) in configs and len(configs) == 18
    for n, k in configs:
        a = max_omega_intersecting(n, k)
        b = max_omega_intersecting_naive(n, k)
        assert a.witnesses and all(f.bitmasks for f in a.witnesses)
        assert a.best_value == b.best_value
        assert [f.bitmasks for f in a.witnesses] == [f.bitmasks for f in b.witnesses]


def shift(masks, i, j):
    """S_ij on bitmask members: A with j in A, i not in A becomes A - j + i,
    unless that set is already a member."""
    bi, bj = 1 << i, 1 << j
    members = set(masks)
    out = set()
    for a in masks:
        moved = a ^ bi ^ bj
        if a & bj and not a & bi and moved not in members:
            out.add(moved)
        else:
            out.add(a)
    return out


@st.composite
def shift_cases(draw):
    """An intersecting family on n <= 8 (random k-sets, each kept only if it
    meets every set kept before it) and two distinct elements i, j given as
    bit positions."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    kept = []
    for m in draw(st.lists(st.sampled_from(ksubset_masks(n, k)), min_size=1, unique=True)):
        if all(m & a for a in kept):
            kept.append(m)
    i, j = draw(st.permutations(range(n)))[:2]
    return Family.from_bitmasks(n, k, kept), i, j


@settings(max_examples=300, deadline=None)
@given(shift_cases())
@example((make_family(6, 3, [[1, 2, 3], [1, 2, 4], [3, 4, 5]]), 0, 4))
@example((make_family(6, 3, combinations(range(2, 7), 3)), 0, 5))
@example((make_family(6, 3, [[1, 2, 3], [1, 4, 5], [2, 4, 6]]), 2, 4))
def test_shift_raises_omega(case):
    """The lemma the intersecting search rests on: with d(i) >= d(j), S_ij
    keeps a family intersecting and its size, and raises omega by exactly
    a (d(i) - d(j)) + a^2, where a is the number of members it moves."""
    family, i, j = case
    deg = [sum(m >> x & 1 for m in family.bitmasks) for x in range(family.n)]
    if deg[i] < deg[j]:
        i, j = j, i
    shifted = Family.from_bitmasks(family.n, family.k, shift(family.bitmasks, i, j))
    a = len(set(family.bitmasks) - set(shifted.bitmasks))
    assert is_intersecting(shifted)
    assert len(shifted.bitmasks) == len(family.bitmasks)
    rise = omega_family(shifted) - omega_family(family)
    assert rise == a * (deg[i] - deg[j]) + a * a
    assert (rise > 0) == (a > 0)


# --- exact cross search ---


def test_exact_cross_5_2_2():
    r = max_omega_cross(5, 2, 2)
    assert r.best_value == 20 == r.bound and r.tight and r.exhaustive
    assert len(r.witnesses) == 1
    wa, wb = r.witnesses[0]
    assert wa.bitmasks == wb.bitmasks == star(5, 2, 1).bitmasks


def test_exact_cross_4_2_2():
    r = max_omega_cross(4, 2, 2)
    assert r.best_value == 12 == r.bound and r.tight
    pairs = {(a.bitmasks, b.bitmasks) for a, b in r.witnesses}
    s = star(4, 2, 1).bitmasks
    t = make_family(4, 2, [[1, 2], [1, 3], [2, 3]]).bitmasks
    assert (s, s) in pairs and (t, t) in pairs
    assert len(pairs) == 2


def test_exact_cross_3_2_1():
    r = max_omega_cross(3, 2, 1)
    assert r.best_value == 2
    pairs = [(a.bitmasks, b.bitmasks) for a, b in r.witnesses]
    assert pairs == [((3,), (1, 2)), ((3, 5), (1,))]


def test_exact_cross_6_3_2():
    r = max_omega_cross(6, 3, 2)
    assert r.best_value == omega_cross_bound(6, 3, 2).value == 70
    assert r.tight


def test_exact_cross_guards():
    with pytest.raises(HypothesisError):
        max_omega_cross(4, 2, 3)  # k < l
    with pytest.raises(HypothesisError):
        max_omega_cross(4, 3, 2)  # n < k + l
    with pytest.raises(TooLargeError):
        max_omega_cross(12, 3, 2)


@pytest.mark.parametrize("n,k,l", [(8, 3, 2), (9, 3, 2), (7, 4, 2), (10, 4, 2), (12, 3, 2)])
def test_exact_cross_l_below_k_sole_star_pair(n, k, l):
    """Configs the l-side sweep brings within reach: one class, the
    common-centre star pair, at the closed form."""
    r = max_omega_cross(n, k, l, budget=256)
    assert r.best_value == omega_cross_bound(n, k, l).value and r.tight
    [(wa, wb)] = r.witnesses
    assert (wa.bitmasks, wb.bitmasks) == (star(n, k, 1).bitmasks, star(n, l, 1).bitmasks)


# --- a bound no family attains ---


@pytest.mark.parametrize("n,k", [(5, 2), (4, 2), (6, 3), (6, 2)])
def test_exact_family_inflated_bound_is_not_tight(n, k, monkeypatch):
    """The closed form seeds the search, so it must still find the true
    maximum, not tight, when no family attains the bound it is given."""
    true = max_omega_intersecting(n, k)
    monkeypatch.setattr(
        search, "omega_intersecting_bound", lambda n, k: BoundValue(true.bound + 1, (n, k))
    )
    r = max_omega_intersecting(n, k)
    assert r.bound == true.bound + 1 and not r.tight
    assert r.best_value == true.best_value and r.witnesses == true.witnesses


@pytest.mark.parametrize("n,k,l", [(5, 2, 2), (4, 2, 2), (6, 3, 2), (3, 2, 1)])
def test_exact_cross_inflated_bound_is_not_tight(n, k, l, monkeypatch):
    true = max_omega_cross(n, k, l)
    monkeypatch.setattr(
        search, "omega_cross_bound", lambda n, k, l: BoundValue(true.bound + 1, (n, k, l))
    )
    r = max_omega_cross(n, k, l)
    assert r.bound == true.bound + 1 and not r.tight
    assert r.best_value == true.best_value and r.witnesses == true.witnesses


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def cross_oracle(n, k, l):
    """Best total and raw optimal pairs as member-mask lists, by walking every
    subset A of the k-universe, pairing it with all l-sets that meet every
    member of A, and keeping the pairs that are maximal on both sides.  It
    walks the k-side on purpose: the search sweeps the l-side."""
    ua, ub = ksubset_masks(n, k), ksubset_masks(n, l)
    meets_a = [sum(1 << j for j, b in enumerate(ub) if a & b) for a in ua]
    meets_b = [sum(1 << i for i, a in enumerate(ua) if a & b) for b in ub]
    compat = [(1 << len(ub)) - 1] * (1 << len(ua))
    best, winners = 0, []
    for sub in range(1, 1 << len(ua)):
        low = sub & -sub
        compat[sub] = bmask = compat[sub ^ low] & meets_a[low.bit_length() - 1]
        if not bmask:
            continue
        closure = (1 << len(ua)) - 1
        for j in _bits(bmask):
            closure &= meets_b[j]
        if closure != sub:
            continue
        fa = [ua[i] for i in _bits(sub)]
        fb = [ub[j] for j in _bits(bmask)]
        val = sum((a & b).bit_count() for a in fa for b in fb)
        if val > best:
            best, winners = val, []
        if val == best:
            winners.append((fa, fb))
    return best, winners


ORACLE_CROSS = [
    (n, k, l)
    for k in range(1, 16)
    for l in range(1, k + 1)
    for n in range(k + l, 17)
    if math.comb(n, k) <= 16
]


@pytest.mark.parametrize("n,k,l", ORACLE_CROSS)
def test_cross_matches_oracle(n, k, l):
    """Where n < 2k the optimum can exceed the closed form (at (4,3,1),
    A = {123, 124} and B = {{1}, {2}} total 4 against 3); the search then
    raises CounterexampleError carrying its witness classes, and those must
    match the oracle too."""
    best, winners = cross_oracle(n, k, l)
    if best > omega_cross_bound(n, k, l).value:
        with pytest.raises(CounterexampleError, match=f"found {best} above") as exc:
            max_omega_cross(n, k, l)
        found = exc.value.witness
    else:
        r = max_omega_cross(n, k, l)
        assert r.best_value == best
        found = r.witnesses
    got = [(a.bitmasks, b.bitmasks) for a, b in found]
    want = [(a.bitmasks, b.bitmasks) for a, b in _witness_classes(n, (k, l), winners)]
    assert got == want


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Exact results pinned from the pair-summing searches: best value, a digest of
# the witness classes and a digest of record_dict(uniqueness_report(...)).  (6,3)
# and (4,2,2) are boundary configs with two optimal classes each, so a prune
# that cuts a tie shows up there.  The last three rows were recorded from the
# cross sweep over the k-side, before it swept the l-side; it took about 80 s
# at (9,3,2).
PINNED_EXACT = [
    ((4, 2), 3, "5b25bb4f2e0dc894", "ea711671496b34b6"),
    ((5, 2), 6, "1b3bef0b379419ac", "da7683bd1b6470ce"),
    ((6, 2), 10, "45dfdacca5bba130", "bf316de8a24bc904"),
    ((6, 3), 75, "1cf058c0c28305eb", "005f3bf8fcfbea2a"),
    ((7, 3), 165, "8748f345e4214825", "b761911ad55def72"),
    ((8, 2), 21, "4e91d3c753e1e55a", "66ed872c337b6342"),
    ((8, 3), 315, "1c13212835205628", "e40b407df3efb97a"),
    ((4, 2, 2), 12, "2b1bdaaef81a4ddd", "c4c0c14d152ba3f4"),
    ((5, 2, 2), 20, "ce86ce520c34c10b", "09d1b30b3c03382a"),
    ((6, 2, 2), 30, "4eef88178e390a6c", "5abd3ed4516519ef"),
    ((6, 3, 2), 70, "f5d4848bc6e8ac4b", "9019d304dc4aaab6"),
    ((7, 3, 2), 120, "7fbb5018413359ae", "939cb1c9af3ba7ad"),
    ((8, 3, 2), 189, "dd4e4678c21f0610", "3793d7676f7c1497"),
    ((7, 4, 2), 180, "96e604cbaf32eca9", "0d8dc446bb7654e6"),
    ((9, 3, 2), 280, "7e64c32ea4561392", "150be5ab4abbf63c"),
]


@pytest.mark.parametrize("config,value,witnesses,report", PINNED_EXACT)
def test_exact_pinned(config, value, witnesses, report):
    if len(config) == 2:
        r = max_omega_intersecting(*config, budget=256)
    else:
        r = max_omega_cross(*config, budget=256)
    u = uniqueness_report(r)
    digests = (_witness_digest(r), _digest(record_dict(u)))
    assert (r.best_value, *digests) == (value, witnesses, report)


def test_element_tuples_match_the_bit_lists():
    # the searches index k-sets by ksubset_masks order and read their elements here
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert _element_tuples(n, k) == [tuple(_bits_list(m)) for m in ksubset_masks(n, k)]


def test_budget_range():
    searches = (
        lambda b: max_omega_intersecting(5, 2, budget=b),
        lambda b: max_omega_cross(5, 2, 2, budget=b),
        lambda b: max_omega_intersecting_naive(4, 2, budget=b),
    )
    for run in searches:
        for bad in (0, -5, 2.5, True, "24"):
            with pytest.raises(BadSizeError, match="budget"):
                run(bad)
        with pytest.raises(TooLargeError, match="ceiling"):
            run(search.MAX_EXHAUSTIVE_BUDGET + 1)
        assert run(search.MAX_EXHAUSTIVE_BUDGET).best_value > 0


@pytest.fixture
def no_universe(monkeypatch):
    """Fail any search that gets as far as building its k-set universe."""

    def refuse(n, k):
        raise AssertionError("universe built")

    monkeypatch.setattr(search, "ksubset_masks", refuse)


def test_budget_ceiling_before_universe(no_universe):
    with pytest.raises(TooLargeError, match="ceiling"):
        max_omega_intersecting(30, 15, budget=10**9)
    with pytest.raises(TooLargeError, match="ceiling"):
        max_omega_cross(30, 15, 10, budget=10**9)
    with pytest.raises(TooLargeError, match="ceiling"):
        max_omega_intersecting_naive(30, 15, budget=10**9)
    # C(9,2) = 36 is within the exhaustive ceiling but past NAIVE_BUDGET
    with pytest.raises(TooLargeError, match=r"C\(9,2\) = 36 exceeds the naive budget 16"):
        max_omega_intersecting_naive(9, 2, budget=36)


@pytest.mark.parametrize(
    "run",
    [
        lambda: max_omega_intersecting(5, 3),  # n < 2k
        lambda: max_omega_intersecting_naive(5, 3),  # n < 2k
        lambda: max_omega_cross(5, 3, 3),  # n < k + l
        lambda: max_omega_cross(6, 2, 3),  # k < l
    ],
    ids=["bb-5-3", "naive-5-3", "cross-5-3-3", "cross-6-2-3"],
)
def test_regime_refused_before_universe(no_universe, run):
    """The exact searches take their regime from the bounds module, which
    refuses these parameters before any k-set is built."""
    with pytest.raises(HypothesisError):
        run()


# --- serialization ---


def test_search_result_json_dict():
    r = max_omega_intersecting(5, 2)
    d = r.to_json_dict()
    assert d["best_value"] == "6"  # unbounded values travel as decimal strings
    assert d["bound"] == "6"
    assert d["tight"] is True and d["exhaustive"] is True
    assert d["witnesses"][0]["sets"] == [[1, 2], [1, 3], [1, 4], [1, 5]]

    rc = max_omega_cross(5, 2, 2)
    dc = rc.to_json_dict()
    assert dc["witnesses"][0]["a"]["sets"] == dc["witnesses"][0]["b"]["sets"]


def test_search_result_equality_ignores_runtime():
    a = max_omega_intersecting(5, 2)
    b = max_omega_intersecting(5, 2)
    assert isinstance(a, SearchResult)
    assert a == b  # runtime_ms is excluded from comparison


# --- uniqueness reports ---


def test_uniqueness_strict_regime():
    u = uniqueness_report(max_omega_intersecting(5, 2))
    assert u.ok and u.uniqueness_expected
    assert u.witness_count == 1 and u.all_witnesses_extremal
    (a,) = u.assessments
    assert a.star_center == 1 and a.is_extremal_pattern
    assert a.interval_pattern_checked and a.interval_pattern_holds


def test_uniqueness_boundary_regime():
    u = uniqueness_report(max_omega_intersecting(4, 2))
    assert u.ok and not u.uniqueness_expected
    assert u.witness_count == 2 and not u.all_witnesses_extremal
    flags = [(a.star_center, a.interval_pattern_holds) for a in u.assessments]
    # the triangle also realizes the interval pattern without being a star
    assert flags == [(None, True), (1, True)]


def cycle_orders(n):
    """Every cycle order of 1..n as an element tuple with 1 first."""
    return [(1, *rest) for rest in permutations(range(2, n + 1))]


def pattern_centers(order, family):
    """Elements x whose length-k arcs are exactly the members of family that
    are arcs of order; the arc at position s holds the k elements from s on."""
    k, n = family.k, len(order)
    member_bits = set(family.bitmasks)
    present = {
        s
        for s in range(n)
        if sum(1 << (order[(s + j) % n] - 1) for j in range(k)) in member_bits
    }
    return {
        x
        for x in range(1, n + 1)
        if {(order.index(x) - j) % n for j in range(k)} == present
    }


def pattern_family_oracle(family):
    return all(pattern_centers(order, family) for order in cycle_orders(family.n))


def pattern_pair_oracle(fa, fb):
    return all(
        pattern_centers(order, fa) & pattern_centers(order, fb)
        for order in cycle_orders(fa.n)
    )


@st.composite
def pattern_families(draw, n=None):
    """A family on n <= 7: random members, or a star with a few members
    toggled (some still pass the check, most near-misses fail it)."""
    n = n or draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    universe = ksubset_masks(n, k)
    if draw(st.booleans()):
        masks = set(draw(st.lists(st.sampled_from(universe), min_size=1, unique=True)))
    else:
        masks = set(star(n, k, draw(st.integers(1, n))).bitmasks)
        for m in draw(st.lists(st.sampled_from(universe), max_size=2)):
            masks ^= {m}
        masks = masks or {universe[0]}
    return Family.from_bitmasks(n, k, masks)


TRIANGLE_4_2 = make_family(4, 2, [[1, 2], [1, 3], [2, 3]])
CLIQUE_6_3 = make_family(6, 3, combinations(range(1, 6), 3))


@settings(max_examples=150, deadline=None)
@given(pattern_families())
@example(TRIANGLE_4_2)
@example(CLIQUE_6_3)
@example(star(7, 3, 4))
@example(make_family(5, 2, [[1, 2], [1, 3], [2, 3]]))
def test_interval_pattern_family_matches_oracle(family):
    assert _interval_patterns(family.n, [family]) == pattern_family_oracle(family)


@st.composite
def pattern_pairs(draw):
    n = draw(st.integers(2, 7))
    fa = draw(pattern_families(n))
    fb = draw(pattern_families(n))
    return fa, fb


@settings(max_examples=150, deadline=None)
@given(pattern_pairs())
@example((TRIANGLE_4_2, TRIANGLE_4_2))
@example((star(6, 3, 2), star(6, 2, 2)))
@example((star(6, 3, 2), star(6, 2, 5)))
@example((CLIQUE_6_3, star(6, 1, 1)))
def test_interval_pattern_pair_matches_oracle(pair):
    fa, fb = pair
    assert _interval_patterns(fa.n, [fa, fb]) == pattern_pair_oracle(fa, fb)


@pytest.mark.parametrize("n", range(2, 9))
def test_full_stars_show_the_interval_pattern(n):
    """uniqueness_report's star argument against the sweep: every full star
    with member size below n, and every pair of them on one center, passes
    _interval_patterns.  One sweep over every member size at a center covers
    all those pairs, as the check asks for one position common to all the
    families it is given."""
    for x in range(1, n + 1):
        assert _interval_patterns(n, [star(n, k, x) for k in range(1, n)])


def test_interval_pattern_oracle_cases():
    """The oracle itself on known cases: stars and the boundary triangle pass,
    a non-star triangle off the boundary and stars with distinct centers fail."""
    assert pattern_family_oracle(star(6, 2, 3))
    assert pattern_family_oracle(TRIANGLE_4_2)
    assert not pattern_family_oracle(make_family(5, 2, [[1, 2], [1, 3], [2, 3]]))
    assert pattern_pair_oracle(star(6, 3, 2), star(6, 2, 2))
    assert not pattern_pair_oracle(star(6, 3, 2), star(6, 2, 5))


def test_uniqueness_requires_exhaustive():
    h = heuristic_max(5, 2, config=HeuristicConfig(seed=0, iterations=200, restarts=1))
    with pytest.raises(NotExhaustiveError):
        uniqueness_report(h)


# --- heuristic annealing ---


def test_heuristic_recovers_optimum():
    for n, k in [(5, 2), (6, 2)]:
        r = heuristic_max(n, k, config=HeuristicConfig(seed=1, iterations=800, restarts=4))
        assert r.best_value == omega_intersecting_bound(n, k).value
        assert r.tight and not r.exhaustive
        assert r.seed == 1
        for f in r.witnesses:
            assert is_intersecting(f)
            assert omega_family(f) == r.best_value


def test_heuristic_deterministic_per_seed():
    cfg = HeuristicConfig(seed=7, iterations=300, restarts=2)
    a = heuristic_max(8, 3, config=cfg)
    b = heuristic_max(8, 3, config=cfg)
    assert a == b
    assert a.best_value <= omega_intersecting_bound(8, 3).value


def test_heuristic_cross_mode():
    r = heuristic_max(5, 2, l=2, config=HeuristicConfig(seed=0, iterations=600, restarts=3))
    assert r.best_value == 20
    wa, wb = r.witnesses[0]
    assert omega_cross(wa, wb) == 20


def test_heuristic_config_validation():
    with pytest.raises(BadSizeError):
        heuristic_max(5, 2, config=HeuristicConfig(iterations=0))
    with pytest.raises(BadSizeError):
        heuristic_max(5, 2, config=HeuristicConfig(restarts=0))
    with pytest.raises(BadSizeError):
        heuristic_max(5, 2, config=HeuristicConfig(decay=1.5))
    with pytest.raises(BadSizeError):
        heuristic_max(5, 2, config=HeuristicConfig(initial_temperature=-1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(BadSizeError):
            heuristic_max(5, 2, config=HeuristicConfig(initial_temperature=bad))
        with pytest.raises(BadSizeError):
            heuristic_max(5, 2, config=HeuristicConfig(decay=bad))


def test_heuristic_step_cap():
    over = HeuristicConfig(iterations=search.MAX_ANNEAL_STEPS // 4 + 1, restarts=4)
    for l in (None, 3):
        with pytest.raises(TooLargeError, match="step cap"):
            heuristic_max(10, 3, l, config=over)


def test_heuristic_cross_mode_needs_k_at_least_l():
    with pytest.raises(HypothesisError, match="k >= l"):
        heuristic_max(6, 2, 3)


def test_heuristic_counterexample_carries_witness():
    """Below n = 2k the cross closed form is beaten (4 against 3 at
    (4,3,1)); the heuristic reports that as the exact searches do."""
    cfg = HeuristicConfig(seed=0, iterations=200, restarts=2)
    with pytest.raises(CounterexampleError) as exc:
        heuristic_max(4, 3, 1, cfg)
    assert str(exc.value) == "heuristic found 4 above the proved bound 3 at (n,k,l)=(4,3,1)"
    [(fa, fb)] = exc.value.witness
    assert omega_cross(fa, fb) == 4
    assert (fa.bitmasks, fb.bitmasks) == ((0b1101, 0b1110), (0b100, 0b1000))


def test_heuristic_drift_is_internal_error(monkeypatch):
    monkeypatch.setattr(search, "_anneal_family", lambda n, k, cfg: (7, star(n, k, 1).bitmasks))
    with pytest.raises(InternalError, match="drifted"):
        heuristic_max(5, 2)


# Seeded results pinned from the pair-summing annealer: best value and a digest
# of the reported witnesses.  Any change to the annealer's random draws or to
# its integer bookkeeping shows up here.  (12,4) walks the adjacency bitsets,
# (15,6) is above _SA_ADJ_CAP and samples compatible sets by rejection.
PINNED = [
    ((8, 3), 2000, 8, [
        (315, "60ea22d0b8da5d1b"), (315, "1c13212835205628"), (315, "8465d1e9cfd7aa3f"),
    ]),
    ((12, 4), 600, 2, [
        (15570, "521060dadb5109bc"), (24420, "a7a1cce94ff644f9"), (15570, "43812305efbe5a15"),
    ]),
    ((15, 6), 300, 2, [
        (24112, "0f896defba013117"), (26199, "2bfd1b59eb1f51f0"), (24609, "e538881d6bcab875"),
    ]),
    ((7, 3, 2), 400, 2, [
        (120, "35d2a9c4d9ae644a"), (120, "08c16c096661c076"), (120, "6df65389b87d8201"),
    ]),
    ((10, 3, 3), 400, 2, [
        (1716, "733c708484b3e0c7"), (1664, "0aae5b43a609891c"), (1716, "93883f63d706c085"),
    ]),
]


def _witness_digest(res):
    return _digest(res.to_json_dict()["witnesses"])


@pytest.mark.parametrize("config,iterations,restarts,expected", PINNED)
def test_heuristic_pinned_seeds(config, iterations, restarts, expected):
    n, k, *rest = config
    l = rest[0] if rest else None
    if l is None:
        assert (math.comb(n, k) > search._SA_ADJ_CAP) == (config == (15, 6))
    for seed, (value, digest) in enumerate(expected):
        cfg = HeuristicConfig(seed=seed, iterations=iterations, restarts=restarts)
        r = heuristic_max(n, k, l, cfg)
        assert (r.best_value, _witness_digest(r)) == (value, digest)


# The benchmark's anneal workload: seed 2 with the default HeuristicConfig,
# pinned here so a drift in the random draws fails tier-1 before the bench.
PINNED_DEFAULT_SEED2 = [
    ((14, 5), 465400, "552f001f26ab3c98"),
    ((10, 3, 3), 1872, "3cfd078a3c504d30"),
    ((16, 4), 164710, "578665243373be2b"),
]


@pytest.mark.parametrize("config,value,digest", PINNED_DEFAULT_SEED2)
def test_heuristic_pinned_default_config(config, value, digest):
    r = heuristic_max(*config, config=HeuristicConfig(seed=2))
    assert (r.best_value, _witness_digest(r)) == (value, digest)


@pytest.mark.parametrize("n,k", [(7, 3), (10, 4), (14, 5)])
def test_one_step_runs_report_the_greedy_completion(n, k):
    # one step places one set, and the restart ends with the greedy
    # completion, whose value is summed over element degrees: it must be a
    # maximal intersecting family worth its recount
    for seed in range(3):
        r = heuristic_max(n, k, config=HeuristicConfig(seed=seed, iterations=1, restarts=1))
        (fam,) = r.witnesses
        members = set(fam.bitmasks)
        assert is_intersecting(fam) and r.best_value == omega_family(fam)
        outside = [m for m in ksubset_masks(n, k) if m not in members]
        assert all(any(not m & b for b in members) for m in outside)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**2100 - 1))
@example(1)
@example(2**2002 - 1)
def test_nth_set_bit_matches_sorted_positions(mask):
    positions = sorted(i for i in range(mask.bit_length()) if mask >> i & 1)
    assert [search._nth_set_bit(mask, idx) for idx in range(len(positions))] == positions


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.one_of(st.integers(1, 2**70), st.integers(0, 70).map(lambda e: 2**e)), max_size=30
    ),
)
@example(0, [1, 1, 2, 3, 4, 2**64, 2**64 + 1])
def test_below_draws_as_randrange(seed, bounds):
    """_below replays Random.randrange draw for draw, so the seeded annealer
    results do not move."""
    ours, theirs = random.Random(seed), random.Random(seed)
    drawn = [search._below(ours.getrandbits, m) for m in bounds]
    assert drawn == [theirs.randrange(m) for m in bounds]
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 70),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**70 - 1)), max_size=40),
)
def test_miss_counts_match_plain_counters(width, moves):
    """The bit-sliced counters against one plain counter per index."""
    full = (1 << width) - 1
    counter = search._MissCounts(full)
    counts = [0] * width
    held = []
    for add, mask in moves:
        if add or not held:
            mask &= full
            counter.add(mask)
            held.append(mask)
            sign = 1
        else:
            mask = held.pop(mask % len(held))
            counter.remove(mask)
            sign = -1
        for j in range(width):
            counts[j] += sign * (mask >> j & 1)
        assert counter.zero_without(0) == sum(1 << j for j in range(width) if counts[j] == 0)
        for leaving in held:
            expect = sum(
                1 << j for j in range(width) if counts[j] - (leaving >> j & 1) == 0
            )
            assert counter.zero_without(leaving) == expect
