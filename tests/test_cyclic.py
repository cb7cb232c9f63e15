"""Cyclic permutations, arcs, the interval maximum sweep, and pair double counting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersum import cyclic
from intersum.bounds import pm_star_count
from intersum.cyclic import (
    CyclicPerm,
    Interval,
    double_count_check,
    enumerate_cyclic,
    interval_meet_family,
    interval_of,
    intervals_of_length,
    katona_verify,
    representable_pairs,
)
from intersum.errors import (
    BadElementError,
    BadLengthError,
    GroundMismatchError,
    HypothesisError,
    TooLargeError,
)
from intersum.setcore import kset, make_family, star


@st.composite
def cyclic_perms(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    rest = draw(st.permutations(list(range(2, n + 1))))
    return CyclicPerm(n, (1,) + tuple(rest))


# --- CyclicPerm ---


def test_cyclic_perm_validation():
    CyclicPerm(4, (1, 3, 2, 4))
    with pytest.raises(BadElementError):
        CyclicPerm(4, (2, 1, 3, 4))  # must be anchored at 1
    with pytest.raises(BadElementError):
        CyclicPerm(4, (1, 2, 3))
    with pytest.raises(BadLengthError):
        CyclicPerm(1, (1,))


def test_enumerate_cyclic_counts():
    for n in range(2, 7):
        perms = list(enumerate_cyclic(n))
        assert len(perms) == math.factorial(n - 1)
        assert len(set(perms)) == len(perms)
        assert all(p.order[0] == 1 for p in perms)
    with pytest.raises(TooLargeError):
        next(enumerate_cyclic(11))


@settings(max_examples=50)
@given(cyclic_perms())
def test_position_element_inverse(perm):
    for e in range(1, perm.n + 1):
        assert perm.element_at(perm.position_of(e)) == e


# --- intervals ---


def test_interval_endpoints_and_wraparound():
    ident = CyclicPerm.identity(5)
    arc = Interval(ident, 3, 3)  # positions 3,4,0 -> elements 4,5,1
    assert arc.left == 4 and arc.right == 1
    assert set(arc.elements()) == {4, 5, 1}
    assert arc.as_kset() == kset(5, [1, 4, 5])


def test_intervals_of_length():
    ident = CyclicPerm.identity(6)
    arcs = intervals_of_length(ident, 2)
    assert len(arcs) == 6
    assert {frozenset(a.elements()) for a in arcs} == {
        frozenset(s) for s in ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1])
    }
    with pytest.raises(BadLengthError):
        intervals_of_length(ident, 6)  # full circle is not an arc


def test_interval_of_roundtrip():
    ident = CyclicPerm.identity(5)
    arc = interval_of(ident, kset(5, [4, 5, 1]))
    assert arc is not None
    assert arc.start == 3 and arc.length == 3
    assert arc.left == 4 and arc.right == 1
    assert interval_of(ident, kset(5, [2, 4])) is None


@settings(max_examples=40)
@given(cyclic_perms(max_n=7), st.data())
def test_interval_of_detects_every_arc(perm, data):
    length = data.draw(st.integers(1, perm.n - 1))
    start = data.draw(st.integers(0, perm.n - 1))
    arc = Interval(perm, start, length)
    found = interval_of(perm, arc.as_kset())
    assert found is not None
    assert found.bits == arc.bits
    assert (found.start, found.length) == (start, length)


# --- representable pairs ---


def test_representable_pairs_star_example():
    ident = CyclicPerm.identity(5)
    s = star(5, 2, 1)
    pairs = representable_pairs(ident, s, s)
    assert len(pairs) == 3
    for p in pairs:
        assert interval_of(ident, p.a) is not None
        assert interval_of(ident, p.b) is not None
        assert p.meet.bits == p.a.bits & p.b.bits
    seen = {(tuple(p.a.elements()), tuple(p.b.elements())) for p in pairs}
    assert len(seen) == 3


def test_interval_meet_family():
    ident = CyclicPerm.identity(5)
    s = star(5, 2, 1)
    fam = interval_meet_family(ident, s, s, 1)
    assert fam.k == 1
    assert fam.bitmasks == (1,)  # the only size-1 meet among arcs through 1


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

    r1 = katona_verify(6, 2, all_perms=True, workers=2)
    assert (r1.max_size, r1.maxima_count, r1.ok) == (r.max_size, r.maxima_count, r.ok)


def test_katona_guards():
    with pytest.raises(HypothesisError):
        katona_verify(5, 3)
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
    rep = double_count_check(star(n, k, 1), star(n, l, 1), m)
    assert rep.ok
    assert rep.pair_count == pairs == pm_star_count(n, k, l, m)
    assert rep.per_pair_expected == per_pair
    assert rep.lhs_total == rep.rhs_total == total == pairs * per_pair
    assert rep.perms_checked == math.factorial(n - 1)
    assert rep.meets_distinct_ok
    assert rep.meet_bound_checked and rep.meet_bound_ok
    assert rep.max_meets_in_one_perm == m


def test_double_count_workers_agree():
    a, b = star(6, 3, 1), star(6, 2, 1)
    r1 = double_count_check(a, b, 2, workers=1)
    r2 = double_count_check(a, b, 2, workers=2)
    assert (r1.lhs_total, r1.rhs_total, r1.ok) == (r2.lhs_total, r2.rhs_total, r2.ok)


@pytest.mark.parametrize("cpus,pool_sizes", [(3, [3]), (1, []), (None, [])])
def test_worker_pool_clamped_to_cpu_count(monkeypatch, cpus, pool_sizes):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cyclic, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cyclic.os, "cpu_count", lambda: cpus)
    r = katona_verify(6, 2, all_perms=True, workers=10**9)
    assert r == katona_verify(6, 2, all_perms=True)
    a, b = star(6, 3, 1), star(6, 2, 1)
    d = double_count_check(a, b, 2, workers=10**9)
    assert d == double_count_check(a, b, 2)
    assert sizes == pool_sizes * 2


def test_double_count_guards():
    with pytest.raises(TooLargeError):
        double_count_check(star(9, 2, 1), star(9, 2, 1), 1)
    with pytest.raises(GroundMismatchError):
        double_count_check(star(5, 2, 1), star(6, 2, 1), 1)
    with pytest.raises(HypothesisError):
        double_count_check(star(5, 2, 1), star(5, 2, 1), 3)


def test_double_count_non_star_inputs_still_count():
    # arbitrary families are censused too; only the meet bound needs the cross property
    a = make_family(5, 2, [[1, 2], [3, 4]])
    rep = double_count_check(a, a, 1)
    assert rep.pair_count == 0  # no ordered pair meets in exactly one element
    assert rep.lhs_total == rep.rhs_total == 0
    assert not rep.meet_bound_checked  # family is not cross-intersecting with itself
    assert rep.ok
