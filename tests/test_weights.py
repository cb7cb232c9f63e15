"""Pair-sum evaluation: triangle sums, cross sums, profiles, and their pair-loop oracles."""

import math
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersum.bounds import omega_cross_bound, omega_intersecting_bound
from intersum.setcore import full_family, kset, make_family, star
from intersum.weights import (
    Profile,
    intersection_profile,
    meet_weight,
    omega_cross,
    omega_cross_strict,
    omega_family,
    omega_generic,
    pair_count,
    unit_weight,
)


@st.composite
def random_family(draw, max_n=12, max_members=24):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, min(n, 6)))
    universe = list(combinations(range(1, n + 1), k))
    members = draw(
        st.lists(
            st.sampled_from(universe),
            min_size=1,
            max_size=min(max_members, len(universe)),
            unique=True,
        )
    )
    return make_family(n, k, members)


def test_weight_functions():
    a, b, c = kset(4, [2, 3]), kset(4, [1, 2]), kset(4, [1, 4])
    assert meet_weight(a, b) == 1
    assert meet_weight(a, c) == 0
    assert unit_weight(a, c) == 1


def test_omega_family_small_cases():
    triangle = make_family(4, 2, [[1, 2], [1, 3], [2, 3]])
    assert omega_family(triangle) == 3
    assert omega_family(make_family(4, 2, [[1, 2]])) == 0
    assert omega_family(star(5, 2, 1)) == omega_intersecting_bound(5, 2).value


def test_omega_cross_star_cases():
    a, b = star(6, 3, 1), star(6, 2, 1)
    assert omega_cross(a, b) == omega_cross_bound(6, 3, 2).value == 70
    assert omega_cross(a, b) == omega_cross(b, a)


def test_omega_cross_strict_drops_diagonal():
    s = star(5, 2, 1)
    # strict form excludes the |A|=k diagonal contributions
    assert omega_cross_strict(s, s) == omega_cross(s, s) - 2 * len(s.members)
    a = star(5, 2, 1)
    b = star(5, 3, 1)
    # no shared members when k differs, so strict agrees with plain
    assert omega_cross_strict(a, b) == omega_cross(a, b)


@settings(max_examples=80)
@given(random_family())
def test_pair_sum_identity(fam):
    # dual route: unordered triangle sum vs ordered sum minus diagonal
    assert 2 * omega_family(fam) == omega_cross(fam, fam) - fam.k * len(fam.members)


@st.composite
def family_pair(draw, max_n=9):
    n = draw(st.integers(2, max_n))

    def one():
        k = draw(st.integers(1, min(n, 5)))
        universe = list(combinations(range(1, n + 1), k))
        members = draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=12, unique=True)
        )
        return make_family(n, k, members)

    return one(), one()


@settings(max_examples=60)
@given(family_pair())
def test_cross_symmetry_and_strict_bound(pair):
    fa, fb = pair
    assert omega_cross(fa, fb) == omega_cross(fb, fa)
    assert omega_cross_strict(fa, fb) <= omega_cross(fa, fb)


def test_omega_generic_matches_specialized():
    a = star(6, 2, 1)
    b = full_family(6, 2)
    assert omega_generic(a, b, meet_weight) == omega_cross(a, b)
    assert omega_generic(a, b, unit_weight) == len(a.members) * len(b.members)
    assert omega_generic(a, a, meet_weight, strict=True) == omega_cross_strict(a, a)
    # unordered unit count over distinct pairs
    assert omega_generic(b, b, unit_weight, strict=True) // 2 == math.comb(
        len(b.members), 2
    )


def test_intersection_profile_star_pair():
    prof = intersection_profile(star(5, 2, 1), star(5, 2, 1))
    assert isinstance(prof, Profile)
    assert len(prof.counts) == 3
    assert prof.total_pairs == 16
    assert prof.weighted_sum == omega_cross(star(5, 2, 1), star(5, 2, 1)) == 20
    # 4 identical pairs meet in 2, the 12 others share only the center
    assert prof.counts == (0, 12, 4)


@settings(max_examples=60)
@given(random_family(max_n=9, max_members=12))
def test_profile_sums(fam):
    prof = intersection_profile(fam, fam)
    assert sum(prof.counts) == prof.total_pairs == len(fam.members) ** 2
    assert prof.weighted_sum == omega_cross(fam, fam)
    assert len(prof.counts) == fam.k + 1


def pair_histogram(fam_a, fam_b):
    """Oracle: the meet-size histogram by the plain ordered-pair loop."""
    counts = [0] * (min(fam_a.k, fam_b.k) + 1)
    for a in fam_a.bitmasks:
        for b in fam_b.bitmasks:
            counts[(a & b).bit_count()] += 1
    return tuple(counts)


@st.composite
def profile_pair(draw, max_n=10):
    # independent k, independent (possibly zero) member counts
    n = draw(st.integers(2, max_n))

    def one():
        k = draw(st.integers(1, min(n, 6)))
        universe = list(combinations(range(1, n + 1), k))
        members = draw(
            st.lists(st.sampled_from(universe), max_size=min(40, len(universe)), unique=True)
        )
        return make_family(n, k, members)

    return one(), one()


@settings(max_examples=150)
@given(profile_pair())
@example((make_family(5, 3, []), star(5, 2, 1)))
@example((star(5, 2, 1), make_family(5, 3, [])))
def test_intersection_profile_matches_pair_loop(pair):
    fa, fb = pair
    prof = intersection_profile(fa, fb)
    assert prof.counts == pair_histogram(fa, fb)
    assert intersection_profile(fb, fa) == prof
    assert intersection_profile(fa, fa).counts == pair_histogram(fa, fa)


@settings(max_examples=150)
@given(profile_pair())
@example((make_family(5, 3, []), star(5, 2, 1)))
def test_degree_sums_match_pair_loop(pair):
    fa, fb = pair
    assert omega_family(fa) == sum((a & b).bit_count() for a, b in combinations(fa.bitmasks, 2))
    assert omega_cross(fa, fb) == omega_generic(fa, fb, meet_weight)
    assert omega_cross_strict(fa, fb) == omega_generic(fa, fb, meet_weight, strict=True)
    assert omega_cross_strict(fa, fa) == omega_generic(fa, fa, meet_weight, strict=True)
    assert pair_count(fa, fb) == omega_generic(fa, fb, unit_weight)
    assert pair_count(fa, fb, strict=True) == omega_generic(fa, fb, unit_weight, strict=True)
    assert pair_count(fa, fa, strict=True) == omega_generic(fa, fa, unit_weight, strict=True)


def test_large_family_matches_pair_loops():
    # every member count takes the same single path; check one well past 10^4 pairs
    f = full_family(11, 3)
    expect = omega_generic(f, f, meet_weight)
    assert omega_cross(f, f) == expect
    assert omega_family(f) == (expect - 3 * len(f)) // 2
    prof = intersection_profile(f, f)
    assert prof.counts == pair_histogram(f, f)
    assert prof.weighted_sum == expect
    assert prof.total_pairs == len(f.members) ** 2
