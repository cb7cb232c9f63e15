"""Pair-sum evaluation: triangle sums, cross sums, profiles, and their pair-loop oracles."""

import math
from itertools import combinations
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersum.bounds import omega_cross_bound, omega_intersecting_bound
from intersum.setcore import MAX_GROUND, Family, full_family, make_family, star
from intersum.weights import (
    intersection_profile,
    omega_cross,
    omega_cross_strict,
    omega_family,
    pair_count,
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
    assert omega_cross_strict(s, s) == omega_cross(s, s) - 2 * len(s)
    a = star(5, 2, 1)
    b = star(5, 3, 1)
    # no shared members when k differs, so strict agrees with plain
    assert omega_cross_strict(a, b) == omega_cross(a, b)


@settings(max_examples=80)
@given(random_family())
def test_pair_sum_identity(fam):
    # dual route: unordered triangle sum vs ordered sum minus diagonal
    assert 2 * omega_family(fam) == omega_cross(fam, fam) - fam.k * len(fam)


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


def test_intersection_profile_star_pair():
    s = star(5, 2, 1)
    prof = intersection_profile(s, s)
    assert sum(prof) == 16
    assert sum(m * c for m, c in enumerate(prof)) == omega_cross(s, s) == 20
    # 4 identical pairs meet in 2, the 12 others share only the center
    assert prof == (0, 12, 4)


@settings(max_examples=60)
@given(random_family(max_n=9, max_members=12))
def test_profile_sums(fam):
    prof = intersection_profile(fam, fam)
    assert sum(prof) == len(fam) ** 2
    assert sum(m * c for m, c in enumerate(prof)) == omega_cross(fam, fam)
    assert len(prof) == fam.k + 1


def ordered_pairs(fam_a, fam_b, strict=False):
    """Oracle: the ordered pairs of member bitmasks, without A = B when strict."""
    return [(a, b) for a in fam_a.bitmasks for b in fam_b.bitmasks if not (strict and a == b)]


def meet_sum(pairs):
    return sum((a & b).bit_count() for a, b in pairs)


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


def seeded_family(n, k, count, seed):
    """count distinct random k-sets of {1..n}, drawn from Random(seed)."""
    rng = Random(seed)
    masks = set()
    while len(masks) < count:
        masks.add(sum(1 << x for x in rng.sample(range(n), k)))
    return Family.from_bitmasks(n, k, masks)


# The co-degree walk takes every level when W(top) <= |small| k_small, and
# otherwise levels 1 and 2, the member sweep counting the levels above 2.
# min(k_a, k_b) <= 2 is the walk alone; TOP_THREE just misses the full walk
# (W(3) = 6 + 15 + 20 > 10 * 4), so its top level is swept.
TOP_ONE = (full_family(6, 1), star(6, 3, 2))
TOP_TWO = (star(6, 4, 1), full_family(6, 2))
TOP_THREE = (full_family(6, 3), star(6, 4, 6))
# d = top = 4, the walk alone: W(4) = 14 + 91 + 364 + 300 <= 300 * 4
WALK_ONLY = (star(14, 5, 1), seeded_family(14, 4, 300, 0))
# d = 2 although W(3) = 12 + 66 + 220 <= 60 * 6: W(6) = 1213 > 60 * 6, so
# levels 3..6 are swept
SWEEP_W3_FITS = (seeded_family(12, 6, 100, 1), seeded_family(12, 6, 60, 2))
# d = 2 with k = 9: W(3) = 16 + 120 + 560 > 12 * 9, so levels 3..9 are swept
SWEEP_ABOVE_TWO = (seeded_family(16, 10, 20, 3), seeded_family(16, 9, 12, 4))
# 40 members of 30-sets sharing a 25-set core on n = 63: d = 2, and levels
# 3..30 are swept; CORE_MIRROR relabels element x as 64 - x
CORE = Family.from_bitmasks(
    MAX_GROUND, 30, [(1 << 25) - 1 | m << 25 for m in seeded_family(38, 5, 40, 5).bitmasks]
)
CORE_MIRROR = Family.from_bitmasks(
    MAX_GROUND, 30, [int(f"{m:063b}"[::-1], 2) for m in CORE.bitmasks]
)


@settings(max_examples=150)
@given(profile_pair())
@example((make_family(5, 3, []), star(5, 2, 1)))
@example((star(5, 2, 1), make_family(5, 3, [])))
@example((make_family(5, 3, []), make_family(5, 1, [])))
@example(TOP_ONE)
@example(TOP_ONE[::-1])
@example(TOP_TWO)
@example(TOP_TWO[::-1])
@example(TOP_THREE)
@example(TOP_THREE[::-1])
@example(WALK_ONLY)
@example(SWEEP_W3_FITS)
@example(SWEEP_ABOVE_TWO)
@example((CORE, CORE))
@example((CORE, CORE_MIRROR))
@example((star(7, 3, 1), star(7, 3, 1)))
@example((full_family(5, 5), full_family(5, 5)))
def test_intersection_profile_matches_pair_loop(pair):
    fa, fb = pair
    prof = intersection_profile(fa, fb)
    assert prof == pair_histogram(fa, fb)
    assert intersection_profile(fb, fa) == prof
    assert intersection_profile(fa, fa) == pair_histogram(fa, fa)


@st.composite
def any_ground_pair(draw):
    """Two families of random sizes on a ground set of 1..63 elements."""
    n = draw(st.integers(1, MAX_GROUND))
    rng = Random(draw(st.integers(0, 2**32)))

    def one():
        k = rng.randint(1, n)
        masks = set()
        for _ in range(rng.randint(0, min(30, math.comb(n, k)))):
            masks.add(sum(1 << (e - 1) for e in rng.sample(range(1, n + 1), k)))
        return Family.from_bitmasks(n, k, masks)

    return one(), one()


def sharing_last_pair(k):
    """A family of k-sets of {1..63} all holding 62 and 63, the last co-degree pair."""
    sets = [(*range(start, start + k - 2), 62, 63) for start in range(1, 62 - k, 7)]
    return make_family(MAX_GROUND, k, sets)


@settings(max_examples=60, deadline=None)
@given(any_ground_pair())
@example((sharing_last_pair(4), sharing_last_pair(3)))
@example((make_family(MAX_GROUND, 2, [(62, 63)]), sharing_last_pair(5)))
@example((full_family(MAX_GROUND, MAX_GROUND), full_family(MAX_GROUND, MAX_GROUND)))
@example((full_family(1, 1), make_family(1, 1, [])))
def test_intersection_profile_matches_pair_loop_on_any_ground(pair):
    # member bitsets are built by byte lanes of 64-bit words: reach every lane
    fa, fb = pair
    assert intersection_profile(fa, fb) == pair_histogram(fa, fb)
    assert intersection_profile(fa, fa) == pair_histogram(fa, fa)


def test_intersection_profile_top_element():
    fa, fb = star(MAX_GROUND, 2, MAX_GROUND), full_family(MAX_GROUND, 1)
    assert intersection_profile(fa, fb) == pair_histogram(fa, fb)
    assert intersection_profile(fa, fb)[1] == 2 * (MAX_GROUND - 1)


@settings(max_examples=150)
@given(profile_pair())
@example((make_family(5, 3, []), star(5, 2, 1)))
@example((star(6, 2, 1), full_family(6, 2)))
def test_degree_sums_match_pair_loop(pair):
    fa, fb = pair
    assert omega_family(fa) == meet_sum(combinations(fa.bitmasks, 2))
    assert omega_cross(fa, fb) == meet_sum(ordered_pairs(fa, fb))
    assert omega_cross_strict(fa, fb) == meet_sum(ordered_pairs(fa, fb, strict=True))
    assert omega_cross_strict(fa, fa) == meet_sum(ordered_pairs(fa, fa, strict=True))
    assert pair_count(fa, fb) == len(ordered_pairs(fa, fb))
    assert pair_count(fa, fb, strict=True) == len(ordered_pairs(fa, fb, strict=True))
    assert pair_count(fa, fa, strict=True) == len(ordered_pairs(fa, fa, strict=True))


def test_large_family_matches_pair_loops():
    # every member count takes the same single path; check one well past 10^4 pairs
    f = full_family(11, 3)
    expect = meet_sum(ordered_pairs(f, f))
    assert omega_cross(f, f) == expect
    assert omega_family(f) == (expect - 3 * len(f)) // 2
    prof = intersection_profile(f, f)
    assert prof == pair_histogram(f, f)
    assert sum(m * c for m, c in enumerate(prof)) == expect
    assert sum(prof) == len(f) ** 2
