"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Every criterion checks exact integer equalities and a wall-clock budget.
Run with -s to see the verdict lines on success; they also appear in the
captured output of any failing criterion.
"""

import math
import random
import time
from itertools import combinations

from intersum.bounds import (
    omega_cross_bound,
    omega_intersecting_bound,
    pm_star_count,
    star_identity_check,
)
from intersum.cyclic import double_count_check, katona_verify
from intersum.search import (
    HeuristicConfig,
    heuristic_max,
    max_omega_cross,
    max_omega_intersecting,
    uniqueness_report,
)
from intersum.setcore import is_star, ksubset_masks, make_family, star
from intersum.weights import (
    intersection_profile,
    omega_cross,
    omega_cross_strict,
    omega_family,
)

from test_search import intersecting_oracle


def verdict(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(line)
    assert ok, line


def timed(budget_s):
    start = time.perf_counter()

    def done():
        elapsed = time.perf_counter() - start
        return elapsed, elapsed < budget_s

    return done


def test_ac1_small_families_exact():
    ok = True
    worst = 0.0
    for n, k, expect in [(5, 2, 6), (6, 2, 10), (7, 2, 15)]:
        clock = timed(5.0)
        r = max_omega_intersecting(n, k)
        elapsed, in_budget = clock()
        worst = max(worst, elapsed)
        ok &= in_budget
        ok &= r.best_value == expect == omega_intersecting_bound(n, k).value
        ok &= r.tight and r.exhaustive
        ok &= len(r.witnesses) == 1 and is_star(r.witnesses[0]) == 1
    verdict("AC1", ok, f"star optima at (5,2),(6,2),(7,2); slowest {worst:.2f}s")


def test_ac2_boundary_non_uniqueness():
    clock = timed(10.0)
    r42 = max_omega_intersecting(4, 2)
    triangle = make_family(4, 2, [[1, 2], [1, 3], [2, 3]])
    ok = r42.best_value == 3
    ok &= {f.bitmasks for f in r42.witnesses} == {
        triangle.bitmasks,
        star(4, 2, 1).bitmasks,
    }

    r63 = max_omega_intersecting(6, 3)
    ok &= r63.best_value == 75
    ok &= star(6, 3, 1).bitmasks in {f.bitmasks for f in r63.witnesses}

    # independent oracle: at n = 2k every maximal family picks one set from
    # each complementary pair, so all of them are the 2^10 sign choices
    masks = ksubset_masks(6, 3)
    full = (1 << 6) - 1
    pairs = sorted({(min(m, full ^ m), max(m, full ^ m)) for m in masks})
    assert len(pairs) == 10
    best_naive = 0
    for choice in range(1 << 10):
        fam = [p[(choice >> i) & 1] for i, p in enumerate(pairs)]
        val = sum((a & b).bit_count() for a, b in combinations(fam, 2))
        best_naive = max(best_naive, val)
    ok &= best_naive == 75

    elapsed, in_budget = clock()
    verdict("AC2", ok and in_budget, f"(4,2) two classes, (6,3) 75 over 1024 maximal; {elapsed:.2f}s")


def test_ac3_cross_pairs_exact():
    clock = timed(60.0)
    r5 = max_omega_cross(5, 2, 2)
    s5 = star(5, 2, 1).bitmasks
    ok = r5.best_value == 20
    ok &= [(a.bitmasks, b.bitmasks) for a, b in r5.witnesses] == [(s5, s5)]

    r4 = max_omega_cross(4, 2, 2)
    s4 = star(4, 2, 1).bitmasks
    ok &= r4.best_value == 12
    ok &= (s4, s4) in {(a.bitmasks, b.bitmasks) for a, b in r4.witnesses}

    elapsed, in_budget = clock()
    verdict("AC3", ok and in_budget, f"(5,2,2)=20 unique, (4,2,2)=12; {elapsed:.2f}s")


def test_ac4_cyclic_double_counting():
    clock = timed(30.0)
    expected = {
        (5, 1): (12, 2, 24),
        (5, 2): (4, 12, 48),
        (6, 1): (20, 6, 120),
        (6, 2): (5, 48, 240),
    }
    ok = True
    for n in (5, 6):
        reps = double_count_check(star(n, 2, 1), star(n, 2, 1))
        ok &= [rep.m for rep in reps] == [1, 2]
        for rep in reps:
            pairs, per_pair, total = expected[n, rep.m]
            ok &= rep.ok
            ok &= rep.pair_count == pairs and rep.per_pair_expected == per_pair
            ok &= rep.lhs_total == rep.rhs_total == total
            ok &= rep.perms_checked == math.factorial(n - 1)
    elapsed, in_budget = clock()
    verdict("AC4", ok and in_budget, f"2 star sweeps, totals 24/48/120/240; {elapsed:.2f}s")


def test_ac5_interval_maxima():
    clock = timed(30.0)
    ok = True
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            r = katona_verify(n, k)
            ok &= r.ok and r.max_size == k
            if n > 2 * k:
                ok &= r.all_maxima_fixed
    elapsed, in_budget = clock()
    verdict("AC5", ok and in_budget, f"all 2k <= n <= 8; {elapsed:.2f}s")


def test_ac6_closed_form_consistency():
    clock = timed(10.0)
    ok = True
    checked = 0
    for n in range(2, 15):
        for k in range(1, n):
            for l in range(1, k + 1):
                if n < k + l:
                    continue
                a, b = star(n, k, 1), star(n, l, 1)
                ok &= omega_cross_bound(n, k, l).value == omega_cross(a, b)
                checked += 1
        for k in range(1, n // 2 + 1):
            s = star(n, k, 1)
            ok &= omega_cross_strict(s, s) == 2 * omega_intersecting_bound(n, k).value
    for n in range(2, 21):
        for k in range(1, n):
            for l in range(1, k + 1):
                if n >= k + l:
                    ok &= star_identity_check(n, k, l)
    elapsed, in_budget = clock()
    verdict("AC6", ok and in_budget, f"{checked} cross configs to n=14; {elapsed:.2f}s")


def test_ac7_profile_matches_formula():
    clock = timed(10.0)
    ok = True
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            for l in range(1, k + 1):
                if n < k + l:
                    continue
                prof = intersection_profile(star(n, k, 1), star(n, l, 1))
                for m in range(1, min(k, l) + 1):
                    ok &= prof[m] == pm_star_count(n, k, l, m)
                ok &= prof[0] == 0  # stars always share the center
                checked += 1
    elapsed, in_budget = clock()
    verdict("AC7", ok and in_budget, f"{checked} star profiles to n=12; {elapsed:.2f}s")


def test_ac8_pair_sum_identity_random():
    clock = timed(10.0)
    rng = random.Random(0x5EED)
    ok = True
    runs = 10_000
    for _ in range(runs):
        n = rng.randint(2, 20)
        k = rng.randint(1, min(n, 6))
        want = rng.randint(1, min(16, math.comb(n, k)))
        seen = set()
        while len(seen) < want:
            seen.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
        fam = make_family(n, k, seen)
        ok &= 2 * omega_family(fam) == omega_cross(fam, fam) - k * len(fam)
        if not ok:
            break
    elapsed, in_budget = clock()
    verdict("AC8", ok and in_budget, f"{runs} random families, n <= 20; {elapsed:.2f}s")


def test_ac9_heuristic_sentinel():
    clock = timed(60.0)
    ok = True
    for n, k in [(8, 3), (10, 3), (12, 4)]:
        bound = omega_intersecting_bound(n, k).value
        for seed in range(8):
            r = heuristic_max(n, k, config=HeuristicConfig(seed=seed))
            ok &= r.best_value <= bound  # a violation would raise before this
    for n, k in [(5, 2), (6, 2)]:
        expect = omega_intersecting_bound(n, k).value
        for seed in range(8):
            r = heuristic_max(n, k, config=HeuristicConfig(seed=seed))
            ok &= r.best_value == expect
    elapsed, in_budget = clock()
    verdict("AC9", ok and in_budget, f"8 seeds x 5 configs, no bound breach; {elapsed:.2f}s")


def test_ac10_oracle_equivalence():
    clock = timed(60.0)
    ok = True
    checked = 0
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            if math.comb(n, k) > 10:
                continue
            a = max_omega_intersecting(n, k)
            ok &= (a.best_value, a.witnesses) == intersecting_oracle(n, k)
            checked += 1
    # the two reporting layers agree on the strict-regime flagship too
    u = uniqueness_report(max_omega_intersecting(5, 2))
    ok &= u.ok and u.star_centers == (1,)
    elapsed, in_budget = clock()
    verdict("AC10", ok and in_budget, f"{checked} configs with C(n,k) <= 10; {elapsed:.2f}s")
