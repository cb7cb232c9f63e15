"""Exact search (branch-and-bound, naive oracle), heuristic annealing, uniqueness reports."""

import hashlib
import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersum.bounds import omega_cross_bound, omega_intersecting_bound
from intersum.errors import (
    BadSizeError,
    HypothesisError,
    InternalError,
    NotExhaustiveError,
    TooLargeError,
)
from intersum import search
from intersum.search import (
    HeuristicConfig,
    SearchResult,
    _family_classes,
    _pair_classes,
    heuristic_max,
    max_omega_cross,
    max_omega_intersecting,
    max_omega_intersecting_naive,
    uniqueness_report,
)
from intersum.setcore import (
    fingerprint,
    is_intersecting,
    is_star,
    ksubset_masks,
    make_family,
    star,
)
from intersum.weights import omega_cross, omega_family


# --- witness normalization ---

# C6 and two disjoint triangles on 11 points: equal fingerprints, not isomorphic
HEXAGON = make_family(11, 2, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
TRIANGLES = make_family(11, 2, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])


def test_family_classes_keep_equal_fingerprints_apart():
    assert fingerprint(HEXAGON) == fingerprint(TRIANGLES)
    universe = ksubset_masks(11, 2)
    index_sets = [[universe.index(m) for m in f.bitmasks] for f in (HEXAGON, TRIANGLES)]
    assert len(_family_classes(11, 2, index_sets, universe)) == 2


def test_pair_classes_keep_equal_fingerprints_apart():
    point = make_family(11, 1, [[11]])
    classes = _pair_classes(11, 2, 1, [(HEXAGON, point), (TRIANGLES, point)])
    assert len(classes) == 2


# --- exact family search ---


def test_exact_family_5_2():
    r = max_omega_intersecting(5, 2)
    assert r.best_value == 6 == r.bound
    assert r.tight and r.exhaustive
    assert [f.bitmasks for f in r.witnesses] == [star(5, 2, 1).bitmasks]
    assert is_star(r.witnesses[0]) == 1


@pytest.mark.parametrize("n,k", [(6, 2), (7, 2)])
def test_exact_family_sole_star(n, k):
    r = max_omega_intersecting(n, k)
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


def test_exact_family_guards():
    with pytest.raises(HypothesisError):
        max_omega_intersecting(5, 3)
    with pytest.raises(TooLargeError):
        max_omega_intersecting(10, 3)  # C(10,3) = 120 over the default budget
    with pytest.raises(TooLargeError):
        max_omega_intersecting_naive(8, 2)  # 2^28 subsets is past the naive budget


def test_naive_matches_branch_and_bound():
    for n, k in [(4, 2), (5, 2), (6, 1), (4, 1)]:
        a = max_omega_intersecting(n, k)
        b = max_omega_intersecting_naive(n, k)
        assert a.best_value == b.best_value
        assert [f.bitmasks for f in a.witnesses] == [f.bitmasks for f in b.witnesses]


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
    text = json.dumps(res.to_json_dict()["witnesses"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
        assert counter.zero() == sum(1 << j for j in range(width) if counts[j] == 0)
        for leaving in held:
            expect = sum(
                1 << j for j in range(width) if counts[j] - (leaving >> j & 1) == 0
            )
            assert counter.zero_without(leaving) == expect
