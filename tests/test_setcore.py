"""Core set/family representation: masks, validation, relabelling, canonical forms."""

import copy
import math
import pickle
from itertools import combinations, permutations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intersum.errors import (
    BadElementError,
    BadSizeError,
    DuplicateSetError,
    GroundMismatchError,
    IntersumError,
    TooLargeError,
)
from intersum.setcore import (
    MAX_GROUND,
    Family,
    _bulk_masks,
    _canonical_masks,
    _columns,
    _items,
    bits_to_elements,
    canonical_form,
    element_degrees,
    elements_to_bits,
    family_from_dict,
    family_to_dict,
    full_family,
    is_cross_intersecting,
    is_intersecting,
    is_star,
    ksubset_masks,
    make_family,
    record_dict,
    star,
)
from intersum.weights import intersection_profile


def small_families(max_n=8):
    """Strategy: random Family over a small ground set."""

    def build(draw):
        n = draw(st.integers(2, max_n))
        k = draw(st.integers(1, n))
        universe = list(combinations(range(1, n + 1), k))
        members = draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=8, unique=True)
        )
        return make_family(n, k, members)

    return st.composite(build)()


def small_pairs(max_n=7):
    """Strategy: (n, A masks, B masks), two random families on one ground set."""

    def build(draw):
        n = draw(st.integers(2, max_n))
        sides = []
        for _ in range(2):
            k = draw(st.integers(1, n))
            universe = ksubset_masks(n, k)
            sides.append(
                sorted(draw(st.lists(st.sampled_from(universe), max_size=6, unique=True)))
            )
        return (n, *sides)

    return st.composite(build)()


def symmetric_colours(max_n=7):
    """Strategy: (n, colours), one or two member lists closed under a random
    permutation group, so that the inputs have many automorphisms."""

    def build(draw):
        n = draw(st.integers(2, max_n))
        gens = draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=2))
        colours = []
        for _ in range(draw(st.integers(1, 2))):
            universe = ksubset_masks(n, draw(st.integers(1, n)))
            orbit = set(draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3)))
            frontier = list(orbit)
            while frontier:
                bits = frontier.pop()
                for g in gens:
                    image = sum(1 << g[p] for p in range(n) if bits >> p & 1)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            colours.append(sorted(orbit))
        return n, colours

    return st.composite(build)()


def relabel(bits, image):
    """The mask with each bit p moved to bit image[p]."""
    return sum(1 << image[p] for p in range(len(image)) if bits >> p & 1)


def relabel_family(fam, image):
    return Family.from_bitmasks(fam.n, fam.k, (relabel(m, image) for m in fam.bitmasks))


def brute_canonical(n, colours):
    """Reference oracle: the least jointly relabelled sorted bitmask tuples,
    one per member list, over all n! bijections of the ground set."""
    return min(
        tuple(tuple(sorted(relabel(m, image) for m in ms)) for ms in colours)
        for image in permutations(range(n))
    )


def perm_images(n):
    return st.permutations(list(range(n)))


# --- masks ---


def test_elements_bits_roundtrip():
    assert elements_to_bits([3, 1, 5], 5) == 0b10101
    assert bits_to_elements(0b10101) == (1, 3, 5)
    assert bits_to_elements(0) == ()


@given(st.sets(st.integers(1, 63), max_size=10))
def test_bits_elements_inverse(elems):
    assert set(bits_to_elements(elements_to_bits(elems, 63))) == elems


def test_elements_to_bits_rejects_out_of_ground():
    with pytest.raises(BadElementError):
        elements_to_bits([0, 2], 4)
    with pytest.raises(BadElementError):
        elements_to_bits([-3], 4)
    with pytest.raises(BadElementError):
        elements_to_bits([5], 4)


# --- frozen records ---


def test_records_compare_hash_and_freeze():
    from intersum.search import HeuristicConfig, SearchResult

    fam = star(5, 2, 1)
    fields = dict(config=(5, 2), best_value=6, bound=6, tight=True, exhaustive=True)
    res = SearchResult(**fields, witnesses=(fam,), runtime_ms=3, seed=None)
    # equality and hash skip runtime_ms, and the hash is that of the field tuple
    assert res == SearchResult(**fields, witnesses=(fam,), runtime_ms=40)
    assert res != SearchResult(**{**fields, "tight": False}, witnesses=(fam,))
    assert hash(res) == hash(((5, 2), 6, 6, True, True, (fam,), None))
    assert hash(fam) == hash((5, 2, fam.bitmasks))
    for record in (res, fam, HeuristicConfig()):
        with pytest.raises(AttributeError):
            record.n = 6
        with pytest.raises(AttributeError):
            del record.seed
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    assert HeuristicConfig() == HeuristicConfig(0, 2000, 8, 2.0, 0.999)
    assert repr(HeuristicConfig(seed=4)) == (
        "HeuristicConfig(seed=4, iterations=2000, restarts=8,"
        " initial_temperature=2.0, decay=0.999)"
    )
    for bad in ({"seeds": 1}, {"config": (5, 2)}):
        with pytest.raises(TypeError):
            SearchResult(**fields, witnesses=(), **bad)
    assert record_dict(res)["witnesses"] == ({"n": 5, "k": 2, "bitmasks": fam.bitmasks},)


# --- family construction and validation ---


def test_make_family_orders_members():
    f = make_family(4, 2, [[3, 4], [1, 2], [1, 3]])
    assert f.bitmasks == tuple(sorted(f.bitmasks))
    assert f.bitmasks[0] == 0b0011


def test_make_family_rejects_wrong_size():
    with pytest.raises(BadSizeError):
        make_family(5, 2, [[1, 2, 3]])


def test_make_family_rejects_duplicates():
    with pytest.raises(DuplicateSetError):
        make_family(5, 2, [[1, 2], [2, 1]])


def test_make_family_rejects_bad_element():
    with pytest.raises(BadElementError):
        make_family(4, 2, [[1, 6]])


def test_family_post_init_guards():
    with pytest.raises(DuplicateSetError, match=r"^duplicate member \[1, 2\]$"):
        Family.from_bitmasks(4, 2, [0b0011, 0b0011])
    with pytest.raises(BadSizeError, match=r"^member \[1, 2, 3\] does not have size 2$"):
        Family.from_bitmasks(4, 2, [0b0111])
    with pytest.raises(TooLargeError):
        make_family(70, 2, [[1, 2]])


def test_family_post_init_rejects_bad_masks():
    with pytest.raises(BadElementError):
        Family(4, 2, (-3, 0b0011))
    with pytest.raises(BadElementError):
        Family(4, 2, (0b0011, 0b10001))
    with pytest.raises(ValueError, match="sorted"):
        Family(4, 2, (0b1100, 0b0011))
    with pytest.raises(TypeError):
        Family(4, 2, [0b0011])
    with pytest.raises(TypeError):
        Family(4, 1, (True,))
    with pytest.raises(TypeError):
        Family(4, 2, (3.0,))
    # a non-int member is reported where the walk meets it: after a bad one
    # before it, before a wrong size after it
    with pytest.raises(BadElementError):
        Family(4, 1, (-1, True))
    with pytest.raises(TypeError):
        Family(4, 1, (True, 0b11))


def test_family_holds_masks_and_builds_member_views():
    f = make_family(4, 3, [[2, 3, 4], [1, 2, 3]])
    assert f.bitmasks == (0b0111, 0b1110)
    assert len(f) == 2
    assert repr(f) == "Family(n=4, k=3, sets=[[1, 2, 3], [2, 3, 4]])"
    assert repr(Family(4, 3, ())) == "Family(n=4, k=3, sets=[])"


# --- the bulk parser against the per-element loop ---


def oracle_make_family(n, k, sets):
    """make_family as a plain loop over every set and element."""
    masks, seen = [], set()
    for s in _items(sets, "sets"):
        bits = elements_to_bits(s, n)
        if bits.bit_count() != k:
            raise BadSizeError(
                f"set {sorted(bits_to_elements(bits))} has size {bits.bit_count()}, expected {k}"
            )
        if bits in seen:
            raise DuplicateSetError(f"duplicate set {list(bits_to_elements(bits))}")
        seen.add(bits)
        masks.append(bits)
    return Family.from_bitmasks(n, k, masks)


def parse_outcome(parse, n, k, sets):
    """The family built, or the class and message of the error raised."""
    try:
        return parse(n, k, sets)
    except IntersumError as exc:
        return type(exc), str(exc)


SALT = [True, False, 2.0, "1", [1], None, 0, -1, 2**70]


@st.composite
def raw_families(draw):
    """(n, k, sets): distinct k-sets in shuffled element order, sometimes
    salted with bad elements, repeats and wrong lengths."""
    n = draw(st.integers(1, MAX_GROUND))
    k = draw(st.integers(1, min(n, 6)))
    subsets = st.frozensets(st.integers(1, n), min_size=k, max_size=k)
    chosen = draw(st.lists(subsets, max_size=10, unique=True))
    sets = [draw(st.permutations(sorted(s))) for s in chosen]
    for _ in range(draw(st.integers(0, 3)) if sets else 0):
        i = draw(st.integers(0, len(sets) - 1))
        kind = draw(st.sampled_from(["salt", "repeat", "long", "short", "copy", "scalar"]))
        s = sets[i]
        if type(s) is not list:  # already replaced by a scalar
            continue
        if kind == "salt" and s:
            s[draw(st.integers(0, len(s) - 1))] = draw(st.sampled_from([*SALT, n + 1]))
        elif kind == "repeat" and s:
            s[draw(st.integers(0, len(s) - 1))] = s[0]
        elif kind == "long":
            s.append(draw(st.integers(1, n)))
        elif kind == "short" and s:
            s.pop()
        elif kind == "copy":
            sets.insert(draw(st.integers(0, len(sets))), list(s))
        elif kind == "scalar":
            sets[i] = draw(st.sampled_from([5, None, "12", {"1": 2}]))
    if draw(st.booleans()):
        sets = tuple(map(tuple, sets)) if all(type(s) is list for s in sets) else tuple(sets)
    return n, k, sets


# the bulk parser packs masks by byte lanes: 1..8 is lane 0, 9..16 lane 1, ...
LANE_EDGES = [1, 8, 9, 16, 17, 24, 25, 32, 33, 40, 41, 48, 49, 56, 57, 63]


@settings(max_examples=300, deadline=None)
@given(raw_families())
@example((5, 2, 7))
@example((5, 2, {"sets": [[1, 2]]}))
@example((5, 2, None))
@example((5, 2, []))
@example((MAX_GROUND, 16, [LANE_EDGES, LANE_EDGES[::-1][1:] + [2], [2, *LANE_EDGES[1:]]]))
@example((MAX_GROUND, 2, [[a, b] for a, b in zip(LANE_EDGES, LANE_EDGES[1:])]))
@example((MAX_GROUND, MAX_GROUND, [list(range(MAX_GROUND, 0, -1))]))
@example((MAX_GROUND, MAX_GROUND, [list(range(1, MAX_GROUND)) + [1]]))
@example((10, 3, ((3, 1, 2), (10, 9, 8), (4, 9, 5))))
@example((10, 3, [(3, 1, 2), [10, 9, 8], (4, 9, 5)]))
@example((10, 3, ((3, 1, 2), (3, 2, 1))))
@example((MAX_GROUND, 2, [[1, 2], [3, True]]))
@example((MAX_GROUND, 2, [[1, 2], [3, 0]]))
@example((MAX_GROUND, 2, [[1, 2], [3, 64]]))
@example((MAX_GROUND, 2, [[1, 2], [3, 255]]))
@example((MAX_GROUND, 2, [[1, 2], [3, 256]]))
@example((MAX_GROUND, 2, [[1, 2], [3, -1]]))
@example((8, 2, [[True, 2]]))
@example((8, 2, [[9, 2]]))
def test_make_family_matches_loop_oracle(case):
    n, k, sets = case
    assert parse_outcome(make_family, n, k, sets) == parse_outcome(oracle_make_family, n, k, sets)


def test_bulk_masks_pack_every_lane_edge():
    sets = [LANE_EDGES, LANE_EDGES[::-1], list(range(MAX_GROUND, 47, -1))]
    expected = [elements_to_bits(s, MAX_GROUND) for s in sets]
    assert _bulk_masks(MAX_GROUND, 16, sets) == expected
    singletons = [[e] for e in LANE_EDGES]
    assert _bulk_masks(MAX_GROUND, 1, singletons) == [1 << (e - 1) for e in LANE_EDGES]
    # OR merges a repeated element: popcount below k, which Family rejects
    assert _bulk_masks(9, 3, [(9, 9, 1)]) == [0b100000001]


# 255 and 256 straddle what bytes() takes; 64 lies past the bulk parser's lane tables
@pytest.mark.parametrize("salt", [*SALT, 6, 64, 255, 256, "scalar"])
def test_make_family_salted_error_matches_oracle(salt):
    n, k = 5, 3
    sets = [[1, 2, 3], [2, 4, salt], [1, 4, 5]] if salt != "scalar" else [[1, 2, 3], 4]
    expected = parse_outcome(oracle_make_family, n, k, sets)
    assert isinstance(expected, tuple)  # every salt is an error
    assert _bulk_masks(n, k, sets) is None  # found by the bulk test, not the family check
    assert parse_outcome(make_family, n, k, sets) == expected


@pytest.mark.parametrize(
    "sets",
    [
        [[1, 2, 3], [1, 2, 3]],  # repeated set
        [[1, 2, 3], [3, 2, 1]],  # repeated set, other order
        [[1, 2, 2]],  # repeated element, too few distinct
        [[1, 2, 3, 3], [1, 4, 5]],  # repeated element, k distinct: accepted
        [[1, 2]],  # too short
        [[1, 2, 3, 4]],  # too long
    ],
)
def test_make_family_repeats_and_lengths_match_oracle(sets):
    assert parse_outcome(make_family, 5, 3, sets) == parse_outcome(oracle_make_family, 5, 3, sets)


def test_family_dict_roundtrip():
    f = make_family(5, 2, [[2, 4], [1, 2], [3, 5]])
    d = family_to_dict(f)
    assert d["n"] == 5 and d["k"] == 2
    # each set sorted ascending, sets sorted lexicographically
    assert d["sets"] == sorted(d["sets"])
    assert all(s == sorted(s) for s in d["sets"])
    assert family_from_dict(d) == f


def test_family_from_dict_rejects_bad_shape():
    with pytest.raises(BadSizeError):
        family_from_dict({"n": 4, "sets": [[1, 2]]})
    with pytest.raises(BadSizeError):
        family_from_dict([1, 2, 3])
    with pytest.raises(BadElementError):
        family_from_dict({"n": 5, "k": 2, "sets": 7})
    with pytest.raises(BadElementError):
        family_from_dict({"n": 5, "k": 2, "sets": [7]})
    # JSON booleans are not sizes, although Python counts True as 1
    with pytest.raises(BadSizeError):
        family_from_dict({"n": True, "k": 1, "sets": [[1]]})
    with pytest.raises(BadSizeError):
        family_from_dict({"n": 5, "k": True, "sets": [[1]]})


def test_ksubset_masks_sorted_and_complete():
    for n in range(1, 8):
        for k in range(1, n + 1):
            masks = ksubset_masks(n, k)
            assert len(masks) == math.comb(n, k)
            assert list(masks) == sorted(masks)
            assert all(m.bit_count() == k for m in masks)
    with pytest.raises(BadSizeError):
        ksubset_masks(4, 0)


def test_ksubset_masks_and_stars_match_popcount_oracle():
    """Against every mask below 2^n with k bits, in ascending order, and its
    members through x, for every n <= 10."""
    for n in range(1, 11):
        for k in range(1, n + 1):
            want = tuple(m for m in range(1 << n) if m.bit_count() == k)
            assert ksubset_masks(n, k) == want
            for x in range(1, n + 1):
                assert star(n, k, x).bitmasks == tuple(m for m in want if m >> (x - 1) & 1)


def test_full_family():
    f = full_family(5, 3)
    assert len(f) == 10
    assert f.bitmasks == ksubset_masks(5, 3)


# --- stars and intersecting predicates ---


def test_star_shape():
    s = star(6, 3, 2)
    assert len(s) == math.comb(5, 2)
    assert all(m & 0b10 for m in s.bitmasks)
    assert is_intersecting(s)
    assert is_star(s) == 2


def test_star_rejects_bad_center():
    for center in (6, 0, 2.0, "2", True):
        with pytest.raises(BadElementError):
            star(5, 2, center)


def test_is_star_negative_cases():
    triangle = make_family(4, 2, [[1, 2], [1, 3], [2, 3]])
    assert is_star(triangle) is None
    # common element but too few members to be a full star
    partial = make_family(5, 2, [[1, 2], [1, 3]])
    assert is_star(partial) is None


def test_is_intersecting():
    assert is_intersecting(make_family(4, 2, [[1, 2], [1, 3], [2, 3]]))
    assert not is_intersecting(make_family(4, 2, [[1, 2], [3, 4]]))


def test_is_cross_intersecting():
    a = star(5, 2, 1)
    b = star(5, 3, 1)
    assert is_cross_intersecting(a, b)
    assert not is_cross_intersecting(
        make_family(5, 2, [[1, 2]]), make_family(5, 2, [[3, 4]])
    )
    with pytest.raises(GroundMismatchError):
        is_cross_intersecting(star(5, 2, 1), star(6, 2, 1))


# --- relabelling ---


@settings(max_examples=60)
@given(small_families(max_n=7), st.data())
def test_apply_perm_preserves_structure(fam, data):
    g = relabel_family(fam, data.draw(perm_images(fam.n)))
    assert len(g) == len(fam)
    assert is_intersecting(g) == is_intersecting(fam)
    assert sorted(element_degrees(g)) == sorted(element_degrees(fam))


def test_element_degrees():
    s = star(5, 2, 1)
    assert element_degrees(s) == (4, 1, 1, 1, 1)


def degrees_by_bits(family):
    """element_degrees as a loop over every member's bits."""
    degs = [0] * family.n
    for bits in family.bitmasks:
        while bits:
            low = bits & -bits
            degs[low.bit_length() - 1] += 1
            bits ^= low
    return tuple(degs)


def test_element_degrees_edge_families():
    cases = [
        Family(5, 2, ()),
        make_family(7, 3, [[2, 5, 7]]),
        make_family(MAX_GROUND, 2, [[1, MAX_GROUND], [2, MAX_GROUND], [1, 2]]),
        full_family(MAX_GROUND, 1),
    ]
    for fam in cases:
        assert element_degrees(fam) == degrees_by_bits(fam)
    assert element_degrees(cases[0]) == (0,) * 5
    assert element_degrees(cases[2])[-1] == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_GROUND), st.data())
def test_element_degrees_matches_bit_loop(n, data):
    k = data.draw(st.integers(1, n))
    rng = Random(data.draw(st.integers(0, 2**32)))
    count = data.draw(st.integers(0, min(40, math.comb(n, k))))
    masks = set()
    while len(masks) < count:
        masks.add(sum(1 << (e - 1) for e in rng.sample(range(1, n + 1), k)))
    fam = Family.from_bitmasks(n, k, masks)
    assert element_degrees(fam) == degrees_by_bits(fam)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, MAX_GROUND).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    )
)
@example((7, []))
@example((MAX_GROUND, [(1 << MAX_GROUND) - 1, 0, 1 << (MAX_GROUND - 1)]))
def test_columns_put_mask_i_at_bit_i(case):
    n, masks = case
    cols = _columns(tuple(masks), n)
    assert len(cols) == n
    for x, col in enumerate(cols):
        assert col == sum(1 << i for i, m in enumerate(masks) if m >> x & 1)


@settings(max_examples=60)
@given(small_families())
def test_degree_sum_identity(fam):
    # every member contributes k to the total degree
    assert sum(element_degrees(fam)) == fam.k * len(fam)


# --- canonical forms ---


def test_canonical_form_triangle():
    t = make_family(5, 2, [[2, 4], [2, 5], [4, 5]])
    c = canonical_form(t)
    assert c == make_family(5, 2, [[1, 2], [1, 3], [2, 3]])


def test_canonical_form_idempotent_and_orbit_constant():
    t = make_family(5, 2, [[1, 3], [3, 4], [1, 4]])
    c = canonical_form(t)
    assert canonical_form(c) == c
    for image in permutations(range(5)):
        assert canonical_form(relabel_family(t, image)) == c


def test_canonical_form_singletons_fast_path():
    f = make_family(9, 1, [[7], [2], [9]])
    assert canonical_form(f) == make_family(9, 1, [[1], [2], [3]])
    g = make_family(5, 1, [[4], [2]])
    assert canonical_form(g).bitmasks == brute_canonical(5, [g.bitmasks])[0] == (1, 2)


def test_canonical_form_size_limit():
    # no limit below MAX_GROUND: stars on 10 and 11 points relabel to star 1
    assert canonical_form(star(11, 2, 4)) == star(11, 2, 1)
    assert canonical_form(star(10, 3, 7)) == star(10, 3, 1)


def test_canonical_form_exhaustive_small():
    for n in range(1, 5):
        for k in range(1, n + 1):
            universe = ksubset_masks(n, k)
            for sub in range(1 << len(universe)):
                masks = [m for i, m in enumerate(universe) if sub >> i & 1]
                fam = Family.from_bitmasks(n, k, masks)
                assert canonical_form(fam).bitmasks == brute_canonical(n, [masks])[0]


@settings(max_examples=60, deadline=None)
@given(small_families(max_n=7))
def test_canonical_form_matches_oracle(fam):
    assert canonical_form(fam).bitmasks == brute_canonical(fam.n, [fam.bitmasks])[0]


@settings(max_examples=60, deadline=None)
@given(small_pairs(max_n=7))
def test_canonical_pair_matches_oracle(pair):
    n, ma, mb = pair
    assert _canonical_masks(n, [ma, mb]) == brute_canonical(n, [ma, mb])


@settings(max_examples=60, deadline=None)
@given(symmetric_colours(max_n=7))
def test_canonical_symmetric_inputs_match_oracle(case):
    # many tied branches here end in equal leaves, so pruning by prefix is tested hard
    n, colours = case
    assert _canonical_masks(n, colours) == brute_canonical(n, colours)


@settings(max_examples=60, deadline=None)
@given(small_families(max_n=12), st.data())
def test_canonical_form_relabel_invariant(fam, data):
    image = data.draw(perm_images(fam.n))
    assert canonical_form(relabel_family(fam, image)) == canonical_form(fam)


@settings(max_examples=60, deadline=None)
@given(small_pairs(max_n=12), st.data())
def test_canonical_pair_relabel_invariant(pair, data):
    n, ma, mb = pair
    image = data.draw(perm_images(n))
    moved = [sorted(relabel(m, image) for m in ms) for ms in (ma, mb)]
    assert _canonical_masks(n, moved) == _canonical_masks(n, [ma, mb])


def test_canonical_form_separates_equal_fingerprints():
    # C6 and two disjoint triangles: same degrees and meet counts, not isomorphic
    hexagon = make_family(11, 2, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
    triangles = make_family(11, 2, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    assert sorted(element_degrees(hexagon)) == sorted(element_degrees(triangles))
    assert intersection_profile(hexagon, hexagon) == intersection_profile(triangles, triangles)
    assert canonical_form(hexagon) != canonical_form(triangles)
