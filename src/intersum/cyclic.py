"""Cyclic permutations, intervals, and the double-counting checks built on them.

A cyclic permutation of {1..n} is stored as the tuple of elements in cycle
order, rotated so element 1 sits at position 0.  Rotations are therefore
identified, reflections are not, and there are exactly (n-1)! distinct
objects, which enumerate_cyclic walks in a fixed order.

A length-t interval is t cyclically consecutive positions; it is *oriented*:
it knows its left (first) and right (last) endpoint.  An ordered pair (A, B)
of an interval of fam_a and an interval of fam_b is *representable* when
A ∩ B is a nonempty interval whose right endpoint is A's right endpoint and
whose left endpoint is B's left endpoint.  Counting representable pairs in
two ways, per pair across all cyclic permutations and per permutation across
pairs, is the engine behind double_count_check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, permutations
from math import factorial
from operator import sub
from typing import Iterator, Sequence

from .errors import (
    BadElementError,
    BadLengthError,
    GroundMismatchError,
    HypothesisError,
    TooLargeError,
)
from .setcore import (
    MAX_SWEEP_GROUND,
    Family,
    KSet,
    _is_int,
    _require_same_ground,
    is_cross_intersecting,
)

# All-permutation sweeps are capped at MAX_SWEEP_GROUND, defined in setcore.
# Single-permutation interval analysis only needs the 2^n subset walk.
MAX_SINGLE_GROUND = 16
MAX_ENUM_GROUND = 10


@dataclass(frozen=True)
class CyclicPerm:
    """Elements of {1..n} in cycle order, anchored so order[0] == 1."""

    n: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise BadLengthError(f"cyclic permutations need n >= 2, got {self.n}")
        if sorted(self.order) != list(range(1, self.n + 1)):
            raise BadElementError(f"order {self.order!r} is not an arrangement of 1..{self.n}")
        if self.order[0] != 1:
            raise BadElementError("cycle order must be rotated so element 1 is first")

    @classmethod
    def identity(cls, n: int) -> "CyclicPerm":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "CyclicPerm":
        """Accept any rotation of a cycle and anchor it at element 1."""
        seq = tuple(seq)
        if 1 not in seq:
            raise BadElementError(f"sequence {seq!r} does not contain element 1")
        i = seq.index(1)
        return cls(len(seq), seq[i:] + seq[:i])

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        pos = [0] * self.n
        for i, e in enumerate(self.order):
            pos[e - 1] = i
        return tuple(pos)

    def position_of(self, element: int) -> int:
        if not 1 <= element <= self.n:
            raise BadElementError(f"element {element} outside ground set 1..{self.n}")
        return self._positions[element - 1]

    def element_at(self, position: int) -> int:
        return self.order[position % self.n]


def enumerate_cyclic(n: int) -> Iterator[CyclicPerm]:
    """All (n-1)! cyclic permutations of {1..n}, reflections distinct."""
    if n < 2:
        raise BadLengthError(f"cyclic permutations need n >= 2, got {n}")
    if n > MAX_ENUM_GROUND:
        raise TooLargeError(f"enumerate_cyclic is limited to n <= {MAX_ENUM_GROUND}, got {n}")
    return (CyclicPerm(n, (1,) + rest) for rest in permutations(range(2, n + 1)))


@dataclass(frozen=True)
class Interval:
    """length cyclically consecutive positions of perm, starting at start."""

    perm: CyclicPerm
    start: int
    length: int

    def __post_init__(self) -> None:
        if not 1 <= self.length < self.perm.n:
            raise BadLengthError(
                f"interval length {self.length} out of range 1..{self.perm.n - 1}"
            )
        if not 0 <= self.start < self.perm.n:
            raise ValueError(f"start position {self.start} out of range 0..{self.perm.n - 1}")

    @property
    def left(self) -> int:
        return self.perm.element_at(self.start)

    @property
    def right(self) -> int:
        return self.perm.element_at(self.start + self.length - 1)

    @cached_property
    def bits(self) -> int:
        b = 0
        for j in range(self.length):
            b |= 1 << (self.perm.element_at(self.start + j) - 1)
        return b

    def as_kset(self) -> KSet:
        return KSet(self.perm.n, self.bits)

    def elements(self) -> tuple[int, ...]:
        """Elements in cycle order, left endpoint first."""
        return tuple(self.perm.element_at(self.start + j) for j in range(self.length))


def intervals_of_length(perm: CyclicPerm, length: int) -> tuple[Interval, ...]:
    """The n intervals of the given length, one per start position."""
    if not 1 <= length < perm.n:
        raise BadLengthError(f"interval length {length} out of range 1..{perm.n - 1}")
    return tuple(Interval(perm, s, length) for s in range(perm.n))


def _position_mask(bits: int, pos: Sequence[int]) -> int:
    p = 0
    while bits:
        low = bits & -bits
        p |= 1 << pos[low.bit_length() - 1]
        bits ^= low
    return p


def _arc_start(posmask: int, n: int) -> int | None:
    """Start position if posmask is one nonempty arc shorter than the full
    cycle, else None."""
    if posmask == 0 or posmask == (1 << n) - 1:
        return None
    full = (1 << n) - 1
    rot = ((posmask << 1) | (posmask >> (n - 1))) & full
    starts = posmask & ~rot
    if starts & (starts - 1):
        return None
    return starts.bit_length() - 1


def interval_of(perm: CyclicPerm, s: KSet) -> Interval | None:
    """The oriented interval equal to s as a set, or None."""
    if s.n != perm.n:
        raise GroundMismatchError(f"set on ground 1..{s.n}, permutation on 1..{perm.n}")
    t = s.size
    if not 1 <= t < perm.n:
        return None
    start = _arc_start(_position_mask(s.bits, perm._positions), perm.n)
    if start is None:
        return None
    return Interval(perm, start, t)


@dataclass(frozen=True)
class RepresentablePair:
    """An ordered interval pair whose meet hangs off A's right and B's left end."""

    a: KSet
    b: KSet
    meet: KSet
    perm: CyclicPerm


def representable_pairs(
    perm: CyclicPerm, fam_a: Family, fam_b: Family
) -> tuple[RepresentablePair, ...]:
    """All representable ordered pairs (A, B) with A in fam_a, B in fam_b.

    Members that are not intervals of perm cannot participate.  Order is
    fam_a-major with members in bitmask order.
    """
    _require_same_ground(fam_a, fam_b)
    if fam_a.n != perm.n:
        raise GroundMismatchError(f"families on 1..{fam_a.n}, permutation on 1..{perm.n}")
    n = perm.n
    pos = perm._positions
    out = []
    a_info = [(ks, _arc_info(ks.bits, pos, n)) for ks in fam_a.members]
    b_info = [(ks, _arc_info(ks.bits, pos, n)) for ks in fam_b.members]
    for a_ks, a_arc in a_info:
        if a_arc is None:
            continue
        pa, sa = a_arc
        a_right = (sa + fam_a.k - 1) % n
        for b_ks, b_arc in b_info:
            if b_arc is None:
                continue
            pb, sb = b_arc
            pm = pa & pb
            if pm == 0:
                continue
            sm = _arc_start(pm, n)
            if sm is None:
                continue
            tm = pm.bit_count()
            if sm != sb or (sm + tm - 1) % n != a_right:
                continue
            out.append(
                RepresentablePair(a_ks, b_ks, KSet(n, a_ks.bits & b_ks.bits), perm)
            )
    return tuple(out)


def _arc_info(bits: int, pos: Sequence[int], n: int) -> tuple[int, int] | None:
    """(position mask, start) when bits is an interval of the permutation."""
    pm = _position_mask(bits, pos)
    start = _arc_start(pm, n)
    if start is None:
        return None
    return pm, start


def interval_meet_family(
    perm: CyclicPerm, fam_a: Family, fam_b: Family, m: int
) -> Family:
    """The distinct meets of size m arising from representable pairs."""
    if not 1 <= m <= min(fam_a.k, fam_b.k):
        raise BadLengthError(f"meet size {m} out of range 1..{min(fam_a.k, fam_b.k)}")
    meets = {
        rp.meet.bits
        for rp in representable_pairs(perm, fam_a, fam_b)
        if rp.meet.size == m
    }
    return Family.from_bitmasks(perm.n, m, meets)


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
    """Element bits of every cycle order, in enumerate_cyclic order; the
    identity order comes first."""
    for rest in permutations([1 << x for x in range(1, n)]):
        yield (1, *rest)


# ---------------------------------------------------------------------------
# maximum intersecting interval subfamilies
# ---------------------------------------------------------------------------


def _meet_graph(masks: Sequence[int]) -> tuple[int, ...]:
    """adj[i] has bit j set when masks i and j (i != j) share an element."""
    adj = [0] * len(masks)
    for i, mask in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if mask & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


@lru_cache(maxsize=64)
def _max_intersecting_interval_subsets(
    adj: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Max size and all maximum cliques of adj, each as its ascending indices.

    Subset DP: S is a clique iff S minus its lowest member is, and the lowest
    member is adjacent to everything else.  The answer depends on adj alone,
    so it is memoised on it; the results are immutable.
    """
    n_iv = len(adj)
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


@dataclass(frozen=True)
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
    """
    if not (_is_int(n) and _is_int(k)) or k < 1:
        raise HypothesisError(f"need integers n >= 2k >= 2, got n={n!r}, k={k!r}")
    if n < 2 * k:
        raise HypothesisError(f"interval analysis needs n >= 2k, got n={n}, k={k}")
    limit = MAX_SWEEP_GROUND if all_perms else MAX_SINGLE_GROUND
    if n > limit:
        mode = "all permutations" if all_perms else "one permutation"
        raise TooLargeError(f"katona_verify over {mode} is limited to n <= {limit}, got {n}")

    best = 0
    counts: set[int] = set()
    all_fixed = True
    perms_checked = 0
    examples: tuple[Family, ...] = ()
    # the identity order comes first, and without all_perms it is the only one
    orders = _orders(n) if all_perms else [next(_orders(n))]
    # Each order's meet graph is built from its own windows.  Two windows meet
    # exactly when their positions overlap, so every order of one (n, k) gives
    # the same graph and the subset DP runs once; the common-element test
    # still reads each order's masks.
    for order in orders:
        masks = _windows(order, k)
        b, maxima = _max_intersecting_interval_subsets(_meet_graph(masks))
        if not perms_checked:
            # the identity order's maxima are the examples
            examples = tuple(
                Family.from_bitmasks(n, k, [masks[i] for i in clique]) for clique in maxima
            )
        best = max(best, b)
        counts.add(len(maxima))
        all_fixed = all_fixed and _each_shares_element(masks, maxima)
        perms_checked += 1

    uniqueness_expected = n > 2 * k
    ok = (
        best == k
        and len(counts) == 1
        and (not uniqueness_expected or all_fixed)
    )
    return KatonaReport(
        n=n,
        k=k,
        all_perms=all_perms,
        perms_checked=perms_checked,
        max_size=best,
        expected_max=k,
        maxima_count=len(examples),
        maxima_count_consistent=len(counts) == 1,
        all_maxima_fixed=all_fixed,
        uniqueness_expected=uniqueness_expected,
        ok=ok,
        example_maxima=examples,
    )


# ---------------------------------------------------------------------------
# double counting of representable pairs across all cyclic permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def double_count_check(fam_a: Family, fam_b: Family, m: int) -> DoubleCountReport:
    """Count, over all (n-1)! cyclic permutations, the representable pairs
    with meet size exactly m, and compare against the closed-form census.

    Every ordered pair (A, B) with |A ∩ B| = m >= 1 is representable in
    exactly (n-k-l+m)! (k-m)! m! (l-m)! cyclic permutations, so the sweep
    total must equal that factor times the number of such pairs.  Within one
    permutation the meets of distinct representable pairs must be distinct,
    and when the families are cross-intersecting with n >= k + l, at most m
    distinct meets of size m can occur per permutation.

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
    if not 1 <= m <= min(k, l):
        raise HypothesisError(f"meet size m={m} out of range 1..{min(k, l)}")

    pairs = [
        (a, b)
        for a in fam_a.bitmasks
        for b in fam_b.bitmasks
        if (a & b).bit_count() == m
    ]
    check_bound = n >= k + l and is_cross_intersecting(fam_a, fam_b)
    index = {pair: i for i, pair in enumerate(pairs)}
    meet_of = [a & b for a, b in pairs]
    per_pair = [0] * len(pairs)
    meets_distinct = True
    bound_ok = True
    max_meets = 0
    # With 1 <= k, l < n a k- or l-interval has exactly one start.  A pair
    # (A, B) with |A ∩ B| = m is then representable exactly when A is the
    # k-window at some s and B the l-window at s + k - m: their meet is the
    # m-window at s + k - m, which ends at A's right end and starts at B's
    # left end.  So one order costs n dict lookups, whatever the pair count.
    shift = k - m
    for order in _orders(n):
        b_windows = _windows(order, l)
        window_pairs = zip(_windows(order, k), b_windows[shift:] + b_windows[:shift])
        hits = [i for i in map(index.get, window_pairs) if i is not None]
        for i in hits:
            per_pair[i] += 1
        meets = {meet_of[i] for i in hits}
        max_meets = max(max_meets, len(meets))
        if check_bound and len(meets) > m:
            bound_ok = False
        if len(meets) != len(hits):
            meets_distinct = False

    if n - k - l + m >= 0:
        factor = (
            factorial(n - k - l + m) * factorial(k - m) * factorial(m) * factorial(l - m)
        )
    else:
        factor = 0
    lhs = sum(per_pair)
    rhs = len(pairs) * factor
    per_pair_ok = all(c == factor for c in per_pair)
    ok = (
        lhs == rhs
        and per_pair_ok
        and meets_distinct
        and (bound_ok or not check_bound)
    )
    return DoubleCountReport(
        n=n,
        k=k,
        l=l,
        m=m,
        perms_checked=factorial(n - 1),
        pair_count=len(pairs),
        per_pair_expected=factor,
        per_pair_ok=per_pair_ok,
        lhs_total=lhs,
        rhs_total=rhs,
        meets_distinct_ok=meets_distinct,
        meet_bound_checked=check_bound,
        meet_bound_ok=bound_ok if check_bound else True,
        max_meets_in_one_perm=max_meets,
        ok=ok,
    )
