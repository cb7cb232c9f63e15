"""The seeded annealing engines behind search.heuristic_max.

Plain simulated annealing over families, restarted from empty.  Up to
_SA_ADJ_CAP k-sets it adds a greedy completion pass, so short runs still land
on maximal families; above that cap there is no completion, and a run
reports the best family it visited, which need not be maximal.

heuristic_max imports this module when it is called, so the exact commands
never compile it.  Every random draw, acceptance test and best snapshot is
part of the seeded behaviour contract: a change here that moves one of them
moves the pinned results.
"""
from __future__ import annotations

import math
import random
from operator import mul

from .search import HeuristicConfig, _bits_list, _meeting, _universe

# The annealer only needs the universe (and its adjacency) in memory.
_SA_UNIVERSE_CAP = 100_000
_SA_ADJ_CAP = 4096
_SA_CROSS_B_CAP = 2048

# _LOW_MASKS[e] is the mask of the low 2**e bits, for every mask a universe
# can index; _BYTE_BITS[b] lists the positions of the set bits of b < 256,
# built by doubling (b + 2**i holds bit i above the bits of b).
_LOW_MASKS = [(1 << (1 << e)) - 1 for e in range(_SA_UNIVERSE_CAP.bit_length())]
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _i in range(8):
    _BYTE_BITS += [bits + (_i,) for bits in _BYTE_BITS]
del _i


def _nth_set_bit(mask: int, idx: int) -> int:
    """Position of the set bit of rank idx (0-based, from the low end).

    Halves the mask at powers of two, keeping the half that holds the bit,
    until 8 bits are left, and reads the position from _BYTE_BITS, so a w-bit
    mask costs O(log w) big-int operations.  mask must be below
    2**(2**len(_LOW_MASKS)), which every annealer universe is.
    """
    base = 0
    e = (mask.bit_length() - 1).bit_length()  # mask < 2**(2**e)
    while e > 3:
        e -= 1
        low = mask & _LOW_MASKS[e]
        c = low.bit_count()
        if idx < c:
            mask = low
        else:
            idx -= c
            mask >>= 1 << e
            base += 1 << e
    return base + _BYTE_BITS[mask][idx]


def _below(getrandbits, m: int) -> int:
    """Random.randrange(m) for an int m > 0, draw for draw: m.bit_length()
    random bits, drawn again until they fall below m."""
    b = m.bit_length()
    r = getrandbits(b)
    while r >= m:
        r = getrandbits(b)
    return r


class _MissCounts:
    """For every index j of a universe, how many members of the current
    family fail to be compatible with j, bit-sliced: bit j of planes[b] is
    bit b of that count.  Adding or removing a member's miss set costs
    O(log |family|) big-int operations, so the compatible sets (count 0)
    follow every move without a pass over the members.  The indices with
    count 0 and with count 1 are kept until the next change, so queries
    between moves (most proposals are rejected) cost O(1)."""

    def __init__(self, full: int):
        self.full = full
        self.planes: list[int] = []
        self.levels: tuple[int, int] | None = (full, 0)

    def add(self, mask: int) -> None:
        self.levels = None
        planes = self.planes
        for b, p in enumerate(planes):
            planes[b] = p ^ mask
            mask &= p
            if not mask:
                return
        if mask:
            planes.append(mask)

    def remove(self, mask: int) -> None:
        self.levels = None
        planes = self.planes
        for b, p in enumerate(planes):
            planes[b] = p ^ mask
            mask &= ~p
            if not mask:
                return

    def zero_without(self, mask: int) -> int:
        """Indices compatible with every member once a member whose miss set
        is mask leaves: count 0, or 1 and in mask (mask 0: none leaves)."""
        if self.levels is None:
            odd, high = (self.planes or [0])[0], 0
            for p in self.planes[1:]:
                high |= p
            self.levels = (self.full & ~(odd | high), odd & ~high)
        zero, one = self.levels
        return zero | one & mask


def _anneal_family(n: int, k: int, cfg: HeuristicConfig) -> tuple[int, tuple[int, ...]]:
    """Best (value, member bitmasks) found by annealing intersecting families.

    The total is tracked through the element degrees of the current family:
    a set v joining it meets the members in sum(deg[x] for x in v) elements
    in all, so a move's gain costs O(k) instead of a pass over the members.
    Up to _SA_ADJ_CAP sets, the compatible sets are kept as a bitset through
    _MissCounts, fed from miss[v], the sets incompatible with v (v itself
    included), built once beside adj; every 64 steps and at the end of each
    restart the family is completed greedily (complete), unless a degree
    bound shows that the completion cannot beat the best.  Above the cap,
    proposals are sampled and checked against held[x], the bitset of member
    indices that contain x, and no completion runs: the best family visited
    is returned as it stands, and may fall far short of the bound.  The best
    family is kept as universe indices and turned into masks once, at the
    end.
    """
    universe, elems, by_elem = _universe(n, k, _SA_UNIVERSE_CAP, "annealer universe cap")
    big_n = len(universe)
    full = (1 << big_n) - 1
    use_adj = big_n <= _SA_ADJ_CAP
    adj: list[int] = []
    miss: list[int] = []
    if use_adj:
        adj = [_meeting(by_elem, xs) & ~(1 << i) for i, xs in enumerate(elems)]
        miss = [full ^ row for row in adj]

    def complete(cmask: int, val: int, members: list[int], deg: list[int]) -> None:
        # Every set the completion adds lies in cmask, so with p[x] of its
        # sets holding x it is worth at most val + sum_x (deg[x] p[x] +
        # C(p[x], 2)), the exact search's node bound; below the best it is
        # skipped.  Otherwise take the lowest compatible set until none is
        # left: with a[x] of the added sets holding x, they meet the members
        # in a[x] deg[x] elements at x and one another in C(a[x], 2).
        nonlocal best_val, best_members
        ps = [(cmask & column).bit_count() for column in by_elem]
        if val + sum(map(mul, deg, ps)) + (sum(map(mul, ps, ps)) - sum(ps)) // 2 <= best_val:
            return
        added = 0
        while cmask:
            low = cmask & -cmask
            added |= low
            cmask &= adj[low.bit_length() - 1]
        a = [(added & column).bit_count() for column in by_elem]
        val += sum(map(mul, deg, a)) + (sum(map(mul, a, a)) - sum(a)) // 2
        if val > best_val:
            best_val = val
            best_members = members + _bits_list(added)

    rng = random.Random(cfg.seed)
    uniform, bits = rng.random, rng.getrandbits
    below, nth, exp = _below, _nth_set_bit, math.exp
    decay = cfg.decay
    best_val = -1
    best_members: list[int] = []
    for _ in range(cfg.restarts):
        members: list[int] = []
        deg = [0] * n
        dget = deg.__getitem__
        misses = _MissCounts(full)
        add_miss, remove_miss, free_of = misses.add, misses.remove, misses.zero_without
        held = [0] * n
        cmask = full if use_adj else 0
        val = 0
        temp = cfg.initial_temperature
        for it in range(cfg.iterations):
            # an empty family takes a uniform set (every set is compatible),
            # with no move drawn and no completion after it
            move = uniform() if members else -1.0
            if move < 0.45:
                # grow with a compatible set
                if use_adj:
                    if cmask == 0:
                        temp *= decay
                        continue
                    v = nth(cmask, below(bits, cmask.bit_count()))
                    cmask &= adj[v]
                    add_miss(miss[v])
                else:
                    v = _sample_compatible(bits, elems, held, len(members))
                    if v is None:
                        temp *= decay
                        continue
                    for x in elems[v]:
                        held[x] |= 1 << v
                ys = elems[v]
                val += sum(map(dget, ys))
                for x in ys:
                    deg[x] += 1
                members.append(v)
            elif move < 0.60:
                # drop a member; its own k elements are not meets
                ui = below(bits, len(members))
                u = members[ui]
                xs = elems[u]
                delta = k - sum(map(dget, xs))
                if delta >= 0 or (temp > 1e-12 and uniform() < exp(delta / temp)):
                    members.pop(ui)
                    val += delta
                    for x in xs:
                        deg[x] -= 1
                    if use_adj:
                        miss_u = miss[u]
                        cmask = free_of(miss_u)
                        remove_miss(miss_u)
                    else:
                        for x in xs:
                            held[x] ^= 1 << u
            else:
                # swap one member for a set compatible with the rest
                ui = below(bits, len(members))
                u = members[ui]
                if use_adj:
                    miss_u = miss[u]
                    free = free_of(miss_u)
                    cwo = free & ~(1 << u)
                    if cwo == 0:
                        temp *= decay
                        continue
                    v = nth(cwo, below(bits, cwo.bit_count()))
                else:
                    v = _sample_compatible(bits, elems, held, len(members) - 1, forbid=u)
                    if v is None:
                        temp *= decay
                        continue
                xs, ys = elems[u], elems[v]
                # deg still counts u, which meets v in |u & v| and itself in k
                delta = sum(map(dget, ys)) - sum(map(dget, xs)) + k
                delta -= (universe[u] & universe[v]).bit_count()
                if delta >= 0 or (temp > 1e-12 and uniform() < exp(delta / temp)):
                    members[ui] = v
                    val += delta
                    for x in xs:
                        deg[x] -= 1
                    for x in ys:
                        deg[x] += 1
                    if use_adj:
                        remove_miss(miss_u)
                        add_miss(miss[v])
                        # u left, so it is compatible again if it meets v
                        cmask = free & adj[v]
                    else:
                        for x in xs:
                            held[x] ^= 1 << u
                        for x in ys:
                            held[x] |= 1 << v
            if val > best_val:
                best_val, best_members = val, members[:]
            if it & 63 == 63 and use_adj and move >= 0:
                complete(cmask, val, members, deg)
            temp *= decay
        if use_adj:
            complete(cmask, val, members, deg)
    return best_val, tuple(map(universe.__getitem__, sorted(best_members)))


def _sample_compatible(getrandbits, elems, held, size, forbid=-1, tries=32):
    """Random universe index outside the family that meets its `size`
    members other than forbid, by rejection sampling.  held[x] is the bitset
    of member indices containing x, so a candidate costs O(k) to check."""
    keep = ~(1 << forbid) if forbid >= 0 else -1
    for _ in range(tries):
        i = _below(getrandbits, len(elems))
        xs = elems[i]
        if held[xs[0]] >> i & 1:
            continue
        meets = 0
        for x in xs:
            meets |= held[x]
        if (meets & keep).bit_count() == size:
            return i
    return None


def _anneal_cross(
    n: int, k: int, l: int, cfg: HeuristicConfig
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Best (value, A masks, B masks) for cross pairs; B is always the full
    compatible family for the current A.

    A pair's total is sum over x of d_A(x) * d_B(x).  d_A is kept as moves
    are accepted, and B follows A through _MissCounts together with d_B,
    whose d_B(x) is the popcount of B's index bitset against the bitset of
    l-sets holding x.  The new B costs O(k) big-int operations when a k-set
    joins A and O(log |A|) when one leaves.  If B is unchanged, the total
    moves by the sum of d_B over that k-set, O(k); only a move that changes
    B recounts d_B, in n popcounts.  A k-set's B-side meeting bitset is
    built the first time it is proposed (meets), and its miss set once, when
    it joins A (a_miss, beside a_members).  The best pair is kept as A's
    indices and B's bitset and turned into masks once, at the end.
    """
    # the B side first: its cap is the smaller, so nothing large is built
    # before a refusal
    ub, _, b_by_elem = _universe(n, l, _SA_CROSS_B_CAP, "cross annealer B-side cap")
    ua, elems_a, _ = _universe(n, k, _SA_UNIVERSE_CAP, "annealer universe cap")
    na = len(ua)
    full_b = (1 << len(ub)) - 1
    # every k-set meets some l-set, so 0 marks a bitset not built yet
    meets = [0] * na

    rng = random.Random(cfg.seed)
    uniform, bits = rng.random, rng.getrandbits
    below, exp = _below, math.exp
    decay = cfg.decay
    best_val = -1
    best_a: list[int] = []
    best_b = 0
    for _ in range(cfg.restarts):
        a_members: list[int] = []
        a_miss: list[int] = []
        d_a = [0] * n
        misses = _MissCounts(full_b)
        add_miss, remove_miss, free_of = misses.add, misses.remove, misses.zero_without
        bmask = full_b
        d_b = [e.bit_count() for e in b_by_elem]
        val = 0
        temp = cfg.initial_temperature
        for _ in range(cfg.iterations):
            if not a_members or uniform() < 0.6:
                i = below(bits, na)
                xs = elems_a[i]
                ci = meets[i]
                if not ci:
                    ci = meets[i] = _meeting(b_by_elem, xs)
                nbm = bmask & ci
                # a member of A meets all of B, so it leaves B unchanged
                if not nbm or nbm == bmask and i in a_members:
                    temp *= decay
                    continue
                sign = 1
            else:
                ui = below(bits, len(a_members))
                xs = elems_a[a_members[ui]]
                miss_u = a_miss[ui]
                nbm = free_of(miss_u)
                sign = -1
            if nbm == bmask:
                nd_b, nval = d_b, val + sign * sum(map(d_b.__getitem__, xs))
            else:
                nd_b = [(nbm & e).bit_count() for e in b_by_elem]
                nval = sum(map(mul, d_a, nd_b)) + sign * sum(map(nd_b.__getitem__, xs))
            delta = nval - val
            if delta >= 0 or (temp > 1e-12 and uniform() < exp(delta / temp)):
                for x in xs:
                    d_a[x] += sign
                if sign > 0:
                    miss_i = full_b ^ ci
                    a_members.append(i)
                    a_miss.append(miss_i)
                    add_miss(miss_i)
                else:
                    a_members.pop(ui)
                    a_miss.pop(ui)
                    remove_miss(miss_u)
                bmask, val, d_b = nbm, nval, nd_b
            if val > best_val and a_members:
                best_val, best_a, best_b = val, a_members[:], bmask
            temp *= decay
    return (
        best_val,
        tuple(map(ua.__getitem__, sorted(best_a))),
        tuple(map(ub.__getitem__, _bits_list(best_b))),
    )
