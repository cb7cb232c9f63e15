"""Exact and heuristic maximization of total intersection size.

Both exact searches look at one representative per relabelling class only.
Adding a compatible set to a nonempty intersecting family strictly increases
the total, so every maximizer is maximal.  For intersecting families the
representatives are the shifted ones: with d(i) >= d(j), the shift S_ij keeps
a family intersecting and its size and raises omega = sum_x C(d(x), 2) by
a (d(i) - d(j)) + a^2 when it moves a >= 1 members, so an optimal family,
relabelled by decreasing degree, is a down-set of the componentwise order.
The search decides the k-sets in ascending mask order (a linear extension of
that order) and only ever holds such down-sets.  The cross search sweeps
the subsets A of the k-side that hold {1..k}, each paired with every l-set
meeting all of A; any optimal pair relabels to one of these.  Pruning is
strict (ub < incumbent), so ties survive and every optimal class is
collected.  Both bounds are the paper's double count over element degrees,
not pair sums, so a node costs O(n) big-int operations: the intersecting
bound is r_val + sum_x (deg[x] p(x) + C(p(x), 2)) over the candidates P, and
the cross bound is val + sum_x suffix[i][x] d_B(x).  A budget caps C(n, k)
(and C(n, l)) and must lie in 1..MAX_EXHAUSTIVE_BUDGET.

The heuristic is plain simulated annealing over families, restarted from
empty, with a greedy completion pass so short runs still land on maximal
families.  It never proves anything, but it raises CounterexampleError if it
ever beats a proved bound, which is the point of running it.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import compress
from operator import mul, sub

from .bounds import omega_cross_bound, omega_intersecting_bound
from .cyclic import _orders, _windows
from .errors import (
    BadSizeError,
    CounterexampleError,
    HypothesisError,
    InternalError,
    NotExhaustiveError,
    TooLargeError,
)
from .setcore import (
    MAX_EXHAUSTIVE_BUDGET,
    MAX_SWEEP_GROUND,
    NAIVE_BUDGET,
    Family,
    _canonical_masks,
    _check_ground,
    _check_member_size,
    _is_int,
    canonical_form,
    family_to_dict,
    is_star,
    ksubset_masks,
    star,
)
from .weights import omega_cross, omega_family

# C(n, k) caps: NAIVE_BUDGET and MAX_EXHAUSTIVE_BUDGET are defined in setcore.
# The annealer only needs the universe (and its adjacency) in memory.
DEFAULT_EXHAUSTIVE_BUDGET = 24
_SA_UNIVERSE_CAP = 100_000
_SA_ADJ_CAP = 4096
_SA_CROSS_B_CAP = 2048
# Cap on iterations * restarts (the default is 16 000 steps).
MAX_ANNEAL_STEPS = 10_000_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one maximization run.

    config is (n, k) for intersecting families and (n, k, l) for cross pairs;
    witnesses holds families, or (family, family) pairs, accordingly.
    """

    config: tuple[int, ...]
    best_value: int
    bound: int | None
    tight: bool
    exhaustive: bool
    witnesses: tuple
    runtime_ms: int = field(default=0, compare=False)
    seed: int | None = None

    def to_json_dict(self) -> dict:
        """JSON shape with exact integers as decimal strings."""
        if len(self.config) == 3:
            wits = [
                {"a": family_to_dict(a), "b": family_to_dict(b)}
                for a, b in self.witnesses
            ]
        else:
            wits = [family_to_dict(f) for f in self.witnesses]
        return {
            "config": list(self.config),
            "best_value": str(self.best_value),
            "bound": None if self.bound is None else str(self.bound),
            "tight": self.tight,
            "exhaustive": self.exhaustive,
            "witnesses": wits,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class HeuristicConfig:
    seed: int = 0
    iterations: int = 2000
    restarts: int = 8
    initial_temperature: float = 2.0
    decay: float = 0.999


def _check_params(n: int, k: int) -> None:
    _check_ground(n)
    _check_member_size(n, k)


def _check_budget(budget: int) -> None:
    if not _is_int(budget) or budget < 1:
        raise BadSizeError(f"budget must be a positive integer, got {budget!r}")
    if budget > MAX_EXHAUSTIVE_BUDGET:
        raise TooLargeError(
            f"budget {budget} exceeds the exhaustive ceiling {MAX_EXHAUSTIVE_BUDGET}"
        )


def _bits_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _element_bitsets(n: int, elems: list[tuple[int, ...]]) -> list[int]:
    """For each element x, the bitset of universe indices whose set holds x."""
    out = [0] * n
    for i, xs in enumerate(elems):
        bit = 1 << i
        for x in xs:
            out[x] |= bit
    return out


def _meeting(by_elem: list[int], xs: tuple[int, ...]) -> int:
    """Bitset of universe indices whose set meets the set with elements xs."""
    row = 0
    for x in xs:
        row |= by_elem[x]
    return row


# ---------------------------------------------------------------------------
# witness normalization
# ---------------------------------------------------------------------------


def _family_classes(n: int, k: int, index_sets, universe) -> tuple[Family, ...]:
    """Collapse raw optimal families to their distinct canonical forms, one
    per relabelling class, in ascending bitmask order."""
    by_key = {}
    for idxs in index_sets:
        c = canonical_form(Family.from_bitmasks(n, k, [universe[i] for i in idxs]))
        by_key[c.bitmasks] = c
    return tuple(by_key[key] for key in sorted(by_key))


def _pair_classes(n: int, k: int, l: int, raw_pairs) -> tuple:
    """Same collapse for ordered (A, B) pairs, relabelled jointly."""
    keys = {_canonical_masks(n, [fa.bitmasks, fb.bitmasks]) for fa, fb in raw_pairs}
    return tuple(
        (Family.from_bitmasks(n, k, ma), Family.from_bitmasks(n, l, mb))
        for ma, mb in sorted(keys)
    )


# ---------------------------------------------------------------------------
# exact search: intersecting families
# ---------------------------------------------------------------------------


def max_omega_intersecting(
    n: int, k: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET
) -> SearchResult:
    """Exact maximum of the unordered-pair total over intersecting families.

    Enumerates the shifted intersecting families by branch and bound and
    reports the canonical forms of the optimal ones.  Refuses universes
    larger than budget, and parameters with n < 2k, where the closed form
    does not apply.

    Why shifted families suffice: for i != j the shift S_ij replaces each
    member A with j in A, i not in A by A - j + i unless that set is already
    a member; it keeps a family intersecting and keeps its size (Erdos, Ko
    and Rado 1961; Frankl 1987).  If it moves a >= 1 members, d(i) rises by a
    and d(j) falls by a, so omega = sum_x C(d(x), 2) grows by
    a (d(i) - d(j)) + a^2, which is positive when d(i) >= d(j).  An optimal
    family is therefore fixed by every such shift; relabelled by decreasing
    degree it is shifted, a down-set of the componentwise order on k-sets.
    So every optimal class has a shifted member, and the classes are the
    canonical forms of the optimal shifted families.

    The sets are decided in ascending mask order, a linear extension of the
    componentwise order.  P holds the sets still takeable: they meet every
    member and every set below them is a member or still in P, so its lowest
    set can always be taken.  Taking v drops from P the sets that miss v and
    every set above one of those; leaving v out drops v and every set above
    it.  deg[x] counts the members that hold x, a candidate v adds
    sum(deg[x] for x in v), and with p(x) the number of sets in P holding x
    the node bound r_val + sum_x (deg[x] p(x) + C(p(x), 2)) costs O(n)
    big-int operations.  Pruning is strict, so ties survive.
    """
    t0 = time.perf_counter()
    _check_params(n, k)
    _check_budget(budget)
    if n < 2 * k:
        raise HypothesisError(f"exact search needs n >= 2k, got n={n}, k={k}")
    count = math.comb(n, k)
    if count > budget:
        raise TooLargeError(
            f"C({n},{k}) = {count} exceeds the exhaustive budget {budget}"
        )
    universe = ksubset_masks(n, k)
    elems = [tuple(_bits_list(m)) for m in universe]
    by_elem = _element_bitsets(n, elems)
    index = {m: i for i, m in enumerate(universe)}
    full = (1 << count) - 1
    # up[v]: v and every set above it in the componentwise order, built from
    # the upper covers (one element x raised to x + 1), which come later.
    up = [0] * count
    for v in reversed(range(count)):
        m = universe[v]
        row = 1 << v
        for x in elems[v]:
            if x + 1 < n and not m >> (x + 1) & 1:
                row |= up[index[m ^ (3 << x)]]
        up[v] = row
    # keep[v]: the sets still takeable once v is taken, which excludes v,
    # the sets missing v and everything above those.
    keep = []
    for v, xs in enumerate(elems):
        blocked = 1 << v
        for w in _bits_list(full & ~_meeting(by_elem, xs)):
            blocked |= up[w]
        keep.append(~blocked)

    bound = omega_intersecting_bound(n, k).value
    best = omega_family(star(n, k, 1))
    raw: list[tuple[int, tuple[int, ...]]] = []
    r: list[int] = []
    deg = [0] * n

    def expand(r_val: int, p_mask: int) -> None:
        nonlocal best
        if not p_mask:
            if r and r_val >= best:
                best = r_val
                raw.append((r_val, tuple(r)))
            return
        # sum_x C(p(x), 2) = (sum_x p(x)^2 - k |P|) / 2
        ps = [(p_mask & e).bit_count() for e in by_elem]
        meets = (sum(map(mul, ps, ps)) - k * p_mask.bit_count()) // 2
        if r_val + sum(map(mul, deg, ps)) + meets < best:
            return
        v = (p_mask & -p_mask).bit_length() - 1
        xs = elems[v]
        gain = sum(deg[x] for x in xs)
        r.append(v)
        for x in xs:
            deg[x] += 1
        expand(r_val + gain, p_mask & keep[v])
        for x in xs:
            deg[x] -= 1
        r.pop()
        expand(r_val, p_mask & ~up[v])

    expand(0, full)
    # The star on element 1 is shifted and reached unpruned at the seed
    # value, so at least one winner is always recorded.
    winners = [idxs for val, idxs in raw if val == best]
    witnesses = _family_classes(n, k, winners, universe)
    if best > bound:
        raise CounterexampleError(
            f"exact search found {best} above the proved bound {bound} at (n,k)=({n},{k})",
            witness=witnesses,
        )
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        config=(n, k),
        best_value=best,
        bound=bound,
        tight=best == bound,
        exhaustive=True,
        witnesses=witnesses,
        runtime_ms=runtime_ms,
    )


def max_omega_intersecting_naive(n: int, k: int, budget: int = NAIVE_BUDGET) -> SearchResult:
    """Reference oracle: test all 2^C(n,k) subsets directly.

    Exists to cross-check the branch-and-bound on small instances; same
    result contract as max_omega_intersecting.
    """
    t0 = time.perf_counter()
    _check_params(n, k)
    _check_budget(budget)
    if n < 2 * k:
        raise HypothesisError(f"exact search needs n >= 2k, got n={n}, k={k}")
    count = math.comb(n, k)
    if count > budget:
        raise TooLargeError(f"C({n},{k}) = {count} exceeds the naive budget {budget}")
    universe = ksubset_masks(n, k)
    big_n = len(universe)
    table = [[(a & b).bit_count() for b in universe] for a in universe]
    adj = [0] * big_n
    for i in range(big_n):
        for j in range(i + 1, big_n):
            if table[i][j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    full = (1 << big_n) - 1

    best = 0
    winners = []
    for sub in range(1 << big_n):
        members = _bits_list(sub)
        ok = True
        for i in members:
            if sub & ~(adj[i] | (1 << i)):
                ok = False
                break
        if not ok:
            continue
        val = 0
        for ai, i in enumerate(members):
            row = table[i]
            for j in members[ai + 1 :]:
                val += row[j]
        if val < best:
            continue
        compat = full
        for i in members:
            compat &= adj[i]
        maximal = (compat & ~sub) == 0 and sub != 0
        if not maximal:
            continue
        if val > best:
            best, winners = val, [tuple(members)]
        else:
            winners.append(tuple(members))
    bound = omega_intersecting_bound(n, k).value
    witnesses = _family_classes(n, k, winners, universe)
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        config=(n, k),
        best_value=best,
        bound=bound,
        tight=best == bound,
        exhaustive=True,
        witnesses=witnesses,
        runtime_ms=runtime_ms,
    )


# ---------------------------------------------------------------------------
# exact search: cross-intersecting pairs
# ---------------------------------------------------------------------------


def max_omega_cross(
    n: int, k: int, l: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET
) -> SearchResult:
    """Exact maximum of the ordered-pair total over cross-intersecting pairs.

    Sweeps the subsets A of the k-side that hold ua[0] = {1..k}; the best
    partner for a fixed A is the family of all compatible l-sets, so only
    those pairs are scored.  Rooting loses no class: an optimal pair has A
    nonempty, a relabelling moves one member of A onto {1..k}, and the
    relabelled B is again every l-set meeting all of A (an l-set left out
    would add its meets with A), so the sweep scores that pair.

    Values and bounds are degree sums: d_B(x) is the popcount of B's index
    bitset against the l-sets holding x, and the sets ua[i:] still to be
    decided add at most sum_x suffix[i][x] d_B(x), where suffix[i][x] counts
    those holding x.  A node costs O(n) big-int operations.
    """
    t0 = time.perf_counter()
    _check_params(n, k)
    _check_params(n, l)
    _check_budget(budget)
    if l > k:
        raise HypothesisError(f"cross search is stated for k >= l, got k={k}, l={l}")
    if n < k + l:
        raise HypothesisError(f"cross search needs n >= k + l, got n={n}, k={k}, l={l}")
    ca, cb = math.comb(n, k), math.comb(n, l)
    if max(ca, cb) > budget:
        raise TooLargeError(
            f"C({n},{k}) = {ca}, C({n},{l}) = {cb}; budget is {budget}"
        )
    ua = ksubset_masks(n, k)
    ub_masks = ksubset_masks(n, l)
    na = len(ua)
    elems_a = [tuple(_bits_list(m)) for m in ua]
    b_by_elem = _element_bitsets(n, [tuple(_bits_list(m)) for m in ub_masks])
    compat = [_meeting(b_by_elem, xs) for xs in elems_a]
    suffix = [[0] * n]
    for xs in reversed(elems_a):
        row = list(suffix[-1])
        for x in xs:
            row[x] += 1
        suffix.append(row)
    suffix.reverse()

    bound = omega_cross_bound(n, k, l).value
    best = omega_cross(star(n, k, 1), star(n, l, 1))
    raw: list[tuple[int, tuple[int, ...], int]] = []
    a_idx: list[int] = []
    d_a = [0] * n

    def sweep(i: int, bmask: int, val: int, d_b: list[int]) -> None:
        nonlocal best
        if i == na:
            if a_idx and bmask and val >= best:
                best = val
                raw.append((val, tuple(a_idx), bmask))
            return
        if val + sum(map(mul, suffix[i], d_b)) < best:
            return
        nb_mask = bmask & compat[i]
        if nb_mask:
            xs = elems_a[i]
            nd_b = d_b if nb_mask == bmask else [(nb_mask & e).bit_count() for e in b_by_elem]
            # the l-sets leaving B hold d_b[x] - nd_b[x] copies of x
            nval = val + sum(nd_b[x] for x in xs) - sum(map(mul, d_a, map(sub, d_b, nd_b)))
            a_idx.append(i)
            for x in xs:
                d_a[x] += 1
            sweep(i + 1, nb_mask, nval, nd_b)
            for x in xs:
                d_a[x] -= 1
            a_idx.pop()
        if i:  # A always holds ua[0] = {1..k}
            sweep(i + 1, bmask, val, d_b)

    full_b = (1 << len(ub_masks)) - 1
    sweep(0, full_b, 0, [e.bit_count() for e in b_by_elem])
    # The star pair is closed (each side is the other's maximal partner) for
    # n >= k + l, so its leaf is visited and the seed value is recorded.
    winners = [(a, b) for val, a, b in raw if val == best]
    raw_pairs = [
        (
            Family.from_bitmasks(n, k, [ua[i] for i in a]),
            Family.from_bitmasks(n, l, [ub_masks[j] for j in _bits_list(b)]),
        )
        for a, b in winners
    ]
    witnesses = _pair_classes(n, k, l, raw_pairs)
    if best > bound:
        raise CounterexampleError(
            f"exact cross search found {best} above the proved bound {bound}"
            f" at (n,k,l)=({n},{k},{l})",
            witness=witnesses,
        )
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        config=(n, k, l),
        best_value=best,
        bound=bound,
        tight=best == bound,
        exhaustive=True,
        witnesses=witnesses,
        runtime_ms=runtime_ms,
    )


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------


def _nth_set_bit(mask: int, idx: int) -> int:
    base = 0
    while True:
        word = mask & 0xFFFFFFFFFFFFFFFF
        c = word.bit_count()
        if idx < c:
            for _ in range(idx):
                word &= word - 1
            return base + (word & -word).bit_length() - 1
        idx -= c
        mask >>= 64
        base += 64


def _random_set_bit(rng: random.Random, mask: int) -> int:
    return _nth_set_bit(mask, rng.randrange(mask.bit_count()))


class _MissCounts:
    """For every index j of a universe, how many members of the current
    family fail to be compatible with j, bit-sliced: bit j of planes[b] is
    bit b of that count.  Adding or removing a member's miss set costs
    O(log |family|) big-int operations, so the compatible sets (count 0)
    follow every move without a pass over the members."""

    def __init__(self, full: int):
        self.full = full
        self.planes: list[int] = []

    def add(self, mask: int) -> None:
        planes = self.planes
        for b, p in enumerate(planes):
            planes[b] = p ^ mask
            mask &= p
            if not mask:
                return
        if mask:
            planes.append(mask)

    def remove(self, mask: int) -> None:
        planes = self.planes
        for b, p in enumerate(planes):
            planes[b] = p ^ mask
            mask &= ~p
            if not mask:
                return

    def zero(self) -> int:
        """Indices every member is compatible with."""
        high = 0
        for p in self.planes:
            high |= p
        return self.full & ~high

    def zero_without(self, mask: int) -> int:
        """Indices every member is compatible with once a member whose miss
        set is mask leaves: count 0, or count 1 and in mask."""
        if not self.planes:
            return self.full
        high = 0
        for p in self.planes[1:]:
            high |= p
        return self.full & ~high & ~(self.planes[0] & ~mask)


def _anneal_family(n: int, k: int, cfg: HeuristicConfig) -> tuple[int, tuple[int, ...]]:
    """Best (value, member bitmasks) found by annealing intersecting families.

    The total is tracked through the element degrees of the current family:
    a set v joining it meets the members in sum(deg[x] for x in v) elements
    in all, so a move's gain costs O(k) instead of a pass over the members.
    Up to _SA_ADJ_CAP sets, the compatible sets are kept as a bitset through
    _MissCounts; above it, proposals are sampled and checked against held[x],
    the bitset of member indices that contain x.
    """
    count = math.comb(n, k)
    if count > _SA_UNIVERSE_CAP:
        raise TooLargeError(
            f"annealer needs the k-set universe in memory; C({n},{k}) = {count}"
            f" exceeds {_SA_UNIVERSE_CAP}"
        )
    universe = ksubset_masks(n, k)
    elems = [tuple(_bits_list(m)) for m in universe]
    big_n = len(universe)
    full = (1 << big_n) - 1
    use_adj = count <= _SA_ADJ_CAP
    adj: list[int] = []
    if use_adj:
        by_elem = _element_bitsets(n, elems)
        adj = [_meeting(by_elem, xs) & ~(1 << i) for i, xs in enumerate(elems)]

    rng = random.Random(cfg.seed)
    best_val = -1
    best_members: tuple[int, ...] = ()

    def consider(val: int, members: list[int]) -> None:
        nonlocal best_val, best_members
        if val > best_val:
            best_val = val
            best_members = tuple(sorted(universe[i] for i in members))

    def closure_value(members: list[int], cmask: int, val: int) -> tuple[int, list[int]]:
        ms = list(members)
        d = list(deg)
        while cmask:
            v = (cmask & -cmask).bit_length() - 1
            for x in elems[v]:
                val += d[x]
                d[x] += 1
            ms.append(v)
            cmask &= adj[v]
        return val, ms

    def enter(v: int) -> None:
        for x in elems[v]:
            deg[x] += 1
        if use_adj:
            misses.add(full ^ adj[v])
        else:
            bit = 1 << v
            for x in elems[v]:
                held[x] |= bit

    def leave(u: int) -> None:
        for x in elems[u]:
            deg[x] -= 1
        if use_adj:
            misses.remove(full ^ adj[u])
        else:
            bit = 1 << u
            for x in elems[u]:
                held[x] ^= bit

    for _ in range(cfg.restarts):
        members: list[int] = []
        deg = [0] * n
        misses = _MissCounts(full)
        held = [0] * n
        cmask = full if use_adj else 0
        val = 0
        temp = cfg.initial_temperature
        for it in range(cfg.iterations):
            if not members:
                v = rng.randrange(big_n)
                members.append(v)
                enter(v)
                if use_adj:
                    cmask = adj[v]
                consider(0, members)
                temp *= cfg.decay
                continue
            move = rng.random()
            if move < 0.45:
                # grow with a compatible set
                if use_adj:
                    if cmask == 0:
                        temp *= cfg.decay
                        continue
                    v = _random_set_bit(rng, cmask)
                    cmask &= adj[v]
                else:
                    v = _sample_compatible(rng, elems, held, len(members))
                    if v is None:
                        temp *= cfg.decay
                        continue
                val += sum(deg[x] for x in elems[v])
                members.append(v)
                enter(v)
            elif move < 0.60:
                # drop a member; its own k elements are not meets
                ui = rng.randrange(len(members))
                u = members[ui]
                delta = k - sum(deg[x] for x in elems[u])
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    members.pop(ui)
                    leave(u)
                    val += delta
                    if use_adj:
                        cmask = misses.zero()
            else:
                # swap one member for a set compatible with the rest
                ui = rng.randrange(len(members))
                u = members[ui]
                if use_adj:
                    cwo = misses.zero_without(full ^ adj[u]) & ~(1 << u)
                    if cwo == 0:
                        temp *= cfg.decay
                        continue
                    v = _random_set_bit(rng, cwo)
                else:
                    v = _sample_compatible(rng, elems, held, len(members) - 1, forbid=u)
                    if v is None:
                        temp *= cfg.decay
                        continue
                # deg still counts u, which meets v in |u & v| and itself in k
                delta = (
                    sum(deg[x] for x in elems[v])
                    - (universe[u] & universe[v]).bit_count()
                    - sum(deg[x] for x in elems[u])
                    + k
                )
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    members[ui] = v
                    leave(u)
                    enter(v)
                    val += delta
                    if use_adj:
                        cmask = misses.zero()
            consider(val, members)
            if use_adj and it % 64 == 63:
                cval, cms = closure_value(members, cmask, val)
                consider(cval, cms)
            temp *= cfg.decay
        if use_adj:
            cval, cms = closure_value(members, cmask, val)
            consider(cval, cms)
    return best_val, best_members


def _sample_compatible(rng, elems, held, size, forbid=-1, tries=32):
    """Random universe index outside the family that meets its `size`
    members other than forbid, by rejection sampling.  held[x] is the bitset
    of member indices containing x, so a candidate costs O(k) to check."""
    keep = ~(1 << forbid) if forbid >= 0 else -1
    for _ in range(tries):
        i = rng.randrange(len(elems))
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
    are accepted; d_B(x) is the popcount of B's index bitset against the
    bitset of l-sets holding x, and B itself follows A through _MissCounts,
    so a move costs O(n + log |A|) big-int operations.
    """
    ca, cb = math.comb(n, k), math.comb(n, l)
    if ca > _SA_UNIVERSE_CAP or cb > _SA_CROSS_B_CAP:
        raise TooLargeError(
            f"cross annealer needs both universes in memory; C({n},{k}) = {ca},"
            f" C({n},{l}) = {cb} exceed caps {_SA_UNIVERSE_CAP}/{_SA_CROSS_B_CAP}"
        )
    ua = ksubset_masks(n, k)
    ub = ksubset_masks(n, l)
    elems_a = [tuple(_bits_list(m)) for m in ua]
    b_by_elem = _element_bitsets(n, [tuple(_bits_list(m)) for m in ub])
    na = len(ua)
    full_b = (1 << len(ub)) - 1

    def b_degrees(bmask: int) -> list[int]:
        return [(bmask & e).bit_count() for e in b_by_elem]

    rng = random.Random(cfg.seed)
    best_val = -1
    best_a: tuple[int, ...] = ()
    best_b: tuple[int, ...] = ()

    def consider(val: int, a_members: list[int], bmask: int) -> None:
        nonlocal best_val, best_a, best_b
        if val > best_val and a_members and bmask:
            best_val = val
            best_a = tuple(sorted(ua[i] for i in a_members))
            best_b = tuple(sorted(ub[j] for j in _bits_list(bmask)))

    for _ in range(cfg.restarts):
        a_members: list[int] = []
        d_a = [0] * n
        misses = _MissCounts(full_b)
        bmask = full_b
        val = 0
        temp = cfg.initial_temperature
        for _ in range(cfg.iterations):
            grow = not a_members or rng.random() < 0.6
            if grow:
                i = rng.randrange(na)
                if i in a_members:
                    temp *= cfg.decay
                    continue
                ci = _meeting(b_by_elem, elems_a[i])
                nbm = bmask & ci
                if nbm == 0:
                    temp *= cfg.decay
                    continue
                d_b = b_degrees(nbm)
                nval = sum(map(mul, d_a, d_b)) + sum(d_b[x] for x in elems_a[i])
                delta = nval - val
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    a_members.append(i)
                    for x in elems_a[i]:
                        d_a[x] += 1
                    misses.add(full_b ^ ci)
                    bmask, val = nbm, nval
            else:
                ui = rng.randrange(len(a_members))
                u = a_members[ui]
                miss_u = full_b ^ _meeting(b_by_elem, elems_a[u])
                nbm = misses.zero_without(miss_u)
                d_b = b_degrees(nbm)
                nval = sum(map(mul, d_a, d_b)) - sum(d_b[x] for x in elems_a[u])
                delta = nval - val
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    a_members.pop(ui)
                    for x in elems_a[u]:
                        d_a[x] -= 1
                    misses.remove(miss_u)
                    bmask, val = nbm, nval
            consider(val, a_members, bmask)
            temp *= cfg.decay
    return best_val, best_a, best_b


def heuristic_max(
    n: int, k: int, l: int | None = None, config: HeuristicConfig | None = None
) -> SearchResult:
    """Seeded annealing lower bound on the relevant maximum.

    Returns the best family (or pair) found; raises CounterexampleError if
    that ever exceeds a proved bound, and InternalError if the tracked total
    differs from a recount of the witness.  Witnesses are reported as found,
    not canonicalized: the annealer's seeded result is the report.
    """
    t0 = time.perf_counter()
    cfg = config or HeuristicConfig()
    _check_params(n, k)
    if cfg.iterations < 1 or cfg.restarts < 1:
        raise BadSizeError("heuristic needs at least one restart and one iteration")
    if not 0.0 < cfg.decay <= 1.0 or not 0.0 <= cfg.initial_temperature < math.inf:
        raise BadSizeError("decay must be in (0, 1] and temperature finite and nonnegative")
    steps = cfg.iterations * cfg.restarts
    if steps > MAX_ANNEAL_STEPS:
        raise TooLargeError(
            f"iterations x restarts = {steps} exceeds the step cap {MAX_ANNEAL_STEPS}"
        )
    if l is None:
        bound = omega_intersecting_bound(n, k).value if n >= 2 * k else None
        best, members = _anneal_family(n, k, cfg)
        fam = Family.from_bitmasks(n, k, members)
        check = omega_family(fam)
        witnesses: tuple = (fam,)
        cfg_tuple: tuple[int, ...] = (n, k)
    else:
        _check_params(n, l)
        if l > k:
            raise HypothesisError(f"cross mode is stated for k >= l, got k={k}, l={l}")
        bound = omega_cross_bound(n, k, l).value if n >= k + l else None
        best, a_masks, b_masks = _anneal_cross(n, k, l, cfg)
        fa = Family.from_bitmasks(n, k, a_masks)
        fb = Family.from_bitmasks(n, l, b_masks)
        check = omega_cross(fa, fb)
        witnesses = ((fa, fb),)
        cfg_tuple = (n, k, l)
    if check != best:
        raise InternalError(f"annealer bookkeeping drifted: tracked {best}, actual {check}")
    if bound is not None and best > bound:
        raise CounterexampleError(
            f"heuristic found {best} above the proved bound {bound} at {cfg_tuple}",
            witness=witnesses,
        )
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return SearchResult(
        config=cfg_tuple,
        best_value=best,
        bound=bound,
        tight=bound is not None and best == bound,
        exhaustive=False,
        witnesses=witnesses,
        runtime_ms=runtime_ms,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# witness assessment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessAssessment:
    index: int
    star_center: int | None
    is_extremal_pattern: bool
    interval_pattern_checked: bool
    interval_pattern_holds: bool | None


@dataclass(frozen=True)
class UniquenessReport:
    config: tuple[int, ...]
    exhaustive: bool
    witness_count: int
    assessments: tuple[WitnessAssessment, ...]
    all_witnesses_extremal: bool
    uniqueness_expected: bool
    ok: bool


def _interval_patterns(n: int, families: list[Family]) -> bool:
    """True when, in every cyclic order of 1..n, each family's members that
    are intervals are exactly the intervals through one position, the same
    position for every family (the family's center in that order).

    Orders are plain tuples of element bits with element 1 first, in the
    order of cyclic.enumerate_cyclic, and their intervals are the windows of
    cyclic._windows.  For each family of k-sets, end_of maps the bitset of
    start positions of the length-k intervals through position p to p.
    """
    checks = [
        (f.k, set(f.bitmasks), {sum(1 << (p - j) % n for j in range(f.k)): p for p in range(n)})
        for f in families
    ]
    position_bits = [1 << s for s in range(n)]
    for order in _orders(n):
        center = None
        for t, members, end_of in checks:
            windows = _windows(order, t)
            present = sum(compress(position_bits, map(members.__contains__, windows)))
            p = end_of.get(present)
            if p is None or center not in (None, p):
                return False
            center = p
    return True


def uniqueness_report(result: SearchResult) -> UniquenessReport:
    """Classify each witness of a search result against the star pattern.

    For intersecting families the expected extremal shape is a star; for
    cross pairs, two stars with a common center.  Where the ground set is
    small enough (n <= 8) the interval trace of each witness is also checked
    over all cyclic permutations; at boundary parameters (n == 2k, n == k + l)
    that trace is necessary but not sufficient for stardom, so it is
    reported, not enforced.  Uniqueness itself is only asserted strictly
    inside the regime (n > 2k, n > k + l).

    Only exhaustive results can be assessed; heuristic ones raise
    NotExhaustiveError.
    """
    if not result.exhaustive:
        raise NotExhaustiveError(
            "uniqueness assessment needs an exhaustive search result"
        )
    cfg = result.config
    cross = len(cfg) == 3
    n = cfg[0]
    strict_regime = n > cfg[1] + cfg[2] if cross else n > 2 * cfg[1]
    check_intervals = n <= MAX_SWEEP_GROUND
    assessments = []
    for idx, wit in enumerate(result.witnesses):
        if cross:
            fa, fb = wit
            xa, xb = is_star(fa), is_star(fb)
            extremal = xa is not None and xa == xb
            center = xa if extremal else None
            holds = _interval_patterns(n, [fa, fb]) if check_intervals else None
        else:
            center = is_star(wit)
            extremal = center is not None
            holds = _interval_patterns(n, [wit]) if check_intervals else None
        assessments.append(
            WitnessAssessment(
                index=idx,
                star_center=center,
                is_extremal_pattern=extremal,
                interval_pattern_checked=check_intervals,
                interval_pattern_holds=holds,
            )
        )
    all_extremal = all(a.is_extremal_pattern for a in assessments)
    ok = not strict_regime or (
        len(result.witnesses) == 1
        and all_extremal
        and all(a.interval_pattern_holds is not False for a in assessments)
    )
    return UniquenessReport(
        config=cfg,
        exhaustive=result.exhaustive,
        witness_count=len(result.witnesses),
        assessments=tuple(assessments),
        all_witnesses_extremal=all_extremal,
        uniqueness_expected=strict_regime,
        ok=ok,
    )
