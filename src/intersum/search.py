"""Exact and heuristic maximization of total intersection size.

Both exact searches look at one representative per relabelling class only.
Adding a compatible set to a nonempty intersecting family strictly increases
the total, so every maximizer is maximal.  For intersecting families the
representatives are the shifted ones.  The shift S_ij keeps a family
intersecting and its size, and when it moves a >= 1 members it changes
omega = sum_x C(d(x), 2) by a (d(i) - d(j)) + a^2.  By lemma L1 (proved at
max_omega_intersecting) that is never negative, whatever the degrees, so the
value needs no degree condition; the class list needs the strict gain when
d(i) >= d(j), which makes an optimal family, relabelled by decreasing
degree, a down-set of the componentwise order.
The search decides the k-sets in ascending mask order (a linear extension of
that order) and only ever holds such down-sets.  The cross search sweeps
the l-side, never the larger one: the subsets B of the l-sets that hold
{1..l}, each paired with every k-set meeting all of B; any optimal pair
relabels to one of these.  Pruning is strict (ub < incumbent), so ties
survive and every optimal class is collected.  Both bounds are the paper's
double count over element degrees, not pair sums, so a node costs O(n)
big-int operations: the intersecting bound is
r_val + sum_x (deg[x] p(x) + C(p(x), 2)) over the candidates P, and the cross
bound is val + sum_x suffix[i][x] d_A(x), suffix counting the l-sets still to
be decided.  Each exact search first asks bounds for its closed form, which
refuses parameters outside the proved regime, so the regime is decided there
alone.  The closed form also seeds the incumbent, and a leaf is recorded only
when it reaches the incumbent, so a tight result always has a witness; if no
family attains the closed form, the search runs again from 0 and reports the
true maximum, not tight.  So few raw winners are recorded (1 to 6 at every
benchmark and README-table config, 35 at (5,3,2)) that each is canonicalised
as it stands.  Both searches run depth first on an explicit stack, never
recursing, so the budget bounds their depth, not the recursion limit.  A
budget caps C(n, k) and must lie in 1..MAX_EXHAUSTIVE_BUDGET.  Every search, exact or annealing, takes its k-set
universe from _universe, the one place that refuses an oversized C(n, k).

The heuristic, heuristic_max, is plain simulated annealing over families,
restarted from empty; its engines live in _anneal, which only heuristic_max
imports.  It never proves anything, but it raises CounterexampleError if it
ever beats a proved bound, which is the point of running it.
"""
from __future__ import annotations

import math
import time
from itertools import combinations
from operator import mul, sub

from .bounds import omega_cross_bound, omega_intersecting_bound
from .errors import (
    BadSizeError,
    CounterexampleError,
    HypothesisError,
    InternalError,
    NotExhaustiveError,
    TooLargeError,
)
from .setcore import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    MAX_EXHAUSTIVE_BUDGET,
    Family,
    _canonical_masks,
    _check_sizes,
    _columns,
    _is_int,
    family_to_dict,
    frozen_record,
    is_star,
    ksubset_masks,
)
from .weights import omega_cross, omega_family

# The exhaustive C(n, k) caps and the default budget are defined in setcore,
# the annealer's universe caps in _anneal.  Cap on iterations * restarts (the
# default is 16 000 steps).
MAX_ANNEAL_STEPS = 10_000_000


@frozen_record(uncompared=("runtime_ms",))
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
    runtime_ms: int = 0
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


@frozen_record
class HeuristicConfig:
    seed: int = 0
    iterations: int = 2000
    restarts: int = 8
    initial_temperature: float = 2.0
    decay: float = 0.999


def _check_budget(budget: int) -> None:
    if not _is_int(budget) or budget < 1:
        raise BadSizeError(f"budget must be a positive integer, got {budget!r}")
    if budget > MAX_EXHAUSTIVE_BUDGET:
        raise TooLargeError(
            f"budget {budget} exceeds the exhaustive ceiling {MAX_EXHAUSTIVE_BUDGET}"
        )


def _universe(
    n: int, k: int, cap: int, kind: str
) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[int]]:
    """The k-set universe of a search: its masks in ascending order, each
    mask's elements (_element_tuples) and, for each element, the bitset of
    the indices holding it (_columns).  Refused, before anything is built,
    when C(n, k) exceeds cap, the search's kind of limit."""
    count = math.comb(n, k)
    if count > cap:
        raise TooLargeError(f"C({n},{k}) = {count} exceeds the {kind} {cap}")
    masks = ksubset_masks(n, k)
    return masks, _element_tuples(n, k), _columns(masks, n)


def _finish(
    config: tuple[int, ...],
    best: int,
    bound: int | None,
    witnesses: tuple,
    t0: float,
    *,
    exhaustive: bool,
    seed: int | None,
) -> SearchResult:
    """The result of every search, timed from t0; raises CounterexampleError,
    carrying the witnesses, when best beats a proved bound."""
    if bound is not None and best > bound:
        what = "exact cross search" if len(config) == 3 else "exact search"
        raise CounterexampleError(
            f"{what if exhaustive else 'heuristic'} found {best} above the proved bound {bound}"
            f" at ({','.join('nkl'[: len(config)])})=({','.join(map(str, config))})",
            witness=witnesses,
        )
    return SearchResult(
        config=config,
        best_value=best,
        bound=bound,
        tight=best == bound,
        exhaustive=exhaustive,
        witnesses=witnesses,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        seed=seed,
    )


def _bits_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _element_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """[tuple(_bits_list(m)) for m in ksubset_masks(n, k)], built faster:
    combinations over n - 1, ..., 0 yields the k-sets top element first in
    descending mask order, so the list is read backwards."""
    return [c[::-1] for c in reversed(list(combinations(range(n - 1, -1, -1), k)))]


def _meeting(by_elem: list[int], xs: tuple[int, ...]) -> int:
    """Bitset of universe indices whose set meets the set with elements xs."""
    row = 0
    for x in xs:
        row |= by_elem[x]
    return row


# ---------------------------------------------------------------------------
# witness normalization
# ---------------------------------------------------------------------------


def _witness_classes(n: int, sizes: tuple[int, ...], raw) -> tuple[tuple[Family, ...], ...]:
    """Collapse raw optimal winners to their distinct relabelling classes.

    Each winner is one member-mask list per family, with member sizes sizes;
    the families of a winner are relabelled jointly, and the canonical form
    decides equality.  Classes come in ascending order of their canonical
    masks, and families are built only for the distinct ones.
    """
    keys = {_canonical_masks(n, c) for c in raw}
    return tuple(
        tuple(Family.from_bitmasks(n, k, masks) for k, masks in zip(sizes, key))
        for key in sorted(keys)
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
    larger than budget, and parameters outside the regime of
    omega_intersecting_bound (n < 2k).

    Why shifted families suffice: for i != j the shift S_ij replaces each
    member A with j in A, i not in A by A - j + i unless that set is already
    a member; it keeps a family intersecting and keeps its size (Erdos, Ko
    and Rado 1961; Frankl 1987).  If it moves a >= 1 members, d(i) rises by a
    and d(j) falls by a, so omega = sum_x C(d(x), 2) grows by
    a (d(i) - d(j)) + a^2.  Lemma L1: this is never negative, whatever the
    degrees.  The members holding j but not i that stay put have their
    images among the members holding i but not j, injectively, so
    d(j) - d(i) <= a.  So the value needs no degree condition.  The class
    list needs the strict gain when d(i) >= d(j): an optimal family is fixed
    by every such shift, and relabelled by decreasing degree it is shifted,
    a down-set of the componentwise order on k-sets.  So every optimal class
    has a shifted member, and the classes are the canonical forms of the
    optimal shifted families.

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
    _check_sizes(n, k)
    _check_budget(budget)
    bound = omega_intersecting_bound(n, k).value
    universe, elems, by_elem = _universe(n, k, budget, "exhaustive budget")
    count = len(universe)
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

    raw: list[tuple[int, int]] = []
    for best in (bound, 0):  # 0 only if no family attains the closed form
        # nodes (value, P, members, degrees), members an index bitset; none
        # changes once pushed, and the take-child is pushed last, so it is
        # searched first
        stack = [(0, full, 0, [0] * n)]
        while stack:
            r_val, p_mask, members, deg = stack.pop()
            if not p_mask:
                if members and r_val >= best:
                    best = r_val
                    raw.append((r_val, members))
                continue
            # sum_x C(p(x), 2) = (sum_x p(x)^2 - k |P|) / 2
            ps = [(p_mask & e).bit_count() for e in by_elem]
            meets = (sum(map(mul, ps, ps)) - k * p_mask.bit_count()) // 2
            if r_val + sum(map(mul, deg, ps)) + meets < best:
                continue
            v = (p_mask & -p_mask).bit_length() - 1
            xs = elems[v]
            gain = sum(deg[x] for x in xs)
            taken = list(deg)
            for x in xs:
                taken[x] += 1
            stack.append((r_val, p_mask & ~up[v], members, deg))
            stack.append((r_val + gain, p_mask & keep[v], members | 1 << v, taken))
        if raw:
            break
    winners = [([universe[i] for i in _bits_list(m)],) for val, m in raw if val == best]
    witnesses = tuple(fam for (fam,) in _witness_classes(n, (k,), winners))
    return _finish((n, k), best, bound, witnesses, t0, exhaustive=True, seed=None)


# ---------------------------------------------------------------------------
# exact search: cross-intersecting pairs
# ---------------------------------------------------------------------------


def max_omega_cross(
    n: int, k: int, l: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET
) -> SearchResult:
    """Exact maximum of the ordered-pair total over cross-intersecting pairs.

    Sweeps the subsets B of the l-sets, the swept side, that hold
    swept[0] = {1..l}; the best partner for a fixed B is the family A of all
    k-sets meeting every member of B, so only those pairs are scored.  The
    swept side is never the larger one: l <= k and n >= k + l give
    C(n, l) <= C(n, k), so budget caps C(n, k) alone.  Rooting loses no
    class: an optimal pair has B nonempty, a relabelling moves one member of
    B onto {1..l}, and the relabelled A is again every k-set meeting all of
    B (a k-set left out would add its meets with B), so the sweep scores
    that pair.

    Values and bounds are degree sums: d_A(x) is the popcount of A's index
    bitset against the k-sets holding x, and the swept sets swept[i:] still
    to be decided add at most sum_x suffix[i][x] d_A(x), where suffix[i][x]
    counts those holding x.  A node costs O(n) big-int operations.
    Witnesses are (A, B) pairs.
    """
    t0 = time.perf_counter()
    _check_sizes(n, k)
    _check_sizes(n, l)
    _check_budget(budget)
    bound = omega_cross_bound(n, k, l).value
    partner, _, p_by_elem = _universe(n, k, budget, "exhaustive budget")
    swept, elems, _ = _universe(n, l, budget, "exhaustive budget")
    ns = len(swept)
    compat = [_meeting(p_by_elem, xs) for xs in elems]
    suffix = [[0] * n]
    for xs in reversed(elems):
        row = list(suffix[-1])
        for x in xs:
            row[x] += 1
        suffix.append(row)
    suffix.reverse()

    raw: list[tuple[int, int, int]] = []
    full_p = (1 << len(partner)) - 1
    for best in (bound, 0):  # 0 only if no pair attains the closed form
        # nodes (next swept index, partner, value, d_A, B, d_B), B an index
        # bitset, as in max_omega_intersecting; the partner is never empty,
        # since a swept set is taken only if some k-set still meets it
        stack = [(0, full_p, 0, [e.bit_count() for e in p_by_elem], 0, [0] * n)]
        while stack:
            i, pmask, val, d_p, s_mask, d_s = stack.pop()
            if i == ns:
                if val >= best:
                    best = val
                    raw.append((val, s_mask, pmask))
                continue
            if val + sum(map(mul, suffix[i], d_p)) < best:
                continue
            if i:  # B always holds swept[0] = {1..l}
                stack.append((i + 1, pmask, val, d_p, s_mask, d_s))
            np_mask = pmask & compat[i]
            if np_mask:
                xs = elems[i]
                nd_p = d_p if np_mask == pmask else [(np_mask & e).bit_count() for e in p_by_elem]
                # the k-sets leaving the partner hold d_p[x] - nd_p[x] copies of x
                nval = val + sum(nd_p[x] for x in xs) - sum(map(mul, d_s, map(sub, d_p, nd_p)))
                nd_s = list(d_s)
                for x in xs:
                    nd_s[x] += 1
                stack.append((i + 1, np_mask, nval, nd_p, s_mask | 1 << i, nd_s))
        if raw:
            break
    winners = [
        ([partner[j] for j in _bits_list(p)], [swept[i] for i in _bits_list(s)])
        for val, s, p in raw
        if val == best
    ]
    witnesses = _witness_classes(n, (k, l), winners)
    return _finish((n, k, l), best, bound, witnesses, t0, exhaustive=True, seed=None)


# ---------------------------------------------------------------------------
# simulated annealing (the engines are in _anneal)
# ---------------------------------------------------------------------------


def _proved_bound(evaluate, *config: int) -> int | None:
    """The closed form's value, or None outside the regime it is proved in."""
    try:
        return evaluate(*config).value
    except HypothesisError:
        return None


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
    _check_sizes(n, k)
    if cfg.iterations < 1 or cfg.restarts < 1:
        raise BadSizeError("heuristic needs at least one restart and one iteration")
    if not 0.0 < cfg.decay <= 1.0 or not 0.0 <= cfg.initial_temperature < math.inf:
        raise BadSizeError("decay must be in (0, 1] and temperature finite and nonnegative")
    steps = cfg.iterations * cfg.restarts
    if steps > MAX_ANNEAL_STEPS:
        raise TooLargeError(
            f"iterations x restarts = {steps} exceeds the step cap {MAX_ANNEAL_STEPS}"
        )
    from . import _anneal  # only the annealing commands compile the engines

    if l is None:
        bound = _proved_bound(omega_intersecting_bound, n, k)
        best, members = _anneal._anneal_family(n, k, cfg)
        fam = Family.from_bitmasks(n, k, members)
        check = omega_family(fam)
        witnesses: tuple = (fam,)
        cfg_tuple: tuple[int, ...] = (n, k)
    else:
        _check_sizes(n, l)
        if l > k:
            raise HypothesisError(f"cross mode is stated for k >= l, got k={k}, l={l}")
        bound = _proved_bound(omega_cross_bound, n, k, l)
        best, a_masks, b_masks = _anneal._anneal_cross(n, k, l, cfg)
        fa = Family.from_bitmasks(n, k, a_masks)
        fb = Family.from_bitmasks(n, l, b_masks)
        check = omega_cross(fa, fb)
        witnesses = ((fa, fb),)
        cfg_tuple = (n, k, l)
    if check != best:
        raise InternalError(f"annealer bookkeeping drifted: tracked {best}, actual {check}")
    return _finish(cfg_tuple, best, bound, witnesses, t0, exhaustive=False, seed=cfg.seed)


# ---------------------------------------------------------------------------
# witness assessment
# ---------------------------------------------------------------------------


@frozen_record
class UniquenessReport:
    """star_centers holds, for each witness, the center of its star, or of
    its two stars when they share one, and None for any other witness."""

    star_centers: tuple[int | None, ...]
    uniqueness_expected: bool
    ok: bool


def uniqueness_report(result: SearchResult) -> UniquenessReport:
    """Classify each witness of a search result against the star pattern.

    For intersecting families the expected extremal shape is a star; for
    cross pairs, two stars with a common center.  Uniqueness is asserted
    only strictly inside the regime (n > 2k, n > k + l), where ok needs a
    single witness class and a star-shaped one; at the boundary (n == 2k,
    n == k + l) other classes tie with it, and ok holds.

    Only exhaustive results can be assessed; heuristic ones raise
    NotExhaustiveError.
    """
    if not result.exhaustive:
        raise NotExhaustiveError(
            "uniqueness assessment needs an exhaustive search result"
        )
    n, k, *l = result.config
    strict_regime = n > k + (l[0] if l else k)
    centers = []
    for wit in result.witnesses:
        found = {is_star(f) for f in (wit if l else (wit,))}
        centers.append(found.pop() if len(found) == 1 else None)
    return UniquenessReport(
        star_centers=tuple(centers),
        uniqueness_expected=strict_regime,
        ok=not strict_regime or (len(centers) == 1 and centers[0] is not None),
    )
