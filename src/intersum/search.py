"""Exact and heuristic maximization of total intersection size.

The exact searches enumerate maximal families only: adding a compatible set
to a nonempty intersecting family strictly increases the total, so every
maximizer is maximal and the exact optimum over maximal families is the
optimum over all families.  Intersecting families are maximal cliques of the
meet graph on all k-subsets, walked with a Bron-Kerbosch recursion carrying
an admissible upper bound; pruning is strict (ub < incumbent), so ties
survive and every optimal family is collected.  The cross search sweeps
subsets of the k-side, pairing each with the largest compatible l-side.

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

from .bounds import omega_cross_bound, omega_intersecting_bound
from .cyclic import MAX_SWEEP_GROUND, enumerate_cyclic, intervals_of_length
from .errors import (
    BadSizeError,
    CounterexampleError,
    HypothesisError,
    NotExhaustiveError,
    TooLargeError,
)
from .setcore import (
    Family,
    _canonical_masks,
    _check_ground,
    _check_member_size,
    canonical_form,
    family_to_dict,
    is_star,
    ksubset_masks,
    star,
)
from .weights import omega_cross, omega_family

# C(n, k) caps: exact searches enumerate up to 2^C states, the annealer only
# needs the universe (and its adjacency) in memory.
DEFAULT_EXHAUSTIVE_BUDGET = 24
NAIVE_BUDGET = 16
_SA_UNIVERSE_CAP = 100_000
_SA_ADJ_CAP = 4096
_SA_CROSS_B_CAP = 2048


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


def _pair_table(masks_a, masks_b) -> list[list[int]]:
    return [[(a & b).bit_count() for b in masks_b] for a in masks_a]


def _bits_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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

    Enumerates every maximal intersecting family (maximal clique of the meet
    graph) by branch and bound.  Refuses universes larger than budget, and
    parameters with n < 2k, where the closed form does not apply.
    """
    t0 = time.perf_counter()
    _check_params(n, k)
    if n < 2 * k:
        raise HypothesisError(f"exact search needs n >= 2k, got n={n}, k={k}")
    count = math.comb(n, k)
    if count > budget:
        raise TooLargeError(
            f"C({n},{k}) = {count} exceeds the exhaustive budget {budget}"
        )
    universe = ksubset_masks(n, k)
    big_n = len(universe)
    table = _pair_table(universe, universe)
    adj = [0] * big_n
    for i in range(big_n):
        row = table[i]
        for j in range(i + 1, big_n):
            if row[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    bound = omega_intersecting_bound(n, k).value
    best = omega_family(star(n, k, 1))
    raw: list[tuple[int, tuple[int, ...]]] = []

    def expand(r: list[int], r_val: int, p_mask: int, x_mask: int) -> None:
        nonlocal best
        if not p_mask and not x_mask:
            if r_val >= best:
                best = r_val
                raw.append((r_val, tuple(r)))
            return
        cands = _bits_list(p_mask)
        gains = {}
        ub = r_val
        for v in cands:
            row = table[v]
            g = sum(row[u] for u in r)
            gains[v] = g
            ub += g
        for i, u in enumerate(cands):
            row = table[u]
            for v in cands[i + 1 :]:
                ub += row[v]
        if ub < best:
            return
        p_cur, x_cur = p_mask, x_mask
        for v in sorted(cands, key=lambda c: (-gains[c], c)):
            bit = 1 << v
            p_cur &= ~bit
            expand(r + [v], r_val + gains[v], p_cur & adj[v], x_cur & adj[v])
            x_cur |= bit
        return

    expand([], 0, (1 << big_n) - 1, 0)
    # The star is itself maximal for n >= 2k and is never pruned at the seed
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
    if n < 2 * k:
        raise HypothesisError(f"exact search needs n >= 2k, got n={n}, k={k}")
    count = math.comb(n, k)
    if count > budget:
        raise TooLargeError(f"C({n},{k}) = {count} exceeds the naive budget {budget}")
    universe = ksubset_masks(n, k)
    big_n = len(universe)
    table = _pair_table(universe, universe)
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

    Sweeps subsets A of the k-side; the best partner for a fixed A is the
    family of all compatible l-sets, so only those pairs are scored.  Every
    maximizing pair (A, B) has A maximal for B and vice versa, hence it is
    scored exactly once.
    """
    t0 = time.perf_counter()
    _check_params(n, k)
    _check_params(n, l)
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
    na, nb = len(ua), len(ub_masks)
    table = _pair_table(ua, ub_masks)
    compat = [0] * na
    for i in range(na):
        row = table[i]
        for j in range(nb):
            if row[j]:
                compat[i] |= 1 << j
    full_b = (1 << nb) - 1

    def row_sum(i: int, bmask: int) -> int:
        row = table[i]
        total = 0
        while bmask:
            low = bmask & -bmask
            total += row[low.bit_length() - 1]
            bmask ^= low
        return total

    bound = omega_cross_bound(n, k, l).value
    best = omega_cross(star(n, k, 1), star(n, l, 1))
    raw: list[tuple[int, tuple[int, ...], int]] = []

    def sweep(i: int, a_idx: list[int], bmask: int, val: int) -> None:
        nonlocal best
        if i == na:
            if a_idx and bmask and val >= best:
                best = val
                raw.append((val, tuple(a_idx), bmask))
            return
        ub = val + sum(row_sum(j, bmask) for j in range(i, na))
        if ub < best:
            return
        nb_mask = bmask & compat[i]
        if nb_mask:
            removed = bmask & ~nb_mask
            nval = val + row_sum(i, nb_mask)
            if removed:
                nval -= sum(row_sum(j, removed) for j in a_idx)
            sweep(i + 1, a_idx + [i], nb_mask, nval)
        sweep(i + 1, a_idx, bmask, val)

    sweep(0, [], full_b, 0)
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


def _anneal_family(n: int, k: int, cfg: HeuristicConfig) -> tuple[int, tuple[int, ...]]:
    """Best (value, member bitmasks) found by annealing intersecting families."""
    count = math.comb(n, k)
    if count > _SA_UNIVERSE_CAP:
        raise TooLargeError(
            f"annealer needs the k-set universe in memory; C({n},{k}) = {count}"
            f" exceeds {_SA_UNIVERSE_CAP}"
        )
    universe = ksubset_masks(n, k)
    big_n = len(universe)
    full = (1 << big_n) - 1
    use_adj = count <= _SA_ADJ_CAP
    adj: list[int] = []
    if use_adj:
        adj = [0] * big_n
        for i in range(big_n):
            mi = universe[i]
            for j in range(i + 1, big_n):
                if mi & universe[j]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i

    rng = random.Random(cfg.seed)
    best_val = -1
    best_members: tuple[int, ...] = ()

    def w(i: int, j: int) -> int:
        return (universe[i] & universe[j]).bit_count()

    def compat_of(members: list[int]) -> int:
        c = full
        for u in members:
            c &= adj[u]
        return c

    def consider(val: int, members: list[int]) -> None:
        nonlocal best_val, best_members
        if val > best_val:
            best_val = val
            best_members = tuple(sorted(universe[i] for i in members))

    def closure_value(members: list[int], cmask: int, val: int) -> tuple[int, list[int]]:
        ms = list(members)
        while cmask:
            v = (cmask & -cmask).bit_length() - 1
            val += sum(w(v, u) for u in ms)
            ms.append(v)
            cmask &= adj[v]
        return val, ms

    for _ in range(cfg.restarts):
        members: list[int] = []
        cmask = full if use_adj else 0
        val = 0
        temp = cfg.initial_temperature
        for it in range(cfg.iterations):
            if not members:
                v = rng.randrange(big_n)
                members.append(v)
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
                else:
                    v = _sample_compatible(rng, universe, members)
                    if v is None:
                        temp *= cfg.decay
                        continue
                val += sum(w(v, u) for u in members)
                members.append(v)
                if use_adj:
                    cmask &= adj[v]
            elif move < 0.60:
                # drop a member
                ui = rng.randrange(len(members))
                u = members[ui]
                delta = -sum(w(u, x) for x in members if x != u)
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    members.pop(ui)
                    val += delta
                    if use_adj:
                        cmask = compat_of(members)
            else:
                # swap one member for a set compatible with the rest
                ui = rng.randrange(len(members))
                u = members[ui]
                rest = members[:ui] + members[ui + 1 :]
                if use_adj:
                    cwo = compat_of(rest) & ~(1 << u)
                    if cwo == 0:
                        temp *= cfg.decay
                        continue
                    v = _random_set_bit(rng, cwo)
                else:
                    v = _sample_compatible(rng, universe, rest, forbid=u)
                    if v is None:
                        temp *= cfg.decay
                        continue
                delta = sum(w(v, x) for x in rest) - sum(w(u, x) for x in rest)
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    members[ui] = v
                    val += delta
                    if use_adj:
                        cmask = compat_of(members)
            consider(val, members)
            if use_adj and it % 64 == 63:
                cval, cms = closure_value(members, cmask, val)
                consider(cval, cms)
            temp *= cfg.decay
        if use_adj:
            cval, cms = closure_value(members, cmask, val)
            consider(cval, cms)
    return best_val, best_members


def _sample_compatible(rng, universe, members, forbid=None, tries=32):
    """Random universe index meeting every member, by rejection sampling."""
    mset = set(members)
    for _ in range(tries):
        i = rng.randrange(len(universe))
        if i in mset or i == forbid:
            continue
        m = universe[i]
        if all(m & universe[u] for u in members):
            return i
    return None


def _anneal_cross(
    n: int, k: int, l: int, cfg: HeuristicConfig
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Best (value, A masks, B masks) for cross pairs; B is always the full
    compatible family for the current A."""
    ca, cb = math.comb(n, k), math.comb(n, l)
    if ca > _SA_UNIVERSE_CAP or cb > _SA_CROSS_B_CAP:
        raise TooLargeError(
            f"cross annealer needs both universes in memory; C({n},{k}) = {ca},"
            f" C({n},{l}) = {cb} exceed caps {_SA_UNIVERSE_CAP}/{_SA_CROSS_B_CAP}"
        )
    ua = ksubset_masks(n, k)
    ub = ksubset_masks(n, l)
    na, nb = len(ua), len(ub)
    full_b = (1 << nb) - 1

    def compat_of(a_mask: int) -> int:
        c = 0
        for j in range(nb):
            if a_mask & ub[j]:
                c |= 1 << j
        return c

    def pair_val(a_members: list[int], bmask: int) -> int:
        total = 0
        bs = _bits_list(bmask)
        for i in a_members:
            m = ua[i]
            total += sum((m & ub[j]).bit_count() for j in bs)
        return total

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
                nbm = bmask & compat_of(ua[i])
                if nbm == 0:
                    temp *= cfg.decay
                    continue
                trial = a_members + [i]
                nval = pair_val(trial, nbm)
                delta = nval - val
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    a_members, bmask, val = trial, nbm, nval
            else:
                ui = rng.randrange(len(a_members))
                trial = a_members[:ui] + a_members[ui + 1 :]
                nbm = full_b
                for i in trial:
                    nbm &= compat_of(ua[i])
                nval = pair_val(trial, nbm) if trial else 0
                delta = nval - val
                if delta >= 0 or (temp > 1e-12 and rng.random() < math.exp(delta / temp)):
                    a_members, bmask, val = trial, nbm, nval
            consider(val, a_members, bmask)
            temp *= cfg.decay
    return best_val, best_a, best_b


def heuristic_max(
    n: int, k: int, l: int | None = None, config: HeuristicConfig | None = None
) -> SearchResult:
    """Seeded annealing lower bound on the relevant maximum.

    Returns the best family (or pair) found; raises CounterexampleError if
    that ever exceeds a proved bound.  Witnesses are reported as found, not
    canonicalized: the annealer's seeded result is the report.
    """
    t0 = time.perf_counter()
    cfg = config or HeuristicConfig()
    _check_params(n, k)
    if cfg.iterations < 1 or cfg.restarts < 1:
        raise BadSizeError("heuristic needs at least one restart and one iteration")
    if not 0.0 < cfg.decay <= 1.0 or cfg.initial_temperature < 0.0:
        raise BadSizeError("decay must be in (0, 1] and temperature nonnegative")
    if l is None:
        bound = omega_intersecting_bound(n, k).value if n >= 2 * k else None
        best, members = _anneal_family(n, k, cfg)
        fam = Family.from_bitmasks(n, k, members)
        check = omega_family(fam)
        if check != best:
            raise AssertionError(
                f"annealer bookkeeping drifted: tracked {best}, actual {check}"
            )
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
        if check != best:
            raise AssertionError(
                f"annealer bookkeeping drifted: tracked {best}, actual {check}"
            )
        witnesses = ((fa, fb),)
        cfg_tuple = (n, k, l)
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


def _pattern_centers(perm, family: Family) -> set[int]:
    """Elements x whose length-k intervals are exactly the members of family
    that are intervals of perm."""
    k, n = family.k, perm.n
    ivals = intervals_of_length(perm, k)
    member_bits = set(family.bitmasks)
    present = frozenset(iv.start for iv in ivals if iv.bits in member_bits)
    centers = set()
    for x in range(1, n + 1):
        p = perm.position_of(x)
        through = frozenset((p - j) % n for j in range(k))
        if through == present:
            centers.add(x)
    return centers


def _interval_pattern_family(family: Family) -> bool:
    return all(
        bool(_pattern_centers(perm, family)) for perm in enumerate_cyclic(family.n)
    )


def _interval_pattern_pair(fam_a: Family, fam_b: Family) -> bool:
    for perm in enumerate_cyclic(fam_a.n):
        if not (_pattern_centers(perm, fam_a) & _pattern_centers(perm, fam_b)):
            return False
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
            holds = _interval_pattern_pair(fa, fb) if check_intervals else None
        else:
            center = is_star(wit)
            extremal = center is not None
            holds = _interval_pattern_family(wit) if check_intervals else None
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
