"""The three benchmark workloads, their seeded inputs and the output oracle.

A workload is a fixed list of CLI commands run one after another.  Each
command carries an oracle that checks its JSON report with arithmetic of its
own (degree sums and `math.comb`), never with `intersum.weights` or
`intersum.bounds`.  An oracle returns a list of problems; empty means correct.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Callable

Sets = list[list[int]]
Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Command:
    cid: str
    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def _degrees(sets: Sets, n: int) -> list[int]:
    deg = [0] * (n + 1)
    for s in sets:
        for x in s:
            deg[x] += 1
    return deg


def omega_by_degrees(sets: Sets, n: int) -> int:
    """Sum over unordered pairs of |A ∩ B|, as sum over x of C(d(x), 2)."""
    return sum(comb(d, 2) for d in _degrees(sets, n))


def cross_by_degrees(sets_a: Sets, sets_b: Sets, n: int) -> int:
    """Sum over ordered pairs of |A ∩ B|, as sum over x of d_A(x) d_B(x)."""
    return sum(x * y for x, y in zip(_degrees(sets_a, n), _degrees(sets_b, n)))


def _c(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def family_optimum(n: int, k: int) -> int:
    return _c(_c(n - 1, k - 1), 2) + (n - 1) * _c(_c(n - 2, k - 2), 2)


def cross_optimum(n: int, k: int, l: int) -> int:
    return _c(n - 1, k - 1) * _c(n - 1, l - 1) + (n - 1) * _c(n - 2, k - 2) * _c(
        n - 2, l - 2
    )


def _masks(sets: Sets) -> list[int]:
    return [sum(1 << (x - 1) for x in s) for s in sets]


def _shape_problems(fam: dict, n: int, k: int, label: str) -> list[str]:
    sets = fam["sets"]
    if fam["n"] != n or fam["k"] != k:
        return [f"{label}: ground/size {fam['n']},{fam['k']} != {n},{k}"]
    if any(len(set(s)) != k or not all(1 <= x <= n for x in s) for s in sets):
        return [f"{label}: a member is not a {k}-subset of [1..{n}]"]
    if len({tuple(sorted(s)) for s in sets}) != len(sets):
        return [f"{label}: duplicate members"]
    return []


def _is_full_star(sets: Sets, n: int, k: int) -> bool:
    common = set.intersection(*(set(s) for s in sets)) if sets else set()
    return bool(common) and len(sets) == comb(n - 1, k - 1)


def strip_runtime(obj):
    """The report without its `runtime_ms` fields, which are wall clock."""
    if isinstance(obj, dict):
        return {k: strip_runtime(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [strip_runtime(v) for v in obj]
    return obj


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_hash(report: dict) -> str:
    return _sha256(strip_runtime(report))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def witness_digest(witnesses: list) -> str:
    return _sha256(witnesses)[:16]


def check_exact(report: dict, config: tuple[int, ...], pinned: str) -> list[str]:
    """A search-exact or verify-extremal report against the closed form, and
    its canonical witness classes against their pinned digest."""
    result = report["result"]
    if "search" in result:
        if result["ok"] is not True:
            return ["verify extremal reported ok=false"]
        search = result["search"]
    else:
        search = result
    problems = []
    cross = len(config) == 3
    n, k = config[0], config[1]
    best = family_optimum(n, k) if not cross else cross_optimum(*config)
    if tuple(search["config"]) != config:
        problems.append(f"config {search['config']} != {list(config)}")
    if search["best_value"] != str(best) or search["bound"] != str(best):
        problems.append(
            f"best {search['best_value']} / bound {search['bound']} != closed form {best}"
        )
    if search["tight"] is not True or search["exhaustive"] is not True:
        problems.append("exact result not tight and exhaustive")
    strict = n > (config[1] + config[2] if cross else 2 * k)
    if witness_digest(search["witnesses"]) != pinned:
        problems.append("canonical witness classes differ from the pinned ones")
    if strict and len(search["witnesses"]) != 1:
        problems.append(f"{len(search['witnesses'])} witness classes inside the regime")
    for i, wit in enumerate(search["witnesses"]):
        if cross:
            a, b = wit["a"], wit["b"]
            problems += _shape_problems(a, n, k, f"witness {i} A")
            problems += _shape_problems(b, n, config[2], f"witness {i} B")
            value = cross_by_degrees(a["sets"], b["sets"], n)
            star = _is_full_star(a["sets"], n, k) and _is_full_star(b["sets"], n, config[2])
        else:
            problems += _shape_problems(wit, n, k, f"witness {i}")
            value = omega_by_degrees(wit["sets"], n)
            star = _is_full_star(wit["sets"], n, k)
        if value != best:
            problems.append(f"witness {i} evaluates to {value}, not {best}")
        if strict and not star:
            problems.append(f"witness {i} is not a full star")
    return problems


def check_heuristic(report: dict, config: tuple[int, ...], pinned: str) -> list[str]:
    """Annealer output: a valid witness whose value is the reported best and
    does not exceed the closed-form bound, and which is the pinned witness."""
    res = report["result"]
    cross = len(config) == 3
    n, k = config[0], config[1]
    bound = cross_optimum(*config) if cross else family_optimum(n, k)
    problems = []
    if tuple(res["config"]) != config or res["exhaustive"] is not False:
        problems.append("heuristic report has the wrong config or exhaustive flag")
    if res["bound"] != str(bound):
        problems.append(f"bound {res['bound']} != closed form {bound}")
    best = int(res["best_value"])
    if best > bound:
        problems.append(f"best {best} exceeds the bound {bound}")
    if res["tight"] is not (best == bound):
        problems.append("tight flag disagrees with best == bound")
    (wit,) = res["witnesses"]
    if cross:
        a, b = wit["a"], wit["b"]
        problems += _shape_problems(a, n, k, "witness A")
        problems += _shape_problems(b, n, config[2], "witness B")
        value = cross_by_degrees(a["sets"], b["sets"], n)
        if not all(x & y for x in _masks(a["sets"]) for y in _masks(b["sets"])):
            problems.append("witness pair is not cross-intersecting")
    else:
        problems += _shape_problems(wit, n, k, "witness")
        value = omega_by_degrees(wit["sets"], n)
        if not all(x & y for x, y in combinations(_masks(wit["sets"]), 2)):
            problems.append("witness family is not intersecting")
    if value != best:
        problems.append(f"witness evaluates to {value}, not the reported {best}")
    if witness_digest(res["witnesses"]) != pinned:
        problems.append("seeded annealer result differs from the pinned one")
    return problems


def check_omega(report: dict, expected: int, pairs: int | None = None) -> list[str]:
    """omega value, and for --profile a histogram over |A|*|B| pairs whose
    weighted sum is the value."""
    res = report["result"]
    problems = []
    if res["value"] != str(expected):
        problems.append(f"omega {res['value']} != degree sum {expected}")
    if pairs is None:
        if res["profile"] is not None:
            problems.append("unexpected profile")
        return problems
    counts = [int(c) for c in res["profile"] or []]
    if sum(counts) != pairs:
        problems.append(f"profile counts sum to {sum(counts)}, not {pairs}")
    if sum(m * c for m, c in enumerate(counts)) != expected:
        problems.append("profile weighted sum != omega")
    return problems


def check_doublecount(report: dict, n: int, k: int, l: int) -> list[str]:
    """Census of star pairs at a common centre, counted by brute force."""
    res = report["result"]
    star_a = _masks(_star(n, k))
    star_b = _masks(_star(n, l))
    problems = [] if res["ok"] is True else ["doublecount reported ok=false"]
    checks = res["checks"]
    if [c["m"] for c in checks] != list(range(1, min(k, l) + 1)):
        return problems + ["doublecount checked the wrong meet sizes"]
    for c in checks:
        m = c["m"]
        pairs = sum(1 for a in star_a for b in star_b if (a & b).bit_count() == m)
        per_pair = (
            factorial(n - k - l + m) * factorial(k - m) * factorial(m) * factorial(l - m)
        )
        if c["pair_count"] != str(pairs) or c["per_pair_expected"] != str(per_pair):
            problems.append(f"m={m}: census {c['pair_count']} x {c['per_pair_expected']}")
        if not c["lhs_total"] == c["rhs_total"] == str(pairs * per_pair):
            problems.append(f"m={m}: totals {c['lhs_total']} / {c['rhs_total']}")
        if c["perms_checked"] != factorial(n - 1):
            problems.append(f"m={m}: {c['perms_checked']} permutations swept")
    return problems


def check_katona(report: dict, n: int, k: int) -> list[str]:
    res = report["result"]
    ok = (
        res["ok"] is True
        and res["max_size"] == res["expected_max"] == k
        and res["perms_checked"] == factorial(n - 1)
        and res["maxima_count_consistent"] is True
        and res["all_maxima_fixed"] is (n > 2 * k)
    )
    return [] if ok else ["katona report disagrees with the interval bound"]


def check_identity(report: dict, n_max: int) -> list[str]:
    res = report["result"]
    configs = sum(min(k, n - k) for n in range(2, n_max + 1) for k in range(1, n))
    ok = res["ok"] is True and res["failures"] == [] and res["configs_checked"] == configs
    return [] if ok else [f"identity suite: {res['configs_checked']} of {configs}, ok={res['ok']}"]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _star(n: int, k: int) -> Sets:
    return [[1, *rest] for rest in combinations(range(2, n + 1), k - 1)]


def _random_sets(rng: random.Random, n: int, k: int, count: int) -> Sets:
    seen: set[tuple[int, ...]] = set()
    out: Sets = []
    while len(out) < count:
        s = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if s not in seen:
            seen.add(s)
            out.append(list(s))
    return out


def _family(n: int, k: int, sets: Sets) -> dict:
    return {"n": n, "k": k, "sets": sets}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def inputs(self, seed: int) -> dict[str, dict]:
        """Input files by name, as family dicts; generated from the seed."""
        return {}

    def commands(self, seed: int, inputs: dict[str, dict]) -> list[Command]:
        raise NotImplementedError


class ExactCertify(Workload):
    """The paper's certification path: exhaustive search, canonical witness
    classes and the cyclic uniqueness check.  The configs are fixed, so the
    seed is unused.  Each config's canonical witnesses are pinned: the
    canonical form is the lexicographically least relabelling, and a faster
    canonicaliser must reproduce it exactly."""

    name = "exact-certify"
    CONFIGS = (
        ("verify", "extremal", (8, 3), 60, "1c13212835205628"),
        ("verify", "extremal", (7, 3, 2), 40, "7fbb5018413359ae"),
        ("verify", "extremal", (8, 2), 40, "4e91d3c753e1e55a"),
        ("search-exact", None, (6, 3, 2), 40, "f5d4848bc6e8ac4b"),
    )

    def commands(self, seed, inputs):
        out = []
        for cmd, suite, config, budget, pinned in self.CONFIGS:
            argv = (cmd,) + ((suite,) if suite else ()) + tuple(map(str, config))
            argv += ("--budget", str(budget))
            cid = "-".join(argv[:-2])
            check = lambda r, c=config, d=pinned: check_exact(r, c, d)  # noqa: E731
            out.append(Command(cid, argv, check))
        return out


class Anneal(Workload):
    """Seeded simulated annealing past the exhaustive frontier.

    The program seeds are fixed, so the seed is unused.  The annealer's cost
    depends on its seed (a few restarts grow large families and cost several
    times the others), and seeds drawn from the workload seed widened the
    spread of `run_s` across ten workload seeds to 26 to 34 %, against 14 to
    19 % with fixed seeds on the same noisy machine.  Fixed seeds also let
    the results be pinned, so a change to the annealer's random draws fails
    here.  Seed 2 leaves (14,5) below its bound (465400 against 568425), so
    annealer quality shows.
    """

    name = "anneal"
    CONFIGS = (
        ((14, 5), "552f001f26ab3c98"),
        ((10, 3, 3), "3cfd078a3c504d30"),
        ((16, 4), "578665243373be2b"),
    )
    PROGRAM_SEED = "2"

    def commands(self, seed, inputs):
        out = []
        for config, pinned in self.CONFIGS:
            argv = ("search-heuristic", *map(str, config), "--seed", self.PROGRAM_SEED)
            cid = "-".join(argv[:-2])
            check = lambda r, c=config, d=pinned: check_heuristic(r, c, d)  # noqa: E731
            out.append(Command(cid, argv, check))
        return out


class Census(Workload):
    """Pair sums on stars beside random families, then the cyclic census and
    identity suites."""

    name = "census"

    def inputs(self, seed):
        rng = random.Random(f"census-{seed}")
        return {
            "star24.json": _family(24, 6, _star(24, 6)),
            "rand24.json": _family(24, 6, _random_sets(rng, 24, 6, 20000)),
            "star22.json": _family(22, 6, _star(22, 6)),
            "rand22.json": _family(22, 4, _random_sets(rng, 22, 4, 3000)),
        }

    def commands(self, seed, inputs):
        def omega_family(name):
            fam = inputs[name]
            expected = omega_by_degrees(fam["sets"], fam["n"])
            argv = ("omega", "family", name)
            return Command(f"omega-family-{name[:-5]}", argv, lambda r: check_omega(r, expected))

        a, b = inputs["star22.json"], inputs["rand22.json"]
        cross = cross_by_degrees(a["sets"], b["sets"], a["n"])
        pairs = len(a["sets"]) * len(b["sets"])
        return [
            omega_family("star24.json"),
            omega_family("rand24.json"),
            Command(
                "omega-cross-profile",
                ("omega", "cross", "star22.json", "rand22.json", "--profile"),
                lambda r: check_omega(r, cross, pairs),
            ),
            Command(
                "verify-doublecount",
                ("verify", "doublecount", "8", "3", "2"),
                lambda r: check_doublecount(r, 8, 3, 2),
            ),
            Command(
                "verify-katona",
                ("verify", "katona", "8", "3", "--all-perms"),
                lambda r: check_katona(r, 8, 3),
            ),
            Command(
                "verify-identity",
                ("verify", "identity", "--n-max", "40"),
                lambda r: check_identity(r, 40),
            ),
        ]


WORKLOADS = {w.name: w for w in (ExactCertify(), Anneal(), Census())}
