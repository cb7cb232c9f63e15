"""Command-line verification frontend.

Commands: bound, omega, verify, search-exact, search-heuristic.  Each command
function only computes: it returns its result dict, its text lines, its
manifest outcome and whether its checks passed.  One wrapper, _run, times the
command, builds the RunManifest from the argument names its subparser
declares, and writes the text or the --json report.  Replaying the same
command with the same parameters and seed reproduces the report byte-for-byte
except for runtime fields.  Mathematical quantities that can grow without
bound (bounds, omega values, census totals, profile counts) cross the JSON
boundary as decimal strings; small structural integers (n, k, l, m, counts of
witnesses, runtimes) stay native.

Exit codes: 0 all checks pass, 1 mathematical failure (a counterexample),
2 usage or hypothesis error (including a --budget below 1 and an --out file
that cannot be written), 3 resource cutoff (including the annealer's step cap,
search.MAX_ANNEAL_STEPS, its universe cap, C(n,k) above 100 000, and the
cross annealer's B-side cap, C(n,l) above 2048; a --budget above
search.MAX_EXHAUSTIVE_BUDGET; and a bound n above MAX_BOUND_GROUND),
4 internal error (the program's own bookkeeping disagreed with a recount; a
bug, never a finding).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb
from typing import Iterable, Iterator

# The engines (bounds, cyclic, search, weights) are called through the
# package, whose __getattr__ imports a module on first use of one of its
# names, so each command loads only the engine it runs.  perfbench's span
# tracer wraps the package's bindings, so those calls still show as spans.
import intersum

from . import __version__
from .errors import (
    BadElementError,
    BadSizeError,
    CounterexampleError,
    DuplicateSetError,
    GroundMismatchError,
    HypothesisError,
    InternalError,
    NotExhaustiveError,
    TooLargeError,
)
from .setcore import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    MAX_EXHAUSTIVE_BUDGET,
    MAX_GROUND,
    MAX_SWEEP_GROUND,
    Family,
    bits_to_elements,
    family_from_dict,
    family_to_dict,
    frozen_record,
    record_dict,
    star,
)

_BUDGET_HELP = (
    f"max C(n,k) for exhaustion, 1..{MAX_EXHAUSTIVE_BUDGET}"
    f" (default {DEFAULT_EXHAUSTIVE_BUDGET})"
)

# Every bound kind at every k <= n/2 stays under 2500 digits up to n = 4096,
# inside Python's 4300-digit limit on int-to-str conversion; n = 8192 is not.
MAX_BOUND_GROUND = 4096

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_USAGE_ERRORS = (
    BadElementError,
    BadSizeError,
    DuplicateSetError,
    GroundMismatchError,
    HypothesisError,
    NotExhaustiveError,
)


class _CliUsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


@frozen_record
class RunManifest:
    command: str
    params: dict
    seed: int | None
    version: str
    runtime_ms: int
    outcome: str


def report_schema() -> dict:
    """The shipped JSON schema that every --json report validates against."""
    from importlib import resources  # only here: it costs every run's start-up

    text = resources.files("intersum").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def _load_family(path: str) -> Family:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliUsageError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliUsageError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # integers past Python's digit limit, arrays nested past the recursion limit
        raise _CliUsageError(f"{path}: not a family file: {exc}") from exc
    return family_from_dict(data)


def _emit(args, manifest: RunManifest, result: dict, text_lines: Iterable[str]) -> None:
    if args.json:
        payload = (
            json.dumps(
                {"manifest": record_dict(manifest), "result": result},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    else:
        payload = "".join(line + "\n" for line in text_lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _CliUsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _run(args) -> int:
    """Time one command, wrap its result in the run manifest and emit it.

    A command returns (result, text_lines, outcome, ok); a verify suite
    leaves outcome None and gets "pass" or "fail" from ok.  The manifest
    params are the argument names the subparser declares in `params`.
    """
    t0 = time.perf_counter()
    result, lines, outcome, ok = args.func(args)
    manifest = RunManifest(
        command=args.command,
        params={name: getattr(args, name) for name in args.params},
        seed=getattr(args, "seed", None),
        version=__version__,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        outcome=("pass" if ok else "fail") if outcome is None else outcome,
    )
    _emit(args, manifest, result, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def _fmt_sets(family: Family) -> str:
    return " ".join(
        "{" + ",".join(map(str, bits_to_elements(b))) + "}" for b in family.bitmasks
    )


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _cmd_bound(args):
    if args.n > MAX_BOUND_GROUND:
        # refuse before any arithmetic: past this n a value can outgrow str()
        raise TooLargeError(f"bound needs n <= {MAX_BOUND_GROUND}, got {args.n}")
    if args.kind == "cross":
        if args.l is None:
            raise _CliUsageError("bound cross needs three parameters: n k l")
        bv = intersum.omega_cross_bound(args.n, args.k, args.l)
    else:
        if args.l is not None:
            raise _CliUsageError(f"bound {args.kind} takes two parameters: n k")
        if args.kind == "ekr":
            bv = intersum.ekr_bound(args.n, args.k)
        else:
            bv = intersum.omega_intersecting_bound(args.n, args.k)
        if args.kind == "strict":  # ordered pairs count each unordered pair twice
            bv = bv._replace(value=2 * bv.value)
    result = {"kind": args.kind, "config": list(bv.config), "value": str(bv.value)}
    return result, [str(bv.value)], str(bv.value), True


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------


def _cmd_omega(args):
    fam_a = _load_family(args.family)
    if args.mode == "family":
        if args.family_b is not None:
            raise _CliUsageError("omega family takes a single family file")
        fam_b = fam_a
        if args.weight == "meet":
            value = intersum.omega_family(fam_a)
        else:
            value = comb(len(fam_a), 2)
    else:
        if args.family_b is None:
            raise _CliUsageError(f"omega {args.mode} needs two family files")
        fam_b = _load_family(args.family_b)
        strict = args.mode == "strict"
        if args.weight == "meet":
            cross = intersum.omega_cross_strict if strict else intersum.omega_cross
            value = cross(fam_a, fam_b)
        else:
            value = intersum.pair_count(fam_a, fam_b, strict=strict)
    result = {"mode": args.mode, "weight": args.weight, "value": str(value), "profile": None}
    lines = [str(value)]
    if args.profile:
        # Count the pairs the value sums.  Of the profile's ordered pairs,
        # strict mode drops the (S, S) pairs, which meet in k elements, and
        # family mode drops them too and halves the rest.
        counts = list(intersum.intersection_profile(fam_a, fam_b))
        if args.mode == "family":
            counts[-1] -= len(fam_a)
            counts = [c // 2 for c in counts]
        elif args.mode == "strict":
            counts[-1] -= len(set(fam_a.bitmasks) & set(fam_b.bitmasks))
        if args.weight == "meet":
            recount = sum(m * c for m, c in enumerate(counts))
        else:
            recount = sum(counts)
        if recount != value:
            raise InternalError(f"profile recounts {args.weight} weight {recount}, value {value}")
        result["profile"] = [str(c) for c in counts]
        lines += [f"m={m}: {c}" for m, c in enumerate(counts)]
    return result, lines, str(value), True


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify_katona(args):
    rep = intersum.katona_verify(args.n, args.k, all_perms=args.all_perms)
    lines = []
    tag = "PASS" if rep.max_size == rep.expected_max else "FAIL"
    lines.append(
        f"{tag}: largest pairwise-meeting interval family has size {rep.max_size}"
        f" (expected {rep.expected_max}; {rep.perms_checked} permutation(s) checked)"
    )
    if rep.uniqueness_expected:
        tag = "PASS" if rep.all_maxima_fixed else "FAIL"
        lines.append(
            f"{tag}: every maximum-size interval family passes through one fixed element"
        )
    else:
        lines.append(
            f"INFO: n = 2k boundary; {rep.maxima_count} maxima per permutation,"
            " fixed-element form not required"
        )
    result = record_dict(rep)
    result["example_maxima"] = [family_to_dict(f) for f in rep.example_maxima]
    return result, lines, None, rep.ok


def _cmd_verify_doublecount(args):
    n, k, l = args.n, args.k, args.l
    if n > MAX_SWEEP_GROUND:
        # refuse before the stars are built: C(n-1, k-1) sets each
        raise TooLargeError(
            f"verify doublecount sweeps (n-1)! cyclic orders;"
            f" limit n <= {MAX_SWEEP_GROUND}, got {n}"
        )
    fam_a = star(n, k, 1)
    fam_b = star(n, l, 1)
    checks = []
    lines = []
    for rep in intersum.double_count_check(fam_a, fam_b):
        m = rep.m
        tag = "PASS" if rep.ok else "FAIL"
        lines.append(
            f"{tag}: m={m}: sweep total {rep.lhs_total} == {rep.pair_count} pair(s)"
            f" x {rep.per_pair_expected} permutation(s) each"
            f" over {rep.perms_checked} cyclic permutations"
        )
        if not rep.per_pair_ok:
            lines.append(f"FAIL: m={m}: per-pair census is not uniform")
        if rep.meet_bound_checked and not rep.meet_bound_ok:
            lines.append(
                f"FAIL: m={m}: more than {m} distinct meets in one permutation"
            )
        check = record_dict(rep)
        # census totals grow without bound, so they cross JSON as strings
        for key in ("pair_count", "per_pair_expected", "lhs_total", "rhs_total"):
            check[key] = str(check[key])
        checks.append(check)
    all_ok = all(c["ok"] for c in checks)
    result = {"n": n, "k": k, "l": l, "checks": checks, "ok": all_ok}
    return result, lines, None, all_ok


def _cmd_verify_identity(args):
    n_max = args.n_max
    if n_max < 2:
        raise _CliUsageError(f"--n-max must be at least 2, got {n_max}")
    if n_max > MAX_GROUND:
        raise TooLargeError(f"--n-max {n_max} exceeds the ground-set limit {MAX_GROUND}")
    check = intersum.star_identity_check  # one package lookup, not one per config
    checked = 0
    failures = []
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for l in range(1, min(k, n - k) + 1):
                checked += 1
                if not check(n, k, l):
                    failures.append([n, k, l])
    ok = not failures
    lines = []
    if ok:
        lines.append(
            f"PASS: star profile total matches the closed form for all"
            f" {checked} configurations with n <= {n_max}"
        )
    else:
        for n, k, l in failures:
            lines.append(f"FAIL: identity breaks at (n,k,l) = ({n},{k},{l})")
    result = {"n_max": n_max, "configs_checked": checked, "failures": failures, "ok": ok}
    return result, lines, None, ok


def _cmd_verify_extremal(args):
    if args.l is None:
        res = intersum.max_omega_intersecting(args.n, args.k, budget=args.budget)
        revals = [intersum.omega_family(w) for w in res.witnesses]
    else:
        res = intersum.max_omega_cross(args.n, args.k, args.l, budget=args.budget)
        revals = [intersum.omega_cross(a, b) for a, b in res.witnesses]
    reval_ok = all(v == res.best_value for v in revals)
    uniq = intersum.uniqueness_report(res)
    ok = res.tight and reval_ok and uniq.ok
    lines = [
        f"{'PASS' if res.tight else 'FAIL'}: exact maximum {res.best_value}"
        f" == closed-form bound {res.bound}",
        f"{'PASS' if reval_ok else 'FAIL'}: all {len(res.witnesses)} witness class(es)"
        " re-evaluate to the maximum",
    ]
    if uniq.uniqueness_expected:
        shape = "star pair" if len(res.config) == 3 else "star"
        lines.append(
            f"{'PASS' if uniq.ok else 'FAIL'}: unique witness class, and it is the {shape}"
        )
    else:
        stars = len(uniq.star_centers) - uniq.star_centers.count(None)
        lines.append(
            f"INFO: boundary parameters; {len(res.witnesses)} witness class(es),"
            f" {stars} of star form (uniqueness not claimed)"
        )
    result = {"search": res.to_json_dict(), "uniqueness": record_dict(uniq), "ok": ok}
    return result, lines, None, ok


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_lines(res) -> Iterator[str]:
    """The text report, produced only as _emit reads it: never under --json."""
    yield (
        f"best {res.best_value}  bound {res.bound}"
        f"  {'tight' if res.tight else 'not tight'}"
        f"  ({'exhaustive' if res.exhaustive else 'heuristic'})"
    )
    yield f"witness classes: {len(res.witnesses)}"
    for i, wit in enumerate(res.witnesses, start=1):
        if len(res.config) == 3:
            fa, fb = wit
            yield f"  {i}: A = {_fmt_sets(fa)}"
            yield f"     B = {_fmt_sets(fb)}"
        else:
            yield f"  {i}: {_fmt_sets(wit)}"


def _cmd_search_exact(args):
    if args.l is None:
        res = intersum.max_omega_intersecting(args.n, args.k, budget=args.budget)
    else:
        res = intersum.max_omega_cross(args.n, args.k, args.l, budget=args.budget)
    outcome = f"best={res.best_value} tight={str(res.tight).lower()}"
    return res.to_json_dict(), _search_lines(res), outcome, True


def _cmd_search_heuristic(args):
    cfg = intersum.HeuristicConfig(
        seed=args.seed,
        iterations=args.iterations,
        restarts=args.restarts,
        initial_temperature=args.temperature,
        decay=args.decay,
    )
    res = intersum.heuristic_max(args.n, args.k, args.l, cfg)
    outcome = f"best={res.best_value}" + ("" if res.bound is None else f" bound={res.bound}")
    return res.to_json_dict(), _search_lines(res), outcome, True


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility (N >= 1); every sweep runs in one process",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intersum",
        description="Exact bounds, totals, and searches for intersecting-family"
        " intersection sums.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "bound",
        help=f"closed-form extremal values, n <= {MAX_BOUND_GROUND}",
        description="Closed-form extremal values: family and strict (summed meets over"
        " intersecting families), ekr (largest intersecting family), cross (ordered-pair"
        " total of a k-star and an l-star with a common center, for every n >= k + l;"
        " below n = 2k larger cross-intersecting pairs exist, e.g. (4,3,1) reaches 4"
        " against 3 and (6,4,2) reaches 86 against 80)."
        f" Needs n <= {MAX_BOUND_GROUND} (exit 3).",
    )
    b.add_argument("kind", choices=["family", "cross", "strict", "ekr"])
    b.add_argument("n", type=int)
    b.add_argument("k", type=int)
    b.add_argument("l", type=int, nargs="?", help="second member size (cross only)")

    o = sub.add_parser("omega", help="evaluate intersection totals of family files")
    o.add_argument("mode", choices=["family", "cross", "strict"])
    o.add_argument("family", metavar="FAMILY_JSON")
    o.add_argument("family_b", metavar="FAMILY_B_JSON", nargs="?")
    o.add_argument("--weight", choices=["meet", "unit"], default="meet")
    o.add_argument("--profile", action="store_true", help="also print the meet-size histogram")

    v = sub.add_parser("verify", help="run a verification suite")
    vsub = v.add_subparsers(dest="suite", required=True)

    vk = vsub.add_parser(
        "katona",
        help="interval families along cyclic permutations",
        description="Largest pairwise-meeting family of k-intervals of a cyclic order,"
        " and whether every maximum passes through one element when n > 2k."
        " Needs 1 <= k and n >= 2k (exit 2), and n <= 16 on the identity order"
        " or n <= 8 with --all-perms (exit 3).",
    )
    vk.add_argument("n", type=int)
    vk.add_argument("k", type=int)
    vk.add_argument(
        "--all-perms",
        action="store_true",
        help="sweep all (n-1)! permutations instead of one representative",
    )

    vd = vsub.add_parser(
        "doublecount",
        help="representable-pair census on two stars, 1 <= k, l < n <= 8",
        description="Census of representable pairs of the stars of k-sets and l-sets"
        " through element 1, over all (n-1)! cyclic orders, for every meet size m."
        " Needs 1 <= k, l < n (a member of size n is the whole cycle, no interval;"
        " exit 2) and n <= 8 (exit 3).",
    )
    vd.add_argument("n", type=int)
    vd.add_argument("k", type=int)
    vd.add_argument("l", type=int)

    vi = vsub.add_parser("identity", help="star profile total vs closed form")
    vi.add_argument("--n-max", type=int, default=20, dest="n_max", help=f"2..{MAX_GROUND}")

    ve = vsub.add_parser("extremal", help="exact search against the closed-form bound")
    ve.add_argument("n", type=int)
    ve.add_argument("k", type=int)
    ve.add_argument("l", type=int, nargs="?")
    ve.add_argument("--budget", type=int, default=DEFAULT_EXHAUSTIVE_BUDGET, help=_BUDGET_HELP)

    se = sub.add_parser("search-exact", help="exhaustive maximization")
    se.add_argument("n", type=int)
    se.add_argument("k", type=int)
    se.add_argument("l", type=int, nargs="?")
    se.add_argument("--budget", type=int, default=DEFAULT_EXHAUSTIVE_BUDGET, help=_BUDGET_HELP)

    sh = sub.add_parser("search-heuristic", help="seeded annealing lower bound")
    sh.add_argument("n", type=int)
    sh.add_argument("k", type=int)
    sh.add_argument("l", type=int, nargs="?")
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--iterations", type=int, default=2000)
    sh.add_argument("--restarts", type=int, default=8)
    sh.add_argument("--temperature", type=float, default=2.0)
    sh.add_argument("--decay", type=float, default=0.999)

    # each command's function and the argument names its manifest records
    for sp, func, params in (
        (b, _cmd_bound, ("kind", "n", "k", "l")),
        (o, _cmd_omega, ("mode", "family", "family_b", "weight", "profile")),
        (vk, _cmd_verify_katona, ("suite", "n", "k", "all_perms", "workers")),
        (vd, _cmd_verify_doublecount, ("suite", "n", "k", "l", "workers")),
        (vi, _cmd_verify_identity, ("suite", "n_max")),
        (ve, _cmd_verify_extremal, ("suite", "n", "k", "l", "budget")),
        (se, _cmd_search_exact, ("n", "k", "l", "budget")),
        (
            sh,
            _cmd_search_heuristic,
            ("n", "k", "l", "iterations", "restarts", "temperature", "decay"),
        ),
    ):
        _add_common(sp)
        sp.set_defaults(func=func, params=params)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"--workers must be at least 1, got {args.workers}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except _CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLargeError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CounterexampleError as exc:
        print(f"COUNTEREXAMPLE: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness!r}", file=sys.stderr)
        return EXIT_FAIL
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
