#!/usr/bin/env python3
"""intersum benchmark: seeded CLI workloads, end-to-end timings, layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository; the program is `src/intersum`,
imported from source.  Each command of the workload runs as a fresh child
process (`perfbench/child.py`) calling `intersum.cli.main(argv)` with
`--json --out FILE --workers 1`.  Commands run one after another (a closed
loop with one caller).  Passes repeat until the next one would overrun
`--seconds`, at least three of them, and each command's median wall time
over the passes is reported; `run_s` is their sum.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` untraced and traced passes alternate, and
the last line holds the per-layer metrics, taken from the traced passes only.
Every report is checked by the oracle in `workloads.py` and hashed without its
`runtime_ms` fields; a wrong exit code, an oracle miss or two hashes that
differ for one command make the run fail (exit 1).  The line before the last
and `.perfbench_out/<workload>-seed<N>-trace<T>.json` hold the environment,
the report hashes, every sample and, for traced runs, every span.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

from spans import LAYERS, load_spans, self_times
from workloads import WORKLOADS, Command, report_hash

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
# Untraced passes a run makes even when --seconds runs out first: a median
# needs three samples, and a pass takes 10 to 13 s on 2 CPUs.
MIN_PASSES = 3
# The whole run must end within 180 s; a child still running at this point
# is killed and the run fails.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(args: list[str], cwd: Path, deadline: float) -> tuple[float, int, float]:
    """Run one child; return (wall seconds, exit code, peak RSS in MB)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 1:
        raise BenchError("run deadline reached")
    with open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(SRC), *args],
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(int(remaining))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise BenchError(f"child {args[:4]} killed at the run deadline") from None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def run_pass(cmds: list[Command], work: Path, tag: str, traced: bool, deadline: float) -> dict:
    """One closed-loop pass over the workload's commands."""
    records = []
    t0 = time.perf_counter()
    for c in cmds:
        out = f"{tag}-{c.cid}.json"
        args = ["--json", "--out", out, "--workers", "1"]
        mode = ["trace", f"{tag}-{c.cid}.spans"] if traced else ["run"]
        wall, code, rss = spawn([*mode, *c.argv, *args], work, deadline)
        records.append({"cid": c.cid, "wall_s": wall, "exit": code, "rss_mb": rss, "out": out})
    run_s = time.perf_counter() - t0
    return {"tag": tag, "traced": traced, "run_s": run_s, "cmds": records}


def check_pass(p: dict, cmds: list[Command], work: Path, hashes: dict, failures: list) -> None:
    """Oracle and determinism guard; reads each report once the pass is timed."""
    for rec, c in zip(p["cmds"], cmds):
        problems = []
        report = None
        if rec["exit"] != 0:
            tail = (work / "stderr.txt").read_text(errors="replace")[-300:]
            problems.append(f"exit code {rec['exit']}: {tail}")
        else:
            path = work / rec["out"]
            try:
                rec["report_bytes"] = path.stat().st_size
                report = json.loads(path.read_text())
                problems += c.check(report)
            except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
                problems.append(f"missing or malformed report: {exc!r}")
            if report is not None:
                digest = report_hash(report)
                if hashes.setdefault(c.cid, digest) != digest:
                    problems.append("report differs from an earlier run of this command")
        rec["report"] = report
        rec["ok"] = not problems
        if problems:
            failures.append({"pass": p["tag"], "cmd": c.cid, "problems": problems})


def setup(workload, seed: int, work: Path, deadline: float) -> float:
    """Interpreter start and `import intersum.cli`, then input generation."""
    t0 = time.perf_counter()
    _, code, _ = spawn(["import"], work, deadline)
    if code != 0:
        raise BenchError(f"importing intersum.cli failed with exit code {code}")
    for name, fam in workload.inputs(seed).items():
        (work / name).write_text(json.dumps(fam))
    return time.perf_counter() - t0


def per_command(passes: list[dict], key: str) -> list[float]:
    """Each command's median of `key` across passes.

    A burst of noise from outside slows one command of one pass; the
    per-command median drops it, where a median of pass totals would not.
    """
    return [statistics.median(v) for v in zip(*([r[key] for r in p["cmds"]] for p in passes))]


def pass_s(passes: list[dict]) -> float:
    """Wall seconds of one pass: the sum of its commands' median walls."""
    return sum(per_command(passes, "wall_s"))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "run_s": pass_s(passes),
        "slowest_cmd_s": max(per_command(passes, "wall_s")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(per_command(passes, "rss_mb")),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: dict, work: Path) -> tuple[dict[str, float], dict]:
    """Per-layer numbers of one traced pass, and the bases of its ratios."""
    fn_self: dict[str, float] = defaultdict(float)
    fn_calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: Counter = Counter()
    pairs = 0
    for rec in p["cmds"]:
        names, spans = load_spans(work / f"{p['tag']}-{rec['cid']}.spans", rec["cid"])
        rec["spans"] = spans
        for name in names:  # wrapped but never called: 0
            fn_self[name] += 0.0
        for s, own in zip(spans, self_times(spans)):
            layer = s["name"].split(".")[0]
            fn_self[s["name"]] += own
            fn_calls[s["name"]] += 1
            layer_self[layer] += own
            layer_calls[layer] += 1
            pairs += s["pairs"]

    reports = [r["report"] for r in p["cmds"] if r["ok"]]
    perms = iters = best = bound = witness_classes = 0
    for rep in reports:
        man, res = rep["manifest"], rep["result"]
        if man["params"].get("suite") == "katona":
            perms += res["perms_checked"]
        elif man["params"].get("suite") == "doublecount":
            perms += sum(c["perms_checked"] for c in res["checks"])
        elif man["command"] == "search-heuristic":
            iters += man["params"]["restarts"] * man["params"]["iterations"]
            best += int(res["best_value"])
            bound += int(res["bound"])
        search = res.get("search", res)
        if search.get("exhaustive") is True:
            witness_classes += len(search["witnesses"])

    cyclic_sweep_s = fn_self["cyclic.katona_verify"] + fn_self["cyclic.double_count_check"]
    weights_s = layer_self["weights"]
    metrics = {
        "setcore.canonical_form.calls": fn_calls["setcore.canonical_form"],
        "bounds.calls": layer_calls["bounds"],
        "cyclic.intervals_of_length.calls": fn_calls["cyclic.intervals_of_length"],
        "weights.pairs": pairs,
        "weights.pairs_per_s": _ratio(pairs, weights_s),
        "cyclic.perms": perms,
        "cyclic.perms_per_s": _ratio(perms, cyclic_sweep_s),
        "search.anneal_iters_per_s": _ratio(iters, fn_self["search.heuristic_max"]),
        "search.witness_classes": witness_classes,
        "search.anneal_best_over_bound": _ratio(best, bound),
        "cli.report_bytes": sum(r.get("report_bytes", 0) for r in p["cmds"]),
    }
    for name, own in fn_self.items():
        metrics[f"{name}.self_s"] = own
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    bases = {
        "weights.pairs": "sum over weights calls of |A|*|B| (|F|*|F| for one family),"
        " computed from input sizes",
        "weights.pairs_per_s": {"pairs": pairs, "weights_self_s": weights_s},
        "cyclic.perms_per_s": {"perms": perms, "sweep_self_s": cyclic_sweep_s},
        "search.anneal_iters_per_s": {
            "restarts_x_iterations": iters,
            "heuristic_max_self_s": fn_self["search.heuristic_max"],
        },
        "search.anneal_best_over_bound": {"sum_best": best, "sum_bound": bound},
    }
    return metrics, bases


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def run_passes(args, cmds: list[Command], work: Path, deadline: float) -> dict:
    """Timed passes until --seconds is spent, each checked as it ends.

    Traced runs alternate untraced and traced passes and stop after a pair.
    """
    step = 2 if args.trace else 1
    passes: list[dict] = []
    hashes: dict[str, str] = {}
    failures: list[dict] = []
    t0 = time.perf_counter()
    while True:
        n = len(passes)
        p = run_pass(cmds, work, f"p{n}", n % step == 1, deadline)
        check_pass(p, cmds, work, hashes, failures)
        passes.append(p)
        # Stop when the next pass (or untraced and traced pair) would overrun.
        elapsed = time.perf_counter() - t0
        enough = len(passes) >= (step if args.trace else MIN_PASSES)
        if enough and len(passes) % step == 0 and elapsed * (1 + step / len(passes)) > args.seconds:
            break
    return {"passes": passes, "hashes": hashes, "failures": failures}


def trace_metrics(passes: list[dict], work: Path) -> tuple[dict[str, float], dict]:
    """Medians of the traced passes' layer metrics, and the trace overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        m, bases = layer_metrics(p, work)
        per_pass.append(m)
    computed = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    computed["traced_run_s"] = pass_s(traced)
    computed["trace_overhead_frac"] = pass_s(traced) / pass_s(plain) - 1
    return computed, bases


def measure(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # Warm-up child: writes bytecode caches so set-up is timed warm.
        spawn(["import"], work, deadline)
        n_setups = 1 if args.trace else SETUP_REPEATS
        setups = [setup(workload, args.seed, work, deadline) for _ in range(n_setups)]
        cmds = workload.commands(args.seed, workload.inputs(args.seed))
        run = run_passes(args, cmds, work, deadline)
        passes, failures = run["passes"], run["failures"]

        bases: dict = {}
        if args.trace:
            computed, bases = trace_metrics(passes, work)
            wanted = spec["per_layer"]
        else:
            computed = end_to_end(passes, setups)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

        attempted = sum(len(p["cmds"]) for p in passes)
        failed = len({(f["pass"], f["cmd"]) for f in failures})
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": environment(args.seed),
            "hashes": run["hashes"],
            "fail_frac": failed / attempted,
            "failures": failures,
            "setup_s_samples": setups,
            "bases": bases,
        }
        samples = [
            {
                "tag": p["tag"],
                "traced": p["traced"],
                "run_s": p["run_s"],
                "cmds": [{k: r[k] for k in ("cid", "wall_s", "exit", "rss_mb")} for r in p["cmds"]],
            }
            for p in passes
        ]
        spans = [
            dict(s, cmd=f"{p['tag']}:{s['cmd']}")
            for p in passes
            for r in p["cmds"]
            for s in r.get("spans", [])
        ]
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(details, passes=samples, spans=spans)))
        return result, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "intersum" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'intersum'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result, details = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
