"""Command-line surface: exit codes, text and JSON output, replay determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intersum
from intersum import _anneal, bounds, cli, cyclic, search
from intersum.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    report_schema,
)
from intersum.errors import BadElementError, BadSizeError, DuplicateSetError, TooLargeError
from intersum.setcore import (
    Family,
    family_from_dict,
    family_to_dict,
    full_family,
    make_family,
    star,
)


def validated(payload_text):
    payload = json.loads(payload_text)
    jsonschema.validate(payload, report_schema())
    return payload


# --- bound ---


def test_bound_family_text(run_cli):
    code, out, err = run_cli("bound", "family", 5, 2)
    assert code == EXIT_PASS
    assert out == "6\n" and err == ""


def test_bound_variants(run_cli):
    assert run_cli("bound", "cross", 6, 3, 2)[1] == "70\n"
    assert run_cli("bound", "strict", 5, 2)[1] == "12\n"
    assert run_cli("bound", "ekr", 6, 3)[1] == "10\n"


def test_bound_strict_is_twice_the_family_bound(run_cli):
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            family = int(run_cli("bound", "family", n, k)[1])
            assert run_cli("bound", "strict", n, k)[:2] == (EXIT_PASS, f"{2 * family}\n")
            want = json.loads(run_cli("bound", "family", n, k, "--json")[1])["result"]
            want.update(kind="strict", value=str(2 * family))
            assert json.loads(run_cli("bound", "strict", n, k, "--json")[1])["result"] == want


def test_bound_json_envelope(run_cli):
    code, out, _ = run_cli("bound", "family", 5, 2, "--json")
    assert code == EXIT_PASS
    payload = validated(out)
    m = payload["manifest"]
    assert m["command"] == "bound"
    assert m["params"] == {"kind": "family", "n": 5, "k": 2, "l": None}
    assert m["seed"] is None
    assert isinstance(m["runtime_ms"], int)
    assert payload["result"]["value"] == "6"  # math values travel as decimal strings


def test_bound_below_hypothesis_is_usage_error(run_cli):
    for kind in ("family", "strict"):  # strict is twice the family bound
        code, out, err = run_cli("bound", kind, 3, 2)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: HypothesisError: intersecting omega bound needs n >= 2k, got n=3, k=2\n"


def test_bound_caps_n_before_any_arithmetic(run_cli, monkeypatch):
    def refuse(*args):
        raise AssertionError("bound evaluated")

    for kind in ("omega_intersecting", "omega_cross", "ekr"):
        monkeypatch.setattr(bounds, f"{kind}_bound", refuse)
    over = cli.MAX_BOUND_GROUND + 1
    for argv in (
        ("family", 200000, 100000),
        ("cross", over, 2, 2),
        ("strict", over, 2),
        ("ekr", over, 1),
    ):
        code, out, err = run_cli("bound", *argv, "--json")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert f"n <= {cli.MAX_BOUND_GROUND}" in err and "Traceback" not in err


def test_bound_names_the_parameter_that_failed(run_cli):
    for argv, bad in ((("cross", 5, 2, 0), "l=0"), (("cross", 5, 0, 2), "k=0"), (("family", 0, 2), "n=0")):
        code, out, err = run_cli("bound", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: BadSizeError: {bad[0]} must be a positive integer, got {bad}\n"


def test_bound_at_the_cap(run_cli):
    n = cli.MAX_BOUND_GROUND
    for argv in (("family", n, n // 2), ("cross", n, n // 2, n // 2)):
        code, out, _ = run_cli("bound", *argv)
        assert code == EXIT_PASS
        assert len(out.strip()) == 2465  # under Python's 4300-digit str() limit


def test_bound_cross_requires_l(run_cli):
    code, _, err = run_cli("bound", "cross", 6, 3)
    assert code == EXIT_USAGE
    assert err != ""


def test_bound_rejects_l_outside_cross(run_cli):
    code, _, _ = run_cli("bound", "family", 6, 3, 2)
    assert code == EXIT_USAGE


# --- omega ---


def test_omega_family_file(run_cli, family_file):
    path = family_file(star(5, 2, 1))
    code, out, _ = run_cli("omega", "family", path)
    assert code == EXIT_PASS
    assert out == "6\n"


def test_omega_cross_files_and_profile(run_cli, family_file):
    pa = family_file(star(5, 2, 1))
    pb = family_file(star(5, 2, 1))
    code, out, _ = run_cli("omega", "cross", pa, pb)
    assert (code, out) == (EXIT_PASS, "20\n")
    code, out, _ = run_cli("omega", "cross", pa, pb, "--profile")
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "20"
    assert "m=1" in out and "12" in out


def test_omega_profile_counts_each_summed_pair_once(run_cli, family_file):
    path = family_file(make_family(3, 2, [[1, 2], [1, 3]]))
    code, out, _ = run_cli("omega", "family", path, "--profile")
    assert (code, out) == (EXIT_PASS, "1\nm=0: 0\nm=1: 1\nm=2: 0\n")
    code, out, _ = run_cli("omega", "strict", path, path, "--profile")
    assert (code, out) == (EXIT_PASS, "2\nm=0: 0\nm=1: 2\nm=2: 0\n")


@pytest.mark.parametrize("weight", ["meet", "unit"])
@pytest.mark.parametrize("mode", ["family", "cross", "strict"])
def test_omega_profile_recount_mismatch_exits_internal(run_cli, family_file, monkeypatch, mode, weight):
    # two extra pairs at the top level (one once family mode halves them) move
    # both the total and the weighted sum
    profile = intersum.intersection_profile

    def shifted(fam_a, fam_b):
        counts = profile(fam_a, fam_b)
        return counts[:-1] + (counts[-1] + 2,)

    monkeypatch.setattr(intersum, "intersection_profile", shifted)
    path = family_file(star(5, 2, 1))
    paths = [path] if mode == "family" else [path, path]
    code, out, err = run_cli("omega", mode, *paths, "--weight", weight, "--profile", "--json")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "profile recounts" in err and "Traceback" not in err


@st.composite
def omega_inputs(draw):
    """A mode and its families on n <= 6; strict and cross pairs share the
    member size, and so members, half of the time."""
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["family", "cross", "strict"]))

    def family(k):
        universe = [sum(1 << x for x in c) for c in combinations(range(n), k)]
        masks = draw(st.lists(st.sampled_from(universe), unique=True, max_size=8))
        return Family.from_bitmasks(n, k, masks)

    k = draw(st.integers(1, n))
    if mode == "family":
        return mode, [family(k)]
    return mode, [family(k), family(draw(st.sampled_from([k, draw(st.integers(1, n))])))]


def omega_result(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["omega", *argv, "--json"]) == EXIT_PASS
    return json.loads(out.getvalue())["result"]


@settings(max_examples=80, deadline=None)
@given(omega_inputs())
def test_omega_profile_sums_to_the_value(case):
    # the histogram counts exactly the pairs the value sums, in every mode
    mode, families = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, fam in enumerate(families):
            paths.append(str(Path(tmp) / f"{i}.json"))
            Path(paths[-1]).write_text(json.dumps(family_to_dict(fam)))
        meet = omega_result(mode, *paths, "--profile")
        unit = omega_result(mode, *paths, "--weight", "unit")
    counts = [int(c) for c in meet["profile"]]
    assert sum(counts) == int(unit["value"])
    assert sum(m * c for m, c in enumerate(counts)) == int(meet["value"])


def test_omega_strict_mode(run_cli, family_file):
    pa = family_file(star(5, 2, 1))
    pb = family_file(star(5, 2, 1))
    code, out, _ = run_cli("omega", "strict", pa, pb)
    assert (code, out) == (EXIT_PASS, "12\n")


def test_omega_unit_weight(run_cli, family_file):
    path = family_file(full_family(4, 2))
    code, out, _ = run_cli("omega", "family", path, "--weight", "unit")
    assert (code, out) == (EXIT_PASS, "15\n")  # C(6,2) unordered pairs


@st.composite
def unit_inputs(draw):
    n = draw(st.integers(2, 7))

    def one():
        k = draw(st.integers(1, min(n, 3)))
        universe = list(combinations(range(1, n + 1), k))
        return make_family(n, k, draw(st.lists(st.sampled_from(universe), unique=True)))

    fa = one()
    return fa, fa if draw(st.booleans()) else one()


@settings(max_examples=40)
@given(unit_inputs())
def test_omega_unit_weight_matches_pair_loop(pair):
    fa, fb = pair
    expect = {
        "family": sum(1 for _ in combinations(fa.bitmasks, 2)),
        "cross": sum(1 for a in fa.bitmasks for b in fb.bitmasks),
        "strict": sum(a != b for a in fa.bitmasks for b in fb.bitmasks),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, fam in (("a.json", fa), ("b.json", fb)):
            path = Path(tmp) / name
            path.write_text(json.dumps(family_to_dict(fam)))
            paths.append(str(path))
        out = str(Path(tmp) / "out.txt")
        for mode, value in expect.items():
            files = paths[:1] if mode == "family" else paths
            assert main(["omega", mode, *files, "--weight", "unit", "--out", out]) == EXIT_PASS
            assert Path(out).read_text() == f"{value}\n"


def test_omega_unit_weight_ground_mismatch(run_cli, family_file):
    a, b = family_file(star(5, 2, 1)), family_file(star(6, 2, 1))
    assert run_cli("omega", "cross", a, b, "--weight", "unit")[0] == EXIT_USAGE


def test_omega_missing_file(run_cli, tmp_path):
    path = str(tmp_path / "nope.json")
    code, _, err = run_cli("omega", "family", path)
    assert code == EXIT_USAGE
    assert "nope.json" in err


def test_omega_invalid_json_reports_position(run_cli, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 5, "k": 2,\n  "sets": [[1, 2],]}')
    code, _, err = run_cli("omega", "family", str(path))
    assert code == EXIT_USAGE
    assert "line" in err and "column" in err


def test_omega_wrong_shape(run_cli, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text('{"n": 5, "sets": [[1, 2]]}')
    code, _, err = run_cli("omega", "family", str(path))
    assert code == EXIT_USAGE
    assert "n, k, sets" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 5, "k": 2, "sets": 7}',
        '{"n": 5, "k": 2, "sets": [7]}',
        '{"n": true, "k": 1, "sets": [[1]]}',
        '{"n": 5, "k": true, "sets": [[1]]}',
    ],
)
def test_omega_malformed_family_is_usage_error(run_cli, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli("omega", "family", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_omega_duplicate_set_rejected(run_cli, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 5, "k": 2, "sets": [[1, 2], [2, 1]]}')
    assert run_cli("omega", "family", str(path))[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "data",
    [
        b'\xff\xfe{"n": 5}',  # not UTF-8
        b'{"n": 5, "k": 2, "sets": [[1, ' + b"9" * 5000 + b"]]}",  # past the int digit limit
        b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
    ],
    ids=["not-utf8", "huge-int", "deep-nesting"],
)
def test_omega_unparseable_family_file(run_cli, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli("omega", "family", str(path), "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "Traceback" not in err


# --- fuzzed family input ---

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def near_valid_families(draw):
    """A valid family dict with at most one key dropped, replaced or spoiled."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    members = st.sets(st.integers(1, n), min_size=k, max_size=k).map(sorted)
    data = {"n": n, "k": k, "sets": draw(st.lists(members, max_size=6))}
    key = draw(st.sampled_from(["n", "k", "sets"]))
    change = draw(st.sampled_from(["none", "drop", "replace", "spoil"]))
    if change == "drop":
        del data[key]
    elif change == "replace":
        data[key] = draw(json_values | st.integers(-3, 70))
    elif change == "spoil":
        data["sets"] = data["sets"] + [draw(json_values | st.lists(st.integers(-1, n + 1)))]
    return data


family_inputs = json_values | near_valid_families()
FAMILY_ERRORS = (BadElementError, BadSizeError, DuplicateSetError, TooLargeError)


@settings(max_examples=200, deadline=None)
@given(family_inputs)
def test_family_from_dict_fuzz(data):
    try:
        fam = family_from_dict(data)
    except FAMILY_ERRORS:
        return
    assert family_from_dict(family_to_dict(fam)) == fam


@settings(max_examples=100, deadline=None)
@given(family_inputs, st.sampled_from([[], ["--profile"], ["--weight", "unit"]]))
def test_omega_family_fuzz(data, options):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fam.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["omega", "family", str(path), "--json", *options])
    assert code in (EXIT_PASS, EXIT_USAGE, EXIT_RESOURCE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_PASS:
        assert validated(out.getvalue())["manifest"]["command"] == "omega"
    else:
        assert out.getvalue() == ""


# --- verify ---


def test_verify_katona(run_cli):
    code, out, _ = run_cli("verify", "katona", 7, 3)
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert len(lines) == 2 and all(l.startswith("PASS") for l in lines)


def test_verify_doublecount(run_cli):
    code, out, _ = run_cli("verify", "doublecount", 5, 2, 2)
    assert code == EXIT_PASS
    assert out.splitlines() == [
        "PASS: m=1: sweep total 24 == 12 pair(s) x 2 permutation(s) each"
        " over 24 cyclic permutations",
        "PASS: m=2: sweep total 48 == 4 pair(s) x 12 permutation(s) each"
        " over 24 cyclic permutations",
    ]


@pytest.mark.parametrize("n,k,l", [(8, 8, 2), (8, 2, 8), (3, 3, 3)])
def test_verify_doublecount_whole_cycle_member_is_usage_error(run_cli, n, k, l):
    # a member of size n is the whole cycle, not an interval: exit 2, not a FAIL
    code, out, err = run_cli("verify", "doublecount", n, k, l)
    assert (code, out) == (EXIT_USAGE, "")
    assert "HypothesisError" in err and "below n" in err


def test_verify_doublecount_refuses_large_n_before_building_stars(run_cli, monkeypatch):
    def refuse(n, k, x):
        raise AssertionError("star built")

    monkeypatch.setattr(cli, "star", refuse)
    code, out, err = run_cli("verify", "doublecount", 40, 20, 20)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "n <= 8" in err


def test_verify_doublecount_fail_text(run_cli, monkeypatch):
    bad = cyclic.DoubleCountReport(
        m=1,
        perms_checked=24,
        pair_count=12,
        per_pair_expected=2,
        per_pair_ok=False,
        lhs_total=25,
        rhs_total=24,
        meets_distinct_ok=True,
        meet_bound_checked=True,
        meet_bound_ok=False,
        max_meets_in_one_perm=2,
        ok=False,
    )
    monkeypatch.setattr(cyclic, "double_count_check", lambda fam_a, fam_b: (bad,))
    code, out, _ = run_cli("verify", "doublecount", 5, 2, 2)
    assert code == EXIT_FAIL
    assert out.splitlines() == [
        "FAIL: m=1: sweep total 25 == 12 pair(s) x 2 permutation(s) each"
        " over 24 cyclic permutations",
        "FAIL: m=1: per-pair census is not uniform",
        "FAIL: m=1: more than 1 distinct meets in one permutation",
    ]


def test_verify_doublecount_workers_match(run_cli):
    _, out1, _ = run_cli("verify", "doublecount", 6, 2, 2)
    _, out2, _ = run_cli("verify", "doublecount", 6, 2, 2, "--workers", 2)
    assert out1 == out2


def test_verify_identity(run_cli):
    code, out, _ = run_cli("verify", "identity", "--n-max", 8)
    assert code == EXIT_PASS
    assert out.startswith("PASS")


def test_verify_identity_n_max_limits(run_cli):
    for bad in (1, 0, -5):
        code, out, err = run_cli("verify", "identity", "--n-max", bad)
        assert code == EXIT_USAGE and out == ""
        assert "--n-max" in err
    code, out, err = run_cli("verify", "identity", "--n-max", 64)
    assert code == EXIT_RESOURCE and out == ""
    assert "63" in err
    code, out, _ = run_cli("verify", "identity", "--n-max", 63, "--json")
    assert code == EXIT_PASS
    assert validated(out)["result"]["ok"] is True


def test_workers_below_one_is_usage_error(run_cli):
    commands = [
        ("verify", "katona", 6, 2),
        ("verify", "doublecount", 5, 2, 2),
        ("bound", "family", 5, 2),
    ]
    for argv in commands:
        for bad in ("0", "-1", "two"):
            code, out, _ = run_cli(*argv, "--workers", bad)
            assert (code, out) == (EXIT_USAGE, "")


def test_package_imports_without_numpy():
    # numpy is not a dependency; an import of it anywhere must fail this test
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = 'import sys; sys.modules["numpy"] = None; import intersum, intersum.cli'
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_process_pool(tmp_path):
    # every sweep runs in one process, whatever --workers says, and start-up stays light
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "report.json")
    sweeps = [
        ["verify", "katona", "6", "2", "--all-perms", "--workers", "2", "--json", "--out", out],
        ["verify", "doublecount", "6", "3", "2", "--workers", "2", "--json", "--out", out],
    ]
    code = (
        "import sys, intersum.cli\n"
        f"for argv in {sweeps!r}:\n"
        "    assert intersum.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_skips_pathlib_and_resources(tmp_path):
    # -S keeps site hooks from preloading either module; only report_schema
    # needs importlib.resources, and files are read and written with open()
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["bound", "family", "6", "2", "--json", "--out", str(tmp_path / "report.json")]
    code = (
        "import sys, intersum.cli\n"
        f"assert intersum.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in ('importlib.resources', 'pathlib') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "report.json").read_text())["result"]


ENGINES = ("_anneal", "bounds", "cyclic", "search", "weights")


def test_cli_and_engines_import_without_dataclasses():
    # records are built without dataclasses, whose import pulls in inspect,
    # ast, dis and tokenize; -S keeps site hooks from preloading them
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, intersum.cli\n"
        f"for m in {ENGINES!r}: __import__('intersum.' + m)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def engines_loaded(tmp_path, argv=None):
    """The engine modules loaded in a fresh interpreter by `import
    intersum.cli`, then by running argv if given."""
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, intersum.cli\n"
        f"argv = {argv!r}\n"
        "assert argv is None or intersum.cli.main(argv) == 0, argv\n"
        f"print([m for m in {ENGINES!r} if 'intersum.' + m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]  # after the command's own output


def test_each_command_imports_only_its_engine(tmp_path):
    (tmp_path / "fam.json").write_text(json.dumps(family_to_dict(star(6, 3, 1))))
    assert engines_loaded(tmp_path) == "[]"
    assert engines_loaded(tmp_path, ["omega", "family", "fam.json", "--profile"]) == "['weights']"
    assert engines_loaded(tmp_path, ["verify", "identity", "--n-max", "6"]) == "['bounds']"
    # search never reads cyclic, and reads _anneal only to anneal
    search_engines = "['bounds', 'search', 'weights']"
    assert engines_loaded(tmp_path, ["search-exact", "6", "2"]) == search_engines
    # (6,3) and (4,2,2) are boundary configs, each with a class that is no star
    for argv in (
        ["8", "3", "--budget", "60"],
        ["7", "3", "2", "--budget", "40"],
        ["6", "3"],
        ["4", "2", "2"],
    ):
        assert engines_loaded(tmp_path, ["verify", "extremal", *argv]) == search_engines
    heuristic = ["search-heuristic", "8", "3", "--iterations", "50"]
    assert engines_loaded(tmp_path, heuristic) == "['_anneal', 'bounds', 'search', 'weights']"


def test_star_import_binds_every_public_name():
    src = str(Path(intersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from intersum import *\n"
        "import intersum\n"
        "print([name for name in intersum.__all__ if name not in globals()])"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert len(intersum.__all__) == 46 and "omega_family" in dir(intersum)
    retired = {
        "CyclicPerm",
        "Interval",
        "KSet",
        "Permutation",
        "Profile",
        "RepresentablePair",
        "WitnessAssessment",
        "apply_perm",
        "enumerate_cyclic",
        "fingerprint",
        "interval_meet_family",
        "interval_of",
        "intervals_of_length",
        "kset",
        "max_omega_intersecting_naive",
        "meet_weight",
        "omega_generic",
        "omega_strict_bound",
        "representable_pairs",
        "unit_weight",
    }
    assert retired.isdisjoint(dir(intersum))
    for name in retired:
        with pytest.raises(AttributeError):
            getattr(intersum, name)


def test_verify_extremal_strict(run_cli):
    code, out, _ = run_cli("verify", "extremal", 5, 2)
    assert code == EXIT_PASS
    assert [l.split(":")[0] for l in out.splitlines()] == ["PASS", "PASS", "PASS"]


def test_verify_extremal_boundary(run_cli):
    code, out, _ = run_cli("verify", "extremal", 4, 2)
    assert code == EXIT_PASS
    assert [l.split(":")[0] for l in out.splitlines()] == ["PASS", "PASS", "INFO"]


@pytest.mark.parametrize("argv", [(5, 2), (4, 2), (5, 2, 2), (4, 2, 2)])
def test_verify_extremal_fails_on_an_unattained_bound(run_cli, monkeypatch, argv):
    """A closed form one above the true maximum fails, boundary configs too."""
    kind = "cross" if len(argv) == 3 else "intersecting"
    real = getattr(search, f"omega_{kind}_bound")
    monkeypatch.setattr(
        search,
        f"omega_{kind}_bound",
        lambda *a: real(*a)._replace(value=real(*a).value + 1),
    )
    code, out, _ = run_cli("verify", "extremal", *argv)
    assert code == EXIT_FAIL
    first, second = out.splitlines()[:2]
    assert first.startswith("FAIL: exact maximum") and second.startswith("PASS")


# --- search ---


def test_search_exact_text(run_cli):
    code, out, _ = run_cli("search-exact", 5, 2)
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "best 6  bound 6  tight  (exhaustive)"
    assert "{1,2} {1,3} {1,4} {1,5}" in out


def test_search_exact_json(run_cli):
    code, out, _ = run_cli("search-exact", 5, 2, 2, "--json")
    assert code == EXIT_PASS
    payload = validated(out)
    r = payload["result"]
    assert r["best_value"] == "20" and r["tight"] is True
    assert r["witnesses"][0]["a"]["sets"] == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_search_exact_over_budget(run_cli):
    code, _, err = run_cli("search-exact", 12, 3)
    assert code == EXIT_RESOURCE
    assert "budget" in err


def test_search_exact_budget_flag(run_cli):
    # C(7,3) = 35 fits once the budget is raised
    code, out, _ = run_cli("search-exact", 7, 3, "--budget", 40)
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "best 165  bound 165  tight  (exhaustive)"


def test_budget_range_exits(run_cli, monkeypatch):
    def refuse(n, k):
        raise AssertionError("universe built")

    monkeypatch.setattr(search, "ksubset_masks", refuse)
    over = search.MAX_EXHAUSTIVE_BUDGET + 1
    cases = [
        (("search-exact", 5, 2), -5, EXIT_USAGE),
        (("search-exact", 5, 2, 2), 0, EXIT_USAGE),
        (("verify", "extremal", 5, 2), -1, EXIT_USAGE),
        (("search-exact", 5, 2), "2.5", EXIT_USAGE),
        (("search-exact", 30, 15), 10**9, EXIT_RESOURCE),
        (("search-exact", 30, 15, 10), 10**9, EXIT_RESOURCE),
        (("verify", "extremal", 30, 15), over, EXIT_RESOURCE),
        (("verify", "extremal", 30, 15, 10), over, EXIT_RESOURCE),
    ]
    for argv, budget, expected in cases:
        code, out, err = run_cli(*argv, "--budget", budget, "--json")
        assert (code, out) == (expected, "")
        assert "Traceback" not in err
        if expected == EXIT_RESOURCE:
            assert "ceiling" in err


def test_verify_extremal_10_4(run_cli):
    code, out, _ = run_cli("verify", "extremal", 10, 4, "--budget", 256, "--json")
    assert code == EXIT_PASS
    payload = validated(out)
    assert payload["result"]["ok"] is True
    assert payload["result"]["search"]["best_value"] == "6888"


def test_search_heuristic(run_cli):
    args = ("search-heuristic", 8, 3, "--seed", 1, "--iterations", 400, "--restarts", 2)
    code, out, _ = run_cli(*args)
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "best 315  bound 315  tight  (heuristic)"
    _, again, _ = run_cli(*args)
    assert again == out


def test_search_heuristic_bad_config(run_cli):
    assert run_cli("search-heuristic", 5, 2, "--iterations", 0)[0] == EXIT_USAGE
    assert run_cli("search-heuristic", 5, 2, "--decay", 2.0)[0] == EXIT_USAGE
    for bad in ("nan", "inf"):
        for flag in ("--temperature", "--decay"):
            code, out, _ = run_cli("search-heuristic", 6, 2, flag, bad, "--json")
            assert (code, out) == (EXIT_USAGE, "")
    code, out, err = run_cli("search-heuristic", 6, 2, 3, "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert "k >= l" in err and "Traceback" not in err


def test_search_heuristic_step_cap(run_cli):
    over = search.MAX_ANNEAL_STEPS + 1
    for config in ((10, 3), (10, 3, 3)):
        args = ("search-heuristic", *config, "--iterations", over, "--restarts", 1)
        code, out, err = run_cli(*args)
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "step cap" in err


def test_search_heuristic_universe_caps(run_cli, monkeypatch):
    """An annealer universe over its cap exits 3 before any k-set is built;
    the cross annealer checks its B side first."""

    def refuse(n, k):
        raise AssertionError("universe built")

    monkeypatch.setattr(search, "ksubset_masks", refuse)
    cases = [
        ((30, 5), f"C(30,5) = 142506 exceeds the annealer universe cap {_anneal._SA_UNIVERSE_CAP}"),
        ((15, 5, 5), f"C(15,5) = 3003 exceeds the cross annealer B-side cap {_anneal._SA_CROSS_B_CAP}"),
    ]
    for config, message in cases:
        code, out, err = run_cli("search-heuristic", *config, "--json")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert message in err and "Traceback" not in err


def test_search_heuristic_drift_exits_internal(run_cli, monkeypatch):
    def drifted(n, k, cfg):
        return 7, star(n, k, 1).bitmasks

    monkeypatch.setattr(_anneal, "_anneal_family", drifted)
    code, out, err = run_cli("search-heuristic", 5, 2, "--json")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "drifted" in err and "Traceback" not in err


# --- envelope plumbing ---


def strip_runtimes(payload):
    payload["manifest"]["runtime_ms"] = 0
    if isinstance(payload.get("result"), dict):
        payload["result"].pop("runtime_ms", None)
    return payload


def test_replay_determinism(run_cli, tmp_path):
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli("search-exact", 6, 3, "--json", "--out", out_a)[0] == EXIT_PASS
    assert run_cli("search-exact", 6, 3, "--json", "--out", out_b)[0] == EXIT_PASS
    a = strip_runtimes(json.loads(open(out_a).read()))
    b = strip_runtimes(json.loads(open(out_b).read()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_out_writes_file_not_stdout(run_cli, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run_cli("bound", "family", 6, 2, "--json", "--out", str(path))
    assert code == EXIT_PASS
    assert out == ""
    validated(path.read_text())


@pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["missing-parent", "directory"])
def test_out_unwritable_is_usage_error(run_cli, tmp_path, target):
    for fmt in ([], ["--json"]):
        code, out, err = run_cli("bound", "family", 5, 2, "--out", str(tmp_path / target), *fmt)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_usage_errors(run_cli):
    assert run_cli()[0] == EXIT_USAGE
    assert run_cli("no-such-command")[0] == EXIT_USAGE
    assert run_cli("bound", "family", "five", 2)[0] == EXIT_USAGE


def test_exit_code_constants():
    assert (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_RESOURCE, EXIT_INTERNAL) == (0, 1, 2, 3, 4)


# --- behaviour contract ---
#
# A fixed command set over every subcommand, mode and exit path.  Each entry
# pins a digest of the exit codes, the text stdout, the stderr and the
# runtime-stripped --json report; "--out out.txt" reads the written file as
# stdout.  A refactor
# of the CLI must leave every digest unchanged.

CONTRACT = [
    ("bound family 5 2", "0b9f64107573c725"),
    ("bound cross 6 3 2", "e233ba9f98ad2991"),
    ("bound strict 5 2", "b2ac54ff9c0f0e46"),
    ("bound ekr 6 3", "1ab716f4e6839c80"),
    ("bound family 5 2 --out out.txt", "0b9f64107573c725"),
    ("bound family 3 2", "f167c93ae3a9a047"),
    ("bound cross 6 3", "f652d89f07a9c3dc"),
    ("bound family 6 3 2", "436b3d606e37d4cb"),
    ("omega family a.json", "f772e071cdb1bbeb"),
    ("omega family b.json --weight unit", "94487de386859cf8"),
    ("omega family b.json --profile", "7813a957651697ab"),
    ("omega cross a.json c.json", "95c6be4950232819"),
    ("omega cross a.json c.json --profile", "41714b790a8a8a46"),
    ("omega strict a.json a.json", "6980306f29c194f0"),
    ("omega cross a.json c.json --weight unit", "441064348edd515c"),
    ("omega strict a.json c.json --weight unit --profile", "b84b1bbccafd074b"),
    ("omega family missing.json", "c01fde66424ecdbe"),
    ("omega family a.json c.json", "1566930e5ab01893"),
    ("omega cross a.json", "ae7e88ea74a64a35"),
    ("verify katona 7 3", "4bf062105e927e73"),
    ("verify katona 6 3", "8a3f1b1d3d29508f"),
    ("verify katona 6 2 --all-perms", "f0d6ef88771b7338"),
    ("verify katona 6 2 --all-perms --workers 2", "0bc5e752597710c3"),
    ("verify doublecount 5 2 2", "31049628b3121867"),
    ("verify doublecount 6 3 2 --workers 2", "a6349f2a9cecbdd5"),
    ("verify doublecount 3 3 3", "87dc1200d8018493"),
    ("verify doublecount 9 3 2", "732158a8d8233425"),
    ("verify doublecount 8 3 2", "2753a23c9c09269f"),
    ("verify doublecount 5 4 4", "1dbda468d0c08e67"),
    ("verify identity --n-max 10", "bd1357441ef6b71c"),
    ("verify identity --n-max 1", "569c4b5c3b633242"),
    ("verify identity --n-max 64", "271fd89048a933fb"),
    ("verify extremal 5 2", "ba3bd3bea4243d12"),
    ("verify extremal 4 2", "6f03181e67d4919b"),
    ("verify extremal 5 2 2", "f2571227a46b10cb"),
    ("verify extremal 5 3 2", "9cf0262ba875950d"),
    ("verify extremal 7 3 --budget 40", "d16d58ae73e8de93"),
    ("verify extremal 4 3 1", "9ecaee7cb38d53a0"),
    ("search-exact 5 2", "f224e4e02c1a1373"),
    ("search-exact 5 2 2", "fe5c6636aadc02cb"),
    ("search-exact 6 2 --naive", "5d3102051c6b2c3c"),
    ("search-exact 12 3", "f924f857b3775d85"),
    ("search-exact 5 2 --budget 0", "dea69a58b198a52f"),
    ("search-exact 4 3 1", "9ecaee7cb38d53a0"),
    ("search-heuristic 8 3 --seed 1 --iterations 400 --restarts 2", "f453e0863ea6d2be"),
    ("search-heuristic 6 2 2 --seed 3 --iterations 200 --restarts 2 --temperature 1.5 --decay 0.99", "328eeadc39cdf68b"),
    ("search-heuristic 5 2 --iterations 0", "67fa7fdc8591af9d"),
    ("search-heuristic 10 3 --iterations 10000001 --restarts 1", "855d3f8f9e9a95f5"),
    ("search-heuristic 4 3 1 --seed 0 --iterations 200 --restarts 2", "91a5a6a68e034a5a"),
    ("no-such-command", "60c6735a71792448"),
    ("bound family 5 2 --workers 0", "cdd42da32f39baa3"),
]


def contract_files():
    """Write the family files the contract commands name into the cwd."""
    files = {
        "a.json": star(6, 3, 1),
        "b.json": make_family(6, 3, [[1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]]),
        "c.json": make_family(6, 2, [[1, 2], [1, 3], [2, 3], [4, 5]]),
    }
    for name, fam in files.items():
        Path(name).write_text(json.dumps(family_to_dict(fam)))


def strip_runtimes_deep(node):
    if isinstance(node, dict):
        return {k: strip_runtimes_deep(v) for k, v in node.items() if k != "runtime_ms"}
    if isinstance(node, list):
        return [strip_runtimes_deep(v) for v in node]
    return node


def contract_digest(command):
    """Digest of (exit code, stdout, stderr) for the text run and the --json
    run; an exit-0 --json report must validate against the shipped schema."""
    seen = []
    for extra in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split() + extra)
        text = out.getvalue()
        if Path("out.txt").exists():
            text += Path("out.txt").read_text()
            Path("out.txt").unlink()
        if extra and code == EXIT_PASS:
            text = strip_runtimes_deep(validated(text))
        seen.append([code, text, err.getvalue()])
    blob = json.dumps(seen, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("command,digest", CONTRACT, ids=[c for c, _ in CONTRACT])
def test_behaviour_contract(command, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    contract_files()
    assert contract_digest(command) == digest


def leaf_parsers(parser, path_dests=frozenset()):
    """Each subparser that runs a command, with the dests it can read: its own
    and those of the subcommand choices on its path ("command", "suite")."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests = path_dests | {action.dest}
                if sub.get_default("func") is None:
                    yield from leaf_parsers(sub, dests)
                else:
                    yield sub, dests | {a.dest for a in sub._actions}


def test_manifest_params_are_parser_dests():
    leaves = list(leaf_parsers(cli.build_parser()))
    assert len(leaves) == 8
    for sub, dests in leaves:
        params = sub.get_default("params")
        assert params and set(params) <= dests, sub.prog


def test_behaviour_contract_failing_suite(tmp_path, monkeypatch):
    # the exit-1 path of a verify suite that reports FAIL without raising
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bounds, "star_identity_check", lambda n, k, l: (n, k, l) != (5, 2, 1))
    assert contract_digest("verify identity --n-max 6") == "dfdd7396f8267a25"
