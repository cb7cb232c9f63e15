"""Command-line surface: exit codes, text and JSON output, replay determinism."""

import json

import jsonschema
import pytest

from intersum.cli import EXIT_FAIL, EXIT_PASS, EXIT_RESOURCE, EXIT_USAGE, report_schema
from intersum.setcore import full_family, make_family, star


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
    code, out, err = run_cli("bound", "family", 3, 2)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err.lower()


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


def test_omega_strict_mode(run_cli, family_file):
    pa = family_file(star(5, 2, 1))
    pb = family_file(star(5, 2, 1))
    code, out, _ = run_cli("omega", "strict", pa, pb)
    assert (code, out) == (EXIT_PASS, "12\n")


def test_omega_unit_weight(run_cli, family_file):
    path = family_file(full_family(4, 2))
    code, out, _ = run_cli("omega", "family", path, "--weight", "unit")
    assert (code, out) == (EXIT_PASS, "15\n")  # C(6,2) unordered pairs


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


def test_verify_doublecount_workers_match(run_cli):
    _, out1, _ = run_cli("verify", "doublecount", 6, 2, 2)
    _, out2, _ = run_cli("verify", "doublecount", 6, 2, 2, "--workers", 2)
    assert out1 == out2


def test_verify_identity(run_cli):
    code, out, _ = run_cli("verify", "identity", "--n-max", 8)
    assert code == EXIT_PASS
    assert out.startswith("PASS")


def test_verify_extremal_strict(run_cli):
    code, out, _ = run_cli("verify", "extremal", 5, 2)
    assert code == EXIT_PASS
    assert [l.split(":")[0] for l in out.splitlines()] == ["PASS", "PASS", "PASS"]


def test_verify_extremal_boundary(run_cli):
    code, out, _ = run_cli("verify", "extremal", 4, 2)
    assert code == EXIT_PASS
    assert [l.split(":")[0] for l in out.splitlines()] == ["PASS", "PASS", "INFO"]


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


def test_usage_errors(run_cli):
    assert run_cli()[0] == EXIT_USAGE
    assert run_cli("no-such-command")[0] == EXIT_USAGE
    assert run_cli("bound", "family", "five", 2)[0] == EXIT_USAGE


def test_exit_code_constants():
    assert (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_RESOURCE) == (0, 1, 2, 3)
