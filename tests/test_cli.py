"""CLI surface: report schema, caching, exit codes."""

import json

import pytest

from purecubic import __version__
from purecubic.cli import TABLE1_PRIMES, load_u_assignments, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_u_assignments_cover_all_table_primes():
    u_map = load_u_assignments()
    assert set(u_map) == set(TABLE1_PRIMES)
    assert all(u == 1 for u, _ in u_map.values())


def test_report_schema(capsys):
    code, doc = run_json(capsys, "symbols", "--p", "199")
    assert code == 0
    assert set(doc) == {"tool_version", "command", "inputs", "results", "status"}
    assert doc["tool_version"] == __version__
    assert doc["command"] == "symbols"
    assert doc["status"] == "ok"
    rec = doc["results"][0]
    assert rec["p_mod9"] == 1
    assert rec["three_symbol_trivial"] is False
    assert rec["zeta_is_norm"] is True
    assert rec["ambiguous_order"] == 3


def test_split_command(capsys):
    code, doc = run_json(capsys, "split", "--d", "199", "--q", "3")
    assert code == 0
    rec = doc["results"][0]
    assert rec["k_pattern"] == [[2, 1], [2, 1], [2, 1]]
    code2, doc2 = run_json(capsys, "split", "--d", "2", "--q", "5")
    assert doc2["results"][0]["oracle_agrees"] is True


def test_scan_cache_resume(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    code, doc = run_json(capsys, "--cache", cache, "scan", "--max-p", "500")
    assert code == 0
    ps = [r["p"] for r in doc["results"]]
    assert 199 in ps and 487 in ps
    assert all(p % 9 == 1 for p in ps)
    assert all(not r["three_symbol_trivial"] for r in doc["results"])
    n_lines = len(open(cache).read().splitlines())
    code2, doc2 = run_json(capsys, "--cache", cache, "scan", "--max-p", "500")
    assert [r["p"] for r in doc2["results"]] == ps
    assert len(open(cache).read().splitlines()) == n_lines  # no duplicates


def test_scan_cache_recomputes_records_with_another_u(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    _, doc = run_json(capsys, "--cache", cache, "scan", "--max-p", "500")
    n_lines = len(open(cache).read().splitlines())
    rec = next(r for r in doc["results"] if r["p"] == 487)
    assert (rec["u"], rec["u_provenance"]) == (1, "literature")
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"records": [{"p": 487, "u": 3, "provenance": "override"}]}))
    _, doc2 = run_json(capsys, "--cache", cache, "--u-file", str(ufile), "scan", "--max-p", "500")
    rec2 = next(r for r in doc2["results"] if r["p"] == 487)
    assert (rec2["u"], rec2["u_provenance"]) == (3, "override")
    # every other kept prime defaults now instead of reading the bundled file
    changed = [r["p"] for r in doc["results"] if r["u_provenance"] != "default-assumption"]
    assert len(open(cache).read().splitlines()) == n_lines + len(changed)
    # the appended records win when the cache is read back
    _, doc3 = run_json(capsys, "--cache", cache, "--u-file", str(ufile), "scan", "--max-p", "500")
    assert doc3["results"] == doc2["results"]
    assert len(open(cache).read().splitlines()) == n_lines + len(changed)


def test_scan_threads_deterministic(capsys, tmp_path):
    _, doc1 = run_json(capsys, "scan", "--max-p", "400")
    _, doc4 = run_json(capsys, "--threads", "4", "scan", "--max-p", "400")
    strip = lambda rs: [{k: v for k, v in r.items() if k != "timestamp"} for r in rs]
    assert strip(doc1["results"]) == strip(doc4["results"])


def test_table1_predicates_only(capsys):
    # tiny budget: every row must be predicate-checked but class-group unverified
    code, doc = run_json(capsys, "--budget", "0.2", "table1")
    assert code == 0
    assert len(doc["results"]) == 24
    assert {r["status"] for r in doc["results"]} == {"unverified"}


def test_table1_negative_control_u(capsys, tmp_path):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps(
        {"records": [{"p": 199, "u": 3, "provenance": "override"}]}))
    code, doc = run_json(capsys, "--budget", "0.2", "--u-file", str(ufile),
                         "table1", "--primes", "199")
    assert code == 1
    assert doc["status"] == "mismatch"
    assert doc["results"][0]["status"] == "mismatch"


def test_classgroup_command(capsys):
    code, doc = run_json(capsys, "--budget", "60", "classgroup", "--d", "7")
    assert code == 0
    rec = doc["results"][0]
    assert rec["h"] == 3 and rec["certified"] is True


def test_arithmetic_error_is_a_mismatch_row(capsys, monkeypatch):
    def contradiction(*args, **kwargs):
        raise ArithmeticError("relation does not reassemble")

    monkeypatch.setattr("purecubic.cli.class_group", contradiction)
    code, doc = run_json(capsys, "classgroup", "--d", "7")
    assert code == 1
    assert doc["status"] == "mismatch"
    rec = doc["results"][0]
    assert rec["status"] == "mismatch"
    assert rec["reason"] == "relation does not reassemble"
    code, doc = run_json(capsys, "--budget", "60", "table1", "--primes", "199", "487")
    assert code == 1
    assert doc["status"] == "mismatch"
    assert [r["status"] for r in doc["results"]] == ["mismatch", "mismatch"]
    assert all(r["reason"] == "relation does not reassemble" for r in doc["results"])


def test_budget_exhaustion_reports_progress_in_cli(capsys):
    code, doc = run_json(capsys, "--budget", "0.01", "classgroup", "--d", "199")
    assert code == 0
    rec = doc["results"][0]
    assert rec["status"] == "unverified"
    assert "0 relation rows, lattice rank 0 of 26" in rec["reason"]
    # 8821 has 603 factor-base primes and needs far more than a second
    code, doc = run_json(capsys, "--budget", "1.5", "table1", "--primes", "8821")
    assert code == 0
    rec = doc["results"][0]
    assert rec["status"] == "unverified"
    assert "did not stabilize in budget" in rec["problems"][0]
    assert "of 603" in rec["problems"][0]


def test_model_check(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_json(capsys, "model-check", "--out", str(out))
    assert code == 0
    rec = doc["results"][0]
    assert rec["explicit_model_present"] is True
    assert all(v["status"] == "holds-universally" for v in rec["theorem_claims"].values())
    saved = json.loads(out.read_text())
    assert saved["model_count"] == rec["model_count"]


def test_model_check_unknown_constraint(capsys):
    code = main(["model-check", "--drop", "no_such_constraint"])
    assert code == 2


def test_model_check_relaxed(capsys):
    code, doc = run_json(capsys, "model-check", "--drop", "ambiguous_order_3")
    rec = doc["results"][0]
    assert rec["model_count"] >= 18


def test_model_check_verifier_disagreement_is_a_mismatch_row(capsys, monkeypatch):
    monkeypatch.setattr("purecubic.galoismodel.verify_model", lambda m, c: False)
    code, out = run(capsys, "model-check")
    assert code == 1
    doc = json.loads(out)  # a report document, not a traceback
    assert doc["status"] == "mismatch"
    rec = doc["results"][0]
    assert rec["status"] == "mismatch"
    assert "enumeration filter and verifier disagree" in rec["reason"]
    assert rec["constraints"]["dihedral_relation"] is True


def test_csv_output(capsys):
    code, out = run(capsys, "--csv", "symbols", "--p", "199")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "p" in lines[0].split(",")


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classgroup"])  # missing --d
    assert exc.value.code == 2
    code = main(["scan", "--max-p", "5"])
    assert code == 2
    code = main(["split", "--d", "2", "--q", "6"])
    assert code == 2


def test_unreadable_cache_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"p": 19}\nnot json\n{"p": 37}\n')
    code = main(["--cache", str(bad), "scan", "--max-p", "100"])
    assert code == 2


def test_field_that_is_not_cube_free_is_usage_error(capsys):
    assert main(["classgroup", "--d", "8"]) == 2
    assert main(["split", "--d", "54", "--q", "5"]) == 2
    assert "not cube-free" in capsys.readouterr().err


def test_malformed_u_file_is_usage_error(capsys, tmp_path):
    ufile = tmp_path / "u.json"
    for text in ("not json", '{"records": [{"p": 199}]}', '{"records": [{"p": 199, "u": "x"}]}'):
        ufile.write_text(text)
        assert main(["--u-file", str(ufile), "symbols", "--p", "199"]) == 2
    assert main(["--u-file", str(tmp_path / "missing.json"), "symbols", "--p", "199"]) == 2


def test_internal_value_error_exits_3(capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("lattice dimension must be positive")

    monkeypatch.setattr("purecubic.cli.class_group", fault)
    assert main(["classgroup", "--d", "7"]) == 3
    assert "internal error: lattice dimension must be positive" in capsys.readouterr().err
