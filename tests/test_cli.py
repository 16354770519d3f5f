"""CLI surface: report schema, caching, exit codes."""

import concurrent.futures
import json
import os
import subprocess
import sys
import time

import pytest
from sympy import primerange

from purecubic import __version__, cli, eisenstein, primes
from purecubic.classgroup import class_group
from purecubic.cli import TABLE1_PRIMES, emit, load_u_assignments, main, scan_record
from purecubic.cubicfield import SplitPattern
from purecubic.eisenstein import LAMBDA, Eisenstein, norm, split_primaries
from purecubic.symbols import cubic_residue, prime_symbols, zeta_norm_test
from purecubic.galoismodel import ModelConstraints, full_report
from relation_search import BUDGET_SECONDS


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


@pytest.mark.parametrize("max_p", [19, 36, 37, 2000, 20011])
def test_scan_lists_every_prime_1_mod_9(capsys, max_p):
    _, doc = run_json(capsys, "scan", "--keep-all", "--max-p", str(max_p))
    assert [r["p"] for r in doc["results"]] == [p for p in primerange(19, max_p + 1) if p % 9 == 1]


def test_scan_records_meet_eulers_criterion(capsys):
    # 3 is a cube mod p exactly when 3^((p-1)/3) = 1 (mod p), and every p = 1
    # (mod 9) has ambiguous order 3: both read off one factorisation of p
    _, doc = run_json(capsys, "scan", "--keep-all", "--max-p", "20011")
    records = doc["results"]
    assert len(records) == sum(1 for p in primerange(19, 20012) if p % 9 == 1)
    for r in records:
        p = r["p"]
        assert r["three_symbol_trivial"] == (pow(3, (p - 1) // 3, p) == 1), p
        assert r["ambiguous_order"] == 3, p
    assert {r["three_symbol_trivial"] for r in records} == {True, False}


@pytest.mark.parametrize("p", [7, 199, 8821])
def test_symbols_command_agrees_with_the_symbol_functions(capsys, p):
    _, doc = run_json(capsys, "symbols", "--p", str(p))
    (rec,) = doc["results"]
    pi1, pi2 = split_primaries(p)
    three = cubic_residue(Eisenstein(3, 0), pi1)
    assert rec["three_symbol_exponent"] == three.e
    assert rec["three_symbol_trivial"] == three.is_trivial()
    assert rec["lambda_symbol_exponent"] == cubic_residue(LAMBDA, pi1).e
    assert rec["zeta_is_norm"] == (p % 9 == 1) == zeta_norm_test(p)
    assert rec["ambiguous_order"] == prime_symbols(p).ambiguous_order
    assert (rec["pi1"], rec["pi2"]) == ([pi1.a, pi1.b], [pi2.a, pi2.b])


def test_symbols_command_proves_p_prime_once(capsys, monkeypatch):
    # split_primaries proves p prime; the usage check and the lambda-symbol
    # read what it proved
    counts = {"isprime": 0}
    real = primes.isprime  # read before the loop patches purecubic.primes

    def spy(*args):
        counts["isprime"] += 1
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("purecubic") and getattr(mod, "isprime", None) is real:
            monkeypatch.setattr(mod, "isprime", spy)
    for p in (7, 199, 8821):
        counts["isprime"] = 0
        code, doc = run_json(capsys, "symbols", "--p", str(p))
        assert code == 0
        assert counts["isprime"] == 1, p
        pi1 = Eisenstein(*doc["results"][0]["pi1"])
        assert doc["results"][0]["lambda_symbol_exponent"] == cubic_residue(LAMBDA, pi1).e
    for p in ("1", "91", "5", "4", "0", "-2"):  # 91 = 7 * 13 is 1 mod 3
        assert main(["symbols", "--p", p]) == 2, p
        assert "--p must be a prime congruent to 1 mod 3" in capsys.readouterr().err


def test_scan_record_factors_p_once(monkeypatch):
    # one split_primaries(p) per record, and one primality proof of p, which
    # also proves pi1 and pi2 prime: 1 isprime call where there were 13
    counts = {"split_primaries": 0, "isprime": 0}
    targets = (("split_primaries", eisenstein.split_primaries), ("isprime", primes.isprime))
    for name, target in targets:
        def spy(*args, _target=target, _name=name):
            counts[_name] += 1
            return _target(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("purecubic") and getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, spy)
    for p in (19, 199, 8821, 20011):
        counts.update(split_primaries=0, isprime=0)
        scan_record(p, {})
        assert counts["split_primaries"] == 1, p
        assert counts["isprime"] == 1, p


def test_scan_timestamp_is_the_current_utc_second(monkeypatch):
    # formatted once per second, the text is still the record's own second
    now = [1_700_000_000.25]
    monkeypatch.setattr(cli.time, "time", lambda: now[0])
    for t in (1_700_000_000.25, 1_700_000_000.99, 1_700_000_001.0, 1_700_000_000.5, 86399.9):
        now[0] = t
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(t)))
        assert scan_record(19, {})["timestamp"] == stamp, t


def test_table1_predicates_only(capsys):
    # no budget: every row must be predicate-checked but class-group unverified
    code, doc = run_json(capsys, "--budget", "0", "table1")
    assert code == 0
    assert len(doc["results"]) == 24
    assert {r["status"] for r in doc["results"]} == {"unverified"}
    assert all(r["ambiguous_order"] == 3 for r in doc["results"])


def test_table1_runs_a_row_with_under_a_second_left(capsys, monkeypatch):
    # a row's class group gets whatever budget is left, however little
    budgets = []

    def recorder(F, budget_seconds):
        budgets.append(budget_seconds)
        return class_group(F, budget_seconds=BUDGET_SECONDS)

    monkeypatch.setattr("purecubic.cli.class_group", recorder)
    code, doc = run_json(capsys, "--budget", "0.9", "table1", "--primes", "487")
    assert code == 0
    assert len(budgets) == 1 and 0 < budgets[0] < 1
    assert doc["results"][0]["status"] == "ok"


def test_table1_negative_control_u(capsys, tmp_path):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps(
        {"records": [{"p": 199, "u": 3, "provenance": "override"}]}))
    code, doc = run_json(capsys, "--budget", "0.2", "--u-file", str(ufile),
                         "table1", "--primes", "199")
    assert code == 1
    assert doc["status"] == "mismatch"
    assert doc["results"][0]["status"] == "mismatch"


def test_table1_primes_without_values_is_usage_error(capsys):
    # an empty --primes must not read as "no restriction" and run all 24 rows
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "0.2", "table1", "--primes"])
    assert exc.value.code == 2
    assert "--primes" in capsys.readouterr().err


def test_table1_duplicate_prime_is_usage_error(capsys):
    # a repeated p would compute its class group twice and emit two rows
    assert main(["--budget", "0.2", "table1", "--primes", "199", "487", "199"]) == 2
    captured = capsys.readouterr()
    assert "[199] more than once" in captured.err
    assert captured.out == ""


def test_classgroup_command(capsys):
    code, doc = run_json(capsys, "--budget", "60", "classgroup", "--d", "7")
    assert code == 0
    rec = doc["results"][0]
    assert rec["h"] == 3 and rec["certified"] is True
    # a catalogue prime also gets the k-structure decision
    code, doc = run_json(capsys, "--budget", "120", "classgroup", "--d", "199")
    assert code == 0
    assert doc["status"] == "ok"
    (rec,) = doc["results"]
    assert (rec["h"], rec["certified"]) == (9, True)
    assert (rec["u"], rec["h_k3"], rec["k_type"]) == (1, 27, "(9,3)")


def test_table1_verifies_a_row(capsys):
    code, doc = run_json(capsys, "--budget", "120", "table1", "--primes", "199")
    assert code == 0
    assert doc["status"] == "ok"
    (row,) = doc["results"]
    assert row["status"] == "ok"
    assert (row["h_gamma"], row["h_gamma3_divisors"]) == (9, [9])
    assert row["h_certified"] is True
    assert row["k_type"] == "(9,3)"


def test_split_oracle_disagreement_is_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("purecubic.cli.brute_split", lambda F, q: SplitPattern.of((3, 1)))
    code, doc = run_json(capsys, "split", "--d", "2", "--q", "5")
    assert code == 1
    assert doc["status"] == "mismatch"
    (rec,) = doc["results"]
    assert rec["oracle_pattern"] == [[3, 1]]
    assert rec["oracle_agrees"] is False


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


def test_budget_exhaustion_reports_progress_in_cli(capsys, monkeypatch):
    code, doc = run_json(capsys, "--budget", "0", "classgroup", "--d", "199")
    assert code == 0
    rec = doc["results"][0]
    assert rec["status"] == "unverified"
    assert rec["reason"] == (
        "class group for d=199 did not finish its factor base in budget: "
        "0 prime ideals above the rational primes below 2, of bound 98"
    )
    # its class group gets no time at all, so the row is unverified on any machine
    monkeypatch.setattr(
        "purecubic.cli.class_group", lambda F, budget_seconds: class_group(F, budget_seconds=0)
    )
    code, doc = run_json(capsys, "--budget", "1.5", "table1", "--primes", "8821")
    assert code == 0
    rec = doc["results"][0]
    assert rec["status"] == "unverified"
    assert "did not finish its factor base in budget" in rec["problems"][0]


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
    assert code == 0
    assert doc["status"] == "ok"
    rec = doc["results"][0]
    assert rec["model_count"] >= 18
    code, doc = run_json(capsys, "model-check", "--drop", "dihedral_relation")
    assert code == 0
    assert doc["status"] == "claims-not-universal"
    claims = doc["results"][0]["theorem_claims"]
    assert claims["b_XY2_order_3_in_cminus"]["status"] == "holds-in-some"


@pytest.mark.parametrize("name", list(ModelConstraints.__dataclass_fields__))
def test_model_check_every_drop_is_a_finding_not_a_fault(capsys, name):
    code, doc = run_json(capsys, "model-check", "--drop", name)
    assert code == 0
    rec = doc["results"][0]
    assert rec["constraints"][name] is False
    universal = all(v["status"] == "holds-universally" for v in rec["theorem_claims"].values())
    assert doc["status"] == ("ok" if universal else "claims-not-universal")


def test_model_check_unrelaxed_claims_not_universal_is_a_mismatch(capsys, monkeypatch):
    relaxed = full_report(ModelConstraints(dihedral_relation=False))
    monkeypatch.setattr("purecubic.cli.full_report", lambda c: relaxed)
    code, doc = run_json(capsys, "model-check")
    assert code == 1
    assert doc["status"] == "mismatch"


def test_model_check_verifier_disagreement_is_a_mismatch_row(capsys, monkeypatch, tmp_path):
    saved = tmp_path / "report.json"
    assert run(capsys, "model-check", "--out", str(saved))[0] == 0
    assert json.loads(saved.read_text())["model_count"] > 0  # an earlier run's report
    monkeypatch.setattr("purecubic.galoismodel.verify_model", lambda m, c: False)
    code, out = run(capsys, "model-check", "--out", str(saved))
    assert code == 1
    doc = json.loads(out)  # a report document, not a traceback
    assert doc["status"] == "mismatch"
    rec = doc["results"][0]
    assert rec["status"] == "mismatch"
    assert "enumeration filter and verifier disagree" in rec["reason"]
    assert rec["constraints"]["dihedral_relation"] is True
    assert json.loads(saved.read_text()) == rec  # the mismatch replaced the old report


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
    for p in ("4", "5"):  # not prime; prime but not 1 mod 3
        assert main(["symbols", "--p", p]) == 2
    for budget in ("nan", "NaN", "-nan", "x"):
        # a NaN budget would never reach any deadline; "--budget -nan" would
        # be refused as a missing value before the budget parser saw it
        with pytest.raises(SystemExit) as exc:
            main([f"--budget={budget}", "classgroup", "--d", "199"])
        assert exc.value.code == 2
        assert f"not a number of seconds: {budget!r}" in capsys.readouterr().err
    for budget in ("inf", "-inf", "1e400", "-1"):
        # an infinite budget would reach the JSON document as `Infinity`,
        # which a strict parser refuses
        with pytest.raises(SystemExit) as exc:
            main([f"--budget={budget}", "classgroup", "--d", "7"])
        assert exc.value.code == 2
        assert f"not a finite budget of 0 seconds or more: {budget!r}" in capsys.readouterr().err


def test_unreadable_cache_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"p": 19}\nnot json\n{"p": 37}\n')
    code = main(["--cache", str(bad), "scan", "--max-p", "100"])
    assert code == 2


@pytest.mark.parametrize("line", [
    '{"x": 1}', "[1]", '{"p": true}', '{"p": 19.0}', '{"p": "19"}',
    '{"p": 19, "u": 1, "u_provenance": "default-assumption", "tool_version": "0.1.0"}',
])
def test_cache_line_that_is_not_a_record_is_usage_error(capsys, tmp_path, line):
    # valid JSON, but not an object with an integer p, or a record without
    # every key that scan_record writes: one with today's u and version
    # would be reused as it stands and fail the scan later
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    code = main(["--cache", str(bad), "scan", "--max-p", "100"])
    assert code == 2
    assert "cannot read cache" in capsys.readouterr().err
    assert bad.read_text() == line + "\n"  # refused, not truncated or appended to


def test_symbols_at_a_61_bit_prime(capsys):
    # the Mersenne prime 2^61 - 1: no step may scan anything of size sqrt(p)
    p = 2**61 - 1
    code, doc = run_json(capsys, "symbols", "--p", str(p))
    assert code == 0
    rec = doc["results"][0]
    assert rec["three_symbol_trivial"] == (pow(3, (p - 1) // 3, p) == 1)
    assert rec["zeta_is_norm"] == (p % 9 == 1)
    assert norm(Eisenstein(*rec["pi1"])) == p


EMIT_RUNS = (
    ("scan", "--max-p", "2000"),
    ("scan", "--keep-all", "--max-p", "2000"),
    ("symbols", "--p", "8821"),
    ("split", "--d", "10", "--q", "3"),
    ("classgroup", "--d", "199"),
    ("model-check",),
    ("model-check", "--drop", "cplus_cyclic_9"),
    ("table1", "--primes", "199"),
)


def _json_reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=list)


@pytest.mark.parametrize("argv", EMIT_RUNS, ids=" ".join)
def test_emit_writes_the_bytes_of_json_dumps(capsys, monkeypatch, argv):
    docs = []

    def spy(doc, as_csv):
        docs.append(doc)
        return emit(doc, as_csv)

    monkeypatch.setattr(cli, "emit", spy)
    main(list(argv))
    assert docs
    for doc in docs:
        assert emit(doc, False) == _json_reference(doc)
    assert capsys.readouterr().out == emit(docs[-1], False) + "\n"


def test_emit_of_nested_and_odd_values():
    doc = {
        "results": [
            {"empty": [], "nested": [[1, [2, []]], {"k": ()}], "t": (1, 2.5)},
            [{}, [None, True, False], {"z": {"y": [0.1, -1e300, float("inf")]}}],
            (x for x in (1, 2)),  # not JSON: written through default=list
            "",
        ],
        "text": "Zeta \u03b6 \u00e9\n\"q\"",
        "none": None,
        "keys": {2: [1], 1.5: {"a": [1]}, False: [[]], 0.5: {3: "x", 4.5: None, True: 1}},
        "floats": [1.0, 1e-7, float("nan")],
        "outer": {"inner": {"deep": [[], {}, [[]]]}, "flat": {"a": 1, "b": "x"}},
    }
    # a generator is used up by one encoding, so the reference sees its own copy
    ref = dict(doc, results=doc["results"][:2] + [[1, 2]] + doc["results"][3:])
    assert emit(doc, False) == _json_reference(ref)
    for part in ref.values():
        assert emit({"x": part}, False) == _json_reference({"x": part})
    assert emit({}, False) == "{}"
    for bad in ({1: 1, "a": 1}, {"a": {(1,): [1]}}):  # keys json.dumps refuses too
        with pytest.raises(TypeError):
            _json_reference(bad)
        with pytest.raises(TypeError):
            emit(bad, False)


def test_emit_of_lists_of_flat_records():
    # a list of records goes through one encoder call whose separators are
    # rewritten; strings that look like those separators must survive
    tricky = ["},", "{", "}, {", '"q"', "back\\slash", "\u03b6 \u00e9", "},\n    {", "[]", ""]
    records = [
        {"p": 19, "s": tricky[0], "empty": [], "none": None},
        {"a": tricky[1], "b": {}, "c": 2.5, "d": True},
        {"t": tricky[2], "u": tricky[3]},
        {"v": tricky[4], "w": tricky[5], "x": tricky[6], "y": tricky[7], "z": tricky[8]},
        {"only": 1},
        {2: "int key", 1.5: -1, False: 0},
    ]
    lists = [[1, "},"], ["{", [], {}], [None], ["\\", '"']]
    shapes = [
        records,
        records[:1],
        lists,
        records[:2] + lists[:2],  # dicts and lists mixed
        records[:2] + [{}] + records[2:],  # an empty container among the items
        records[:2] + [[]],
        [records[0], {"nested": [1]}],  # a record with a value that is not flat
        tuple(records),
        records * 11,  # 66 records: more than one encoder call
    ]
    for shape in shapes:
        for wrapped in (shape, {"x": shape}, {"x": {"y": shape}}, {"x": [{"y": shape}, 1]}):
            assert emit(wrapped, False) == _json_reference(wrapped), wrapped


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


def test_u_outside_1_and_3_is_usage_error(capsys, tmp_path):
    # a unit index u other than 1 or 3 is refused with the file, before any
    # command runs: not an internal error, and never written into a record
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"records": [{"p": 199, "u": 2, "provenance": "typo"}]}))
    for argv in (["classgroup", "--d", "199"], ["scan", "--max-p", "200"],
                 ["table1", "--primes", "199"]):
        assert main(["--u-file", str(ufile), *argv]) == 2, argv
        assert "cannot read u assignments" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("u", 1.9), ("u", True), ("p", 487.7)])
def test_u_file_value_that_is_not_an_integer_is_usage_error(capsys, tmp_path, field, value):
    # int() would have read these as u = 1, u = 1 and p = 487
    record = {"p": 487, "u": 1, "provenance": "typo", field: value}
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"records": [record]}))
    for argv in (["classgroup", "--d", "7"], ["scan", "--max-p", "100"],
                 ["table1", "--primes", "487"], ["split", "--d", "2", "--q", "5"],
                 ["symbols", "--p", "199"], ["model-check", "--drop", "x"]):
        assert main(["--u-file", str(ufile), *argv]) == 2, argv
        assert "JSON integers" in capsys.readouterr().err


@pytest.mark.parametrize("records,message", [
    # the second record would have replaced the first, its null read as 'None'
    ([{"p": 487, "u": 1, "provenance": "a"}, {"p": 487, "u": 3, "provenance": None}],
     "JSON string"),
    ([{"p": 487, "u": 1, "provenance": "a"}, {"p": 487, "u": 3, "provenance": "b"}],
     "listed twice"),
    ([{"p": 487, "u": 1, "provenance": 7}], "JSON string"),
])
def test_u_file_with_a_repeated_p_or_a_provenance_that_is_not_a_string_is_usage_error(
        capsys, tmp_path, records, message):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"records": records}))
    for argv in (["classgroup", "--d", "7"], ["scan", "--max-p", "100"],
                 ["table1", "--primes", "487"], ["split", "--d", "2", "--q", "5"],
                 ["symbols", "--p", "199"], ["model-check", "--drop", "x"]):
        assert main(["--u-file", str(ufile), *argv]) == 2, argv
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-5", "x"])
def test_threads_below_one_is_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "scan", "--max-p", "100"])
    assert exc.value.code == 2


def test_scan_pool_is_at_most_one_thread_per_cpu(capsys, monkeypatch):
    # a serial stand-in records the pool size: no thread is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _, serial = run_json(capsys, "scan", "--max-p", "400")
    assert sizes == []
    _, pooled = run_json(capsys, "--threads", "100000", "scan", "--max-p", "400")
    assert sizes == [4]
    assert pooled["inputs"]["threads"] == 100000
    strip = lambda rs: [{k: v for k, v in r.items() if k != "timestamp"} for r in rs]
    assert strip(pooled["results"]) == strip(serial["results"])
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_json(capsys, "--threads", "100000", "scan", "--max-p", "400")
    assert sizes == [4]  # one CPU assumed: no pool


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # an internal ValueError or ArithmeticError is never a usage error or a
    # traceback: the table1 predicates run outside its class-group `try`
    cases = [
        ("cli.class_group", ValueError, ["classgroup", "--d", "7"]),
        ("symbols._residue_exponent", ArithmeticError, ["symbols", "--p", "199"]),
        ("symbols._residue_exponent", ValueError, ["symbols", "--p", "199"]),
        ("cli.classify", ArithmeticError, ["split", "--d", "7", "--q", "5"]),
        ("symbols._residue_exponent", ArithmeticError, ["table1", "--primes", "199"]),
    ]
    for name, error, argv in cases:
        def fault(*args, **kwargs):
            raise error("lattice dimension must be positive")

        with monkeypatch.context() as m:
            m.setattr(f"purecubic.{name}", fault)
            assert main(argv) == 3, argv
        assert "internal error: lattice dimension must be positive" in capsys.readouterr().err


_NO_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from purecubic.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _without_timestamps(doc):
    for rec in doc["results"]:
        rec.pop("timestamp", None)
    return doc


@pytest.mark.parametrize("argv", [
    ["classgroup", "--d", "199"],
    ["table1", "--primes", "199"],
    ["scan", "--max-p", "2000"],
    ["split", "--d", "60", "--q", "7"],
    ["symbols", "--p", "8821"],
    ["model-check"],
], ids=" ".join)
def test_commands_run_without_sympy(capsys, argv):
    # no desk-scale command loads sympy: a fresh interpreter that cannot
    # import it gives the answer of a normal run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert _without_timestamps(json.loads(proc.stdout)) == _without_timestamps(doc)
