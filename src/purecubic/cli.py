"""Command-line surface: prime scans, table reproduction, per-object reports.

Every subcommand emits one report document with the same top-level shape
{tool_version, command, inputs, results, status} as JSON (default) or
flattened CSV.  Exit codes: 0 success, 1 verification mismatch, 2 usage
or environment error, 3 internal error.  A `model-check --drop` run whose
theorem claims are not universal is a finding of the sensitivity
analysis, not a fault: status `claims-not-universal`, exit 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict
from importlib import resources
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .cache import ResultCache
from .classgroup import BudgetExhausted, class_group, decide_k_structure
from .cubicfield import PureCubicField, brute_split, classify, split_in_gamma, split_in_k
from .eisenstein import LAMBDA, NotSplitPrime
from .galoismodel import ModelConstraints, full_report
from .primes import isprime, primerange
from .symbols import prime_symbols

TABLE1_PRIMES = (
    199, 487, 1297, 1693, 1747, 1999, 2017, 2143, 2377, 2467, 2593, 2917,
    3511, 3673, 3727, 4159, 4519, 4591, 4789, 5347, 5437, 6949, 8209, 8821,
)


# (results, status) of one subcommand; main exits 1 exactly on "mismatch"
Report = Tuple[List[Dict[str, Any]], str]


def load_u_assignments(path: Optional[str] = None) -> Dict[int, Tuple[int, str]]:
    if path is None:
        raw = resources.files("purecubic.data").joinpath("u_values.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    u_map = {}
    for r in json.loads(raw)["records"]:
        p, u = r["p"], r["u"]
        if any(type(x) is not int for x in (p, u)):
            raise ValueError(f"p and u must be JSON integers, not {p!r} and {u!r}")
        if u not in (1, 3):
            raise ValueError(f"p = {p}: u must be 1 or 3, not {u}")
        prov = r["provenance"]
        if type(prov) is not str:
            raise ValueError(f"p = {p}: provenance must be a JSON string, not {prov!r}")
        if p in u_map:
            raise ValueError(f"p = {p} is listed twice")
        u_map[p] = (u, prov)
    return u_map


def _u_for(u_map: Dict[int, Tuple[int, str]], p: int) -> Tuple[int, str]:
    """(u, provenance) for p; u = 1 is assumed for a prime the file does not list."""
    return u_map.get(p, (1, "default-assumption"))


_stamp: Tuple[int, str] = (-1, "")


def _timestamp() -> str:
    """The current UTC time to the second, as scan records write it; the
    string is formatted once per second, not once per record.  `_stamp`
    is replaced whole, so a scan thread reads a second and its own text."""
    global _stamp
    now = int(time.time())
    second, text = _stamp
    if second != now:
        text = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now))
        _stamp = (now, text)
    return text


def scan_record(p: int, u_map: Dict[int, Tuple[int, str]]) -> Dict[str, Any]:
    sym = prime_symbols(p)
    u, prov = _u_for(u_map, p)
    return {
        "p": p,
        "p_mod9": p % 9,
        "three_symbol_trivial": sym.three.is_trivial(),
        "h_gamma": "unknown",
        "h_gamma3_divisors": [],
        "u": u,
        "u_provenance": prov,
        "k_type": "undetermined",
        "ambiguous_order": sym.ambiguous_order,
        "timestamp": _timestamp(),
        "tool_version": __version__,
    }


def cmd_scan(args, u_map) -> Report:
    if args.max_p < 19:
        raise UsageError("--max-p must be at least 19")
    cache = ResultCache(args.cache) if args.cache else None
    known: Dict[int, Dict[str, Any]] = {}
    if cache is not None:
        keys = scan_record(19, {}).keys()  # the keys every scan record has
        try:
            for rec in cache.load():
                if type(rec) is not dict or type(rec.get("p")) is not int:
                    raise ValueError(f"not a record with an integer p: {rec!r}")
                missing = keys - rec.keys()
                if missing:
                    raise ValueError(f"record for p = {rec['p']} lacks {sorted(missing)}")
                known[rec["p"]] = rec
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read cache: {e}")
    # an odd prime = 1 (mod 9) is 1 (mod 18): 19, 37, 73, ...; the sieve
    # picks them, and split_primaries in scan_record proves each computed one
    candidates = [p for p in primerange(19, args.max_p + 1) if p % 18 == 1]

    def compute(p: int) -> Dict[str, Any]:
        # a cached record is reused only if it carries the u and the version
        # that scan_record would write now; a prime not in the cache goes
        # straight to scan_record, which looks its u up
        rec = known.get(p)
        if rec is not None and (rec.get("u"), rec.get("u_provenance"), rec.get("tool_version")) == (
            *_u_for(u_map, p), __version__
        ):
            return rec
        return scan_record(p, u_map)

    workers = min(args.threads, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(compute, candidates))
    else:
        records = [compute(p) for p in candidates]
    # every record computed now is cached, whatever the predicate keeps
    new = [r for r in records if known.get(r["p"]) is not r]
    if cache is not None and new:
        try:
            cache.append(*new)
        except OSError as e:
            raise UsageError(f"cannot write cache: {e}")
    # default predicate: keep primes whose rational 3-symbol is nontrivial
    if not args.keep_all:
        records = [r for r in records if not r["three_symbol_trivial"]]
    return records, "ok"


def cmd_table1(args, u_map) -> Report:
    primes = TABLE1_PRIMES
    if args.primes:
        primes = tuple(args.primes)
        bad = [p for p in primes if p not in TABLE1_PRIMES]
        if bad:
            raise UsageError(f"not table rows: {bad}")
        repeated = sorted({p for p in primes if primes.count(p) > 1})
        if repeated:
            raise UsageError(f"--primes lists {repeated} more than once")
    deadline = time.monotonic() + args.budget
    results = []
    any_mismatch = False
    for p in primes:
        u, prov = _u_for(u_map, p)
        sym = prime_symbols(p)
        row: Dict[str, Any] = {
            "p": p, "u": u, "u_provenance": prov, "ambiguous_order": sym.ambiguous_order
        }
        problems = []
        if p % 9 != 1:
            problems.append("p not 1 mod 9")
        if sym.three.is_trivial():
            problems.append("3 is a cubic residue")
        # the expected type (9,3) forces h_k3 = 27 = (u/3)*81, i.e. u = 1
        if u != 1:
            problems.append(f"u={u} incompatible with type (9,3)")
        if problems:
            row["status"] = "mismatch"
            row["problems"] = problems
            any_mismatch = True
        else:
            try:
                cg = class_group(classify(p), budget_seconds=deadline - time.monotonic())
                row["h_gamma"] = cg.h
                row["h_gamma3_divisors"] = list(cg.p3_type)
                row["h_certified"] = cg.certified
                rep = decide_k_structure(cg, u=u)
                row["k_type"] = rep.k_type
                if rep.k_type != "(9,3)":
                    row["status"] = "mismatch"
                    any_mismatch = True
                else:
                    row["status"] = "ok"
            except BudgetExhausted as e:
                row["status"] = "unverified"
                row["problems"] = [str(e)]
            except ArithmeticError as e:
                row["status"] = "mismatch"
                row["reason"] = str(e)
                any_mismatch = True
        results.append(row)
    return results, "mismatch" if any_mismatch else "ok"


def _classify_arg(d: int) -> PureCubicField:
    """classify(d) for a --d argument; a d that names no pure cubic field is a usage error."""
    try:
        return classify(d)
    except ValueError as e:
        raise UsageError(f"--d {d}: {e}")


def cmd_split(args, u_map) -> Report:
    F = _classify_arg(args.d)
    q = args.q
    if not isprime(q):
        raise UsageError("--q must be prime")
    gamma = split_in_gamma(F, q)
    res: Dict[str, Any] = {
        "d": args.d,
        "q": q,
        "kind": F.kind,
        "gamma_pattern": list(gamma.pairs),
        "k_pattern": list(split_in_k(F, q).pairs),
    }
    if (3 * F.b) % q != 0:
        oracle = brute_split(F, q)
        res["oracle_pattern"] = list(oracle.pairs)
        res["oracle_agrees"] = oracle == gamma
        if not res["oracle_agrees"]:
            return [res], "mismatch"
    return [res], "ok"


def cmd_symbols(args, u_map) -> Report:
    p = args.p
    try:
        sym = prime_symbols(p)  # split_primaries proves p prime, once
    except NotSplitPrime:
        raise UsageError("--p must be a prime congruent to 1 mod 3")
    res = {
        "p": p,
        "p_mod9": p % 9,
        "three_symbol_exponent": sym.three.e,
        "three_symbol_trivial": sym.three.is_trivial(),
        "lambda_symbol_exponent": sym.residue(LAMBDA).e,
        "zeta_is_norm": sym.zeta_is_norm,
        "ambiguous_order": sym.ambiguous_order,
        "pi1": [sym.pi1.a, sym.pi1.b],
        "pi2": [sym.pi2.a, sym.pi2.b],
    }
    return [res], "ok"


def cmd_classgroup(args, u_map) -> Report:
    F = _classify_arg(args.d)
    try:
        cg = class_group(F, budget_seconds=args.budget)
    except BudgetExhausted as e:
        return [{"d": args.d, "status": "unverified", "reason": str(e)}], "unverified"
    except ArithmeticError as e:
        return [{"d": args.d, "status": "mismatch", "reason": str(e)}], "mismatch"
    res: Dict[str, Any] = {
        "d": args.d,
        "kind": F.kind,
        "disc": F.disc,
        "h": cg.h,
        "divisors": list(cg.divisors),
        "h3": cg.h3,
        "p3_type": list(cg.p3_type),
        "certified": cg.certified,
    }
    if args.d % 9 == 1 and isprime(args.d):
        u, prov = _u_for(u_map, args.d)
        rep = decide_k_structure(cg, u=u)
        res["u"] = u
        res["u_provenance"] = prov
        res["h_k3"] = rep.h_k3
        res["k_type"] = rep.k_type
    return [res], "ok"


def cmd_model_check(args, u_map) -> Report:
    toggles = {f: True for f in ModelConstraints.__dataclass_fields__}
    for name in args.drop or []:
        if name not in toggles:
            raise UsageError(f"unknown constraint: {name}")
        toggles[name] = False
    constraints = ModelConstraints(**toggles)

    def save(doc: Dict[str, Any]) -> None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(emit(doc, as_csv=False) + "\n")

    try:
        rep = full_report(constraints)
    except ArithmeticError as e:
        row = {"constraints": asdict(constraints), "status": "mismatch", "reason": str(e)}
        save(row)  # never leave an earlier run's report in --out
        return [row], "mismatch"
    doc: Dict[str, Any] = {
        "constraints": asdict(rep.constraints),
        "model_count": rep.model_count,
        "frame_counts": list(rep.frame_counts),
        "explicit_model_present": rep.explicit_model_present,
        "prop_claims": {k: asdict(v) for k, v in rep.prop_claims.items()},
        "theorem_claims": {k: asdict(v) for k, v in rep.theorem_claims.items()},
    }
    universal = rep.model_count > 0 and all(
        v.status == "holds-universally" for v in rep.theorem_claims.values()
    )
    save(doc)
    if universal:
        return [doc], "ok"
    # a relaxed constraint set exists to show which claims stop holding
    if args.drop:
        return [doc], "claims-not-universal"
    return [doc], "mismatch"


class UsageError(Exception):
    pass


def _budget_arg(s: str) -> float:
    """A --budget in seconds, finite and at least 0.  NaN is refused: it
    compares false with every deadline.  So is an infinite budget, which
    the JSON document would carry as `Infinity`, and that is not JSON."""
    try:
        budget = float(s)
    except ValueError:
        budget = float("nan")
    if budget != budget:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {s!r}")
    if not 0 <= budget < float("inf"):
        raise argparse.ArgumentTypeError(f"not a finite budget of 0 seconds or more: {s!r}")
    return budget


def _threads_arg(s: str) -> int:
    """A --threads count: at least 1; the scan pool is also capped at one thread per CPU."""
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive thread count: {s!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="purecubic",
        description="Exact arithmetic for pure cubic fields and their sextic closures",
    )
    ap.add_argument("--cache", default=None, help="JSON-lines result cache path")
    ap.add_argument("--budget", type=_budget_arg, default=60.0, help="time budget in seconds")
    ap.add_argument("--csv", action="store_true", help="CSV output (flattened records) instead of JSON")
    ap.add_argument("--threads", type=_threads_arg, default=1)
    ap.add_argument("--u-file", default=None, help="override the bundled u-assignment file")
    sub = ap.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan primes p = 1 mod 9 for the symbol predicate")
    p_scan.add_argument("--max-p", type=int, required=True)
    p_scan.add_argument("--keep-all", action="store_true",
                        help="keep rows where 3 is a cubic residue too")
    p_scan.set_defaults(func=cmd_scan)

    p_t1 = sub.add_parser("table1", help="verify the 24 catalogued primes")
    p_t1.add_argument("--primes", type=int, nargs="+", default=None,
                      help="restrict to a subset of the catalogued primes")
    p_t1.set_defaults(func=cmd_table1)

    p_split = sub.add_parser("split", help="splitting of a prime in the cubic field and closure")
    p_split.add_argument("--d", type=int, required=True)
    p_split.add_argument("--q", type=int, required=True)
    p_split.set_defaults(func=cmd_split)

    p_sym = sub.add_parser("symbols", help="cubic symbols and the norm test at one prime")
    p_sym.add_argument("--p", type=int, required=True)
    p_sym.set_defaults(func=cmd_symbols)

    p_cg = sub.add_parser("classgroup", help="class group of Q(cbrt d)")
    p_cg.add_argument("--d", type=int, required=True)
    p_cg.set_defaults(func=cmd_classgroup)

    p_mc = sub.add_parser("model-check", help="exhaustive generator-claim verification")
    p_mc.add_argument("--drop", action="append", default=None,
                      help="disable one named model constraint (repeatable)")
    p_mc.add_argument("--out", default=None, help="write the report document here")
    p_mc.set_defaults(func=cmd_model_check)
    return ap


def _flatten(record: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for k, v in record.items():
        out[k] = json.dumps(v) if isinstance(v, (list, dict)) else v
    return out


_SCALARS = (str, int, float, type(None))
_ENCODER = json.JSONEncoder(sort_keys=True)
_FLAT_ENCODERS: Dict[int, json.JSONEncoder] = {}
# the C encoder holds every chunk of one call until it joins them, about
# five times the text; batches keep that to the size of the records
# themselves, at the speed of a single call
_RECORDS_PER_CALL = 32


def _flat(v: Any) -> bool:
    """Whether v prints on one line under `indent=2`: a scalar or an empty container."""
    return isinstance(v, _SCALARS) or (isinstance(v, (dict, list, tuple)) and not v)


def _json_key(k: Any) -> str:
    """A dict key as `json` writes it: str, or a scalar converted to str."""
    if isinstance(k, str):
        return k
    if isinstance(k, _SCALARS):
        return _ENCODER.encode(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder that writes a container of flat values at `depth` in
    one call: its item separator carries the newline and the indent."""
    enc = _FLAT_ENCODERS.get(depth)
    if enc is None:
        pad = "\n" + "  " * (depth + 1)
        enc = _FLAT_ENCODERS[depth] = json.JSONEncoder(sort_keys=True, separators=("," + pad, ": "))
    return enc


def _flat_record(v: Any) -> bool:
    """Whether v is a non-empty dict of flat values."""
    return isinstance(v, dict) and bool(v) and all(map(_flat, v.values()))


def _indented(o: Any, depth: int) -> str:
    """`json.dumps(o, indent=2, sort_keys=True, default=list)` for o printed
    at nesting depth `depth`.  The indenting encoder is pure Python; two
    shapes go through the C encoder instead:

    - a container whose items are all flat, in one call, with the
      newline and the indent in its item separator;
    - a list of records (non-empty dicts of flat values), such as a scan's
      results, encoded `_RECORDS_PER_CALL` records per call with the
      records' item separator.  A raw newline occurs in no encoded
      string, and inside a record the separator is always followed by a
      key, never by "{", so "}" + separator + "{" is exactly the
      boundary between two records: the text is split there and joined
      again with the list's own separator.
    """
    if isinstance(o, _SCALARS):
        return _ENCODER.encode(o)
    if not isinstance(o, (dict, list, tuple)):
        return _indented(list(o), depth)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    pad = "\n" + "  " * (depth + 1)
    values = o.values() if isinstance(o, dict) else o
    if all(map(_flat, values)):
        body = _flat_encoder(depth).encode(o)
        return body[0] + pad + body[1:-1] + pad[:-2] + body[-1]
    if isinstance(o, dict):
        items = [
            _ENCODER.encode(_json_key(k)) + ": " + _indented(v, depth + 1)
            for k, v in sorted(o.items())
        ]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if all(map(_flat_record, o)):
        inner = pad + "  "
        enc = _flat_encoder(depth + 1)
        records: List[str] = []
        for i in range(0, len(o), _RECORDS_PER_CALL):
            records += enc.encode(o[i:i + _RECORDS_PER_CALL])[2:-2].split("}," + inner + "{")
        sep = pad + "}," + pad + "{" + inner
        return "[" + pad + "{" + inner + sep.join(records) + pad + "}" + pad[:-2] + "]"
    items = [_indented(v, depth + 1) for v in o]
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def emit(doc: Dict[str, Any], as_csv: bool) -> str:
    if not as_csv:
        return _indented(doc, 0)
    rows = [_flatten(r) for r in doc["results"]]
    fields: List[str] = []
    for r in rows:
        for k in r:
            if k not in fields:
                fields.append(k)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue().rstrip("\n")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        try:
            u_map = load_u_assignments(args.u_file)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise UsageError(f"cannot read u assignments: {type(e).__name__}: {e}")
        results, status = args.func(args, u_map)
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    doc = {
        "tool_version": __version__,
        "command": args.command,
        "inputs": {
            k: v for k, v in vars(args).items()
            if k not in ("func", "csv") and not callable(v)
        },
        "results": results,
        "status": status,
    }
    print(emit(doc, as_csv=args.csv))
    return 1 if status == "mismatch" else 0


if __name__ == "__main__":
    sys.exit(main())
