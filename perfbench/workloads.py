"""Seeded inputs of the two workloads and the answer each item must give.

An item is one field or one front-end operation (a scan, a split check,
primes above q, a cubic symbol, a model-check report).
Every item calls the package through module attributes at call time, so
the tracer's wrappers see the calls.  Answers are plain JSON data and are
compared with `reference.json`, recorded from this package by
`record_reference.py`; some items also carry an invariant that holds
whatever the reference says (a certified field, the paper's (9,) for
487, split_in_gamma agreeing with brute_split).

Pools are stratified by measured work and each seed draws the same number
of items from every stratum, so every seed costs about the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from purecubic import classgroup, cli, cubicfield, eisenstein, galoismodel, ideals, symbols

WORKLOADS = ("certify", "relations")

# Pools are strata of near-equal work, counted as element norms (the
# oracle's unit of work) for certify and SNF cells for relations; seconds
# are single runs on a 2-core VM, where one field varies by up to 30%.

# certify: fields whose Minkowski bound is at most about 20, so the
# enumeration oracle runs and must certify.  (pool, draws per pass)
CERTIFY_BANDS: Tuple[Tuple[Tuple[int, ...], int], ...] = (
    ((7, 11), 1),  # h = 3, 2; about 210k element norms, 6-7 s
    ((6, 17, 36, 44, 242), 1),  # h = 1; 36k-44k element norms, 1.5 s
    ((3, 9, 10, 12, 18, 25, 100), 1),  # h = 1; 11k-21k element norms, 0.5 s
)

# relations: second-kind fields whose bound lies in (100, 250], above the
# default oracle_bound_limit of 100, so SNF-per-relation does the work.
RELATIONS_ANCHOR = 487  # catalog prime; the paper gives p3_type (9,)
RELATIONS_POOL = (235, 269, 305, 307, 314)  # 260k-400k SNF cells, about 3 s; 487 takes 10 s
RELATIONS_DRAWS = 1
PAPER_P3_TYPE = {487: [9]}

# front end, run in certify's pass after its fields (no class group):
# fields grouped by b (d = a*b^2), which fixes the index-dividing primes
# q | 3b that primes_above handles by scanning O/qO; that scan costs
# about 0.01 s at q = 3 and 0.1 s at q = 7.
FRONT_D_BANDS = (
    (2, 6, 10, 17, 19, 30),  # b = 1
    (4, 12, 20, 28, 44, 60),  # b = 2
    (25, 50, 75, 150, 175, 275),  # b = 5
    (49, 98, 147, 245, 294, 539),  # b = 7
)
FRONT_D_DRAWS = 2  # per band and pass
FRONT_QS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
FRONT_P_RANGE = (7, 30000)  # cubic residue symbols at primes p = 1 mod 3 here
FRONT_P_DRAWS = 300
FRONT_SCAN_MAX_P = (20000, 21000, 22000, 23000)
FRONT_MODEL_DROPS = (None,) + tuple(galoismodel.ModelConstraints.__dataclass_fields__)


@dataclass(frozen=True)
class Item:
    key: str  # unique within a pass; the item's trace id
    ref: str  # key of the expected answer in reference.json
    run: Callable[[], Any]  # calls the package, returns a JSON-able answer
    invariant: Optional[Callable[[Any], bool]] = None


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(item: Item, answer: Any, reference: Dict[str, Any]) -> bool:
    if item.ref not in reference or answer != reference[item.ref]:
        return False
    return item.invariant is None or item.invariant(answer)


# -- item constructors ---------------------------------------------------
def class_group_item(d: int, certify: bool) -> Item:
    def run():
        cg = classgroup.class_group(cubicfield.classify(d))
        return {
            "h": cg.h,
            "divisors": list(cg.divisors),
            "p3_type": list(cg.p3_type),
            "certified": cg.certified,
        }

    def invariant(a):
        return (not certify or a["certified"]) and a["p3_type"] == PAPER_P3_TYPE.get(d, a["p3_type"])

    return Item(f"cg:{d}", f"cg:{d}", run, invariant)


def split_item(d: int, q: int) -> Item:
    def run():
        F = cubicfield.classify(d)
        return {
            "gamma": [list(p) for p in cubicfield.split_in_gamma(F, q).pairs],
            "oracle": [list(p) for p in cubicfield.brute_split(F, q).pairs],
        }

    return Item(f"split:{d}:{q}", f"split:{d}:{q}", run, lambda a: a["gamma"] == a["oracle"])


def primes_item(d: int, q: int) -> Item:
    def run():
        F = cubicfield.classify(d)
        found = sorted([list(P.basis), e, f] for P, e, f in ideals.primes_above(F, q))
        return {"ef": sorted([e, f] for _, e, f in found), "digest": digest(found)}

    return Item(f"primes:{d}:{q}", f"primes:{d}:{q}", run)


def residue_item(p: int) -> Item:
    def run():
        pi1, _ = eisenstein.split_primaries(p)
        return [symbols.cubic_residue(eisenstein.LAMBDA, pi1).e, symbols.zeta_norm_test(p)]

    # independent oracle for the norm test: zeta is a norm iff p = 1 mod 9
    return Item(f"residue:{p}", f"residue:{p}", run, lambda a: a[1] == (p % 9 == 1))


def model_item(drop: Optional[str]) -> Item:
    def run():
        toggles = {} if drop is None else {drop: False}
        rep = galoismodel.full_report(galoismodel.ModelConstraints(**toggles))
        claims = {
            "prop": {k: asdict(v) for k, v in rep.prop_claims.items()},
            "theorem": {k: asdict(v) for k, v in rep.theorem_claims.items()},
        }
        return {
            "models": rep.model_count,
            "frames": sum(rep.frame_counts),
            "explicit": rep.explicit_model_present,
            "claims": digest(claims),
        }

    return Item(f"model:{drop}", f"model:{drop}", run)


def scan_items(workdir: str, max_p: int) -> List[Item]:
    """`purecubic --cache F scan` cold (cache written) then warm (cache read)."""
    path = os.path.join(workdir, "scan-cache.jsonl")

    def scan(cold: bool):
        if cold and os.path.exists(path):
            os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--cache", path, "scan", "--max-p", str(max_p)])
        doc = json.loads(out.getvalue())
        doc["inputs"]["cache"] = "<cache>"
        for rec in doc["results"]:
            del rec["timestamp"]
        return {"code": code, "records": len(doc["results"]), "digest": digest(doc)}

    ref = f"scan:{max_p}"
    return [
        Item(f"scan-cold:{max_p}", ref, lambda: scan(True)),
        Item(f"scan-warm:{max_p}", ref, lambda: scan(False)),
    ]


# -- pools ---------------------------------------------------------------
def _front_primes() -> List[int]:
    from sympy import primerange

    return [p for p in primerange(*FRONT_P_RANGE) if p % 3 == 1]


def _field_ops(d: int) -> List[Item]:
    b = cubicfield.classify(d).b
    ops = []
    for q in FRONT_QS:
        if (3 * b) % q:
            ops.append(split_item(d, q))  # brute_split needs q coprime to 3b
        ops.append(primes_item(d, q))
    return ops


def generate(workload: str, seed: int, workdir: str) -> List[Item]:
    """The items of one pass; the same seed always gives the same items."""
    rng = random.Random(seed)
    if workload == "certify":
        ds = [d for pool, k in CERTIFY_BANDS for d in rng.sample(pool, k)]
        rng.shuffle(ds)
        return [class_group_item(d, certify=True) for d in ds] + _front_end(rng, workdir)
    if workload == "relations":
        ds = [RELATIONS_ANCHOR] + rng.sample(RELATIONS_POOL, RELATIONS_DRAWS)
        rng.shuffle(ds)
        return [class_group_item(d, certify=False) for d in ds]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _front_end(rng: random.Random, workdir: str) -> List[Item]:
    items = scan_items(workdir, rng.choice(FRONT_SCAN_MAX_P))
    for pool in FRONT_D_BANDS:
        for d in rng.sample(pool, FRONT_D_DRAWS):
            items.extend(_field_ops(d))
    items.extend(residue_item(p) for p in rng.sample(_front_primes(), FRONT_P_DRAWS))
    items.extend(model_item(drop) for drop in FRONT_MODEL_DROPS)
    return items


def every_item(workdir: str) -> List[Item]:
    """One item per reference key: every input any seed can draw."""
    items = [class_group_item(d, certify=True) for pool, _ in CERTIFY_BANDS for d in pool]
    items += [class_group_item(d, certify=False) for d in (RELATIONS_ANCHOR,) + RELATIONS_POOL]
    for max_p in FRONT_SCAN_MAX_P:
        items += scan_items(workdir, max_p)[:1]
    items += [op for pool in FRONT_D_BANDS for d in pool for op in _field_ops(d)]
    items += [residue_item(p) for p in _front_primes()]
    items += [model_item(drop) for drop in FRONT_MODEL_DROPS]
    return items
