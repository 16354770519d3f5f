"""Cubic residue and Hilbert symbols: laws, norm tests, consistency."""

import random
import sys

import pytest
import sympy
from sympy import isprime, primerange

from purecubic import eisenstein
from purecubic.eisenstein import (
    Eisenstein,
    LAMBDA,
    ZETA,
    gcd,
    is_primary,
    norm,
    primary_associate,
    split_primaries,
)
from purecubic.symbols import (
    CubeRoot,
    TRIVIAL,
    cubic_residue,
    cubic_residue_rational,
    hilbert_lambda,
    hilbert_tame,
    norm_compatibility_check,
    prime_symbols,
    reciprocity_check,
    zeta_norm_test,
)


def test_cube_root_group():
    assert CubeRoot(1) * CubeRoot(2) == TRIVIAL
    assert CubeRoot(2) ** 2 == CubeRoot(1)
    assert CubeRoot(1).inverse() == CubeRoot(2)
    assert CubeRoot(5) == CubeRoot(2)


def test_cubic_residue_matches_cubes_mod_p():
    for p in (7, 13, 19, 31, 37):
        pi1, _ = split_primaries(p)
        cubes = {pow(x, 3, p) for x in range(1, p)}
        for c in range(1, p):
            sym = cubic_residue(Eisenstein(c, 0), pi1)
            assert sym.is_trivial() == (c in cubes)


def test_cubic_residue_multiplicative():
    pi1, _ = split_primaries(103)
    rng = random.Random(7)
    for _ in range(50):
        x = Eisenstein(rng.randint(-20, 20), rng.randint(-20, 20))
        y = Eisenstein(rng.randint(-20, 20), rng.randint(-20, 20))
        if norm(x) % 103 == 0 or norm(y) % 103 == 0 or x.is_zero() or y.is_zero():
            continue
        assert cubic_residue(x * y, pi1) == cubic_residue(x, pi1) * cubic_residue(y, pi1)


def test_cubic_residue_inert_place():
    # residue field F_25; cubing is not surjective, symbol well defined
    _, prim5 = primary_associate(Eisenstein(5, 0))
    assert cubic_residue(Eisenstein(2, 0), prim5) ** 3 == TRIVIAL
    vals = {cubic_residue(Eisenstein(c, d), prim5).e
            for c in range(5) for d in range(5)
            if norm(Eisenstein(c, d)) % 5 != 0}
    assert vals == {0, 1, 2}


def _random_units(rng, pi, p):
    while True:
        z = Eisenstein(rng.randint(-15, 15), rng.randint(-15, 15))
        if not z.is_zero() and norm(z) % p != 0 and norm(z) % 3 != 0:
            return z


def test_hilbert_tame_bimultiplicative_antisymmetric():
    rng = random.Random(11)
    pi1, _ = split_primaries(61)
    for _ in range(60):
        a = _random_units(rng, pi1, 61)
        b = _random_units(rng, pi1, 61)
        c = _random_units(rng, pi1, 61)
        left = hilbert_tame(a * b, c, pi1)
        assert left == hilbert_tame(a, c, pi1) * hilbert_tame(b, c, pi1)
        assert hilbert_tame(a, b * c, pi1) == hilbert_tame(a, b, pi1) * hilbert_tame(a, c, pi1)
        assert hilbert_tame(a, b, pi1) * hilbert_tame(b, a, pi1) == TRIVIAL


def test_hilbert_tame_valuation_formula():
    pi1, _ = split_primaries(7)
    # (pi, b) with b a unit at pi picks out the residue symbol of b
    b = Eisenstein(2, 0)
    assert hilbert_tame(pi1, b, pi1) == cubic_residue(b, pi1).inverse()
    assert hilbert_tame(b, pi1, pi1) == cubic_residue(b, pi1)


def test_reciprocity_on_primary_primes():
    primaries = []
    for p in primerange(5, 150):
        if p % 3 == 1:
            primaries.extend(split_primaries(p))
        elif p % 3 == 2:
            primaries.append(primary_associate(Eisenstein(p, 0))[1])
    for i, x in enumerate(primaries):
        for y in primaries[i + 1:]:
            if norm(gcd(x, y)) != 1:
                continue
            assert reciprocity_check(x, y)


def test_hilbert_lambda_product_formula_by_construction():
    rng = random.Random(5)
    for _ in range(30):
        a = Eisenstein(rng.randint(-10, 10), rng.randint(-10, 10))
        b = Eisenstein(rng.randint(-10, 10), rng.randint(-10, 10))
        if a.is_zero() or b.is_zero():
            continue
        total = hilbert_lambda(a, b)
        from purecubic.symbols import _tame_support

        seen = {}
        for pi in _tame_support(a) + _tame_support(b):
            seen[(pi.a, pi.b)] = pi
        for pi in seen.values():
            total = total * hilbert_tame(a, b, pi)
        assert total == TRIVIAL


def test_zeta_norm_test_matches_congruence():
    for p in primerange(7, 2000):
        if p % 3 != 1:
            continue
        assert zeta_norm_test(p) == (p % 9 == 1)


def test_lambda_three_consistency():
    for p in primerange(19, 2000):
        if p % 9 != 1:
            continue
        pi1, _ = split_primaries(p)
        assert cubic_residue_rational(3, p).is_trivial() == cubic_residue(LAMBDA, pi1).is_trivial()


def test_norm_compatibility_split_place():
    from purecubic.cubicfield import classify

    F = classify(2)
    checked = 0
    for p in primerange(7, 400):
        if p % 3 != 1 or pow(2, (p - 1) // 3, p) != 1:
            continue
        pi1, _ = split_primaries(p)
        for coords in ((1, 1, 0), (2, 1, 1), (1, 0, 3)):
            try:
                assert norm_compatibility_check(coords, Eisenstein(p, 0), pi1, F)
                checked += 1
            except ValueError:
                continue  # a not a unit at some place above pi
    assert checked >= 5


def test_norm_compatibility_rejects_non_field():
    pi1, _ = split_primaries(7)
    with pytest.raises(TypeError):
        norm_compatibility_check((1, 1, 0), Eisenstein(7, 0), pi1, 2)


def test_symbol_argument_validation():
    pi1, _ = split_primaries(7)
    with pytest.raises(ValueError):
        cubic_residue(Eisenstein(7, 0), pi1)  # not coprime
    with pytest.raises(ValueError):
        cubic_residue_rational(3, 5)  # 5 not 1 mod 3
    with pytest.raises(ValueError):
        hilbert_tame(Eisenstein(0, 0), Eisenstein(1, 0), pi1)
    with pytest.raises(ValueError):
        cubic_residue(Eisenstein(2, 0), LAMBDA)  # wild place


def test_rational_entry_points_check_p_only_in_split_primaries(monkeypatch):
    # p is checked once, by split_primaries; every other isprime call is the
    # check of one pi at a local symbol
    counts = {"split_primaries": 0, "isprime": 0}
    targets = (("split_primaries", eisenstein.split_primaries), ("isprime", sympy.isprime))
    for name, target in targets:
        def spy(*args, _target=target, _name=name):
            counts[_name] += 1
            return _target(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("purecubic") and getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, spy)
    for p in (7, 199, 8821, 20011):
        for f, most in ((zeta_norm_test, 3), (lambda p: prime_symbols(p).ambiguous_order, 3),
                        (lambda p: cubic_residue_rational(3, p), 2)):
            counts.update(split_primaries=0, isprime=0)
            f(p)
            assert counts["split_primaries"] == 1, (f, p)
            assert 1 <= counts["isprime"] <= most, (f, p)
