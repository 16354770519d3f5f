"""Cubic residue and Hilbert symbols: laws, norm tests, consistency."""

import random
import sys

import pytest
from sympy import isprime, primerange

from purecubic import eisenstein, primes, symbols
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
    THREE,
    CubeRoot,
    TRIVIAL,
    cubic_residue,
    hilbert_tame,
    norm_compatibility_check,
    prime_symbols,
    reciprocity_check,
    zeta_norm_test,
)


def test_cube_root_group():
    assert CubeRoot(1) * CubeRoot(2) == TRIVIAL
    assert CubeRoot(2) ** 2 == CubeRoot(1)
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
    assert hilbert_tame(pi1, b, pi1) == cubic_residue(b, pi1) ** -1
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


def test_zeta_norm_test_matches_congruence():
    for p in primerange(7, 2000):
        if p % 3 != 1:
            continue
        assert zeta_norm_test(p) == (p % 9 == 1)


def test_lambda_three_consistency():
    for p in primerange(19, 2000):
        if p % 9 != 1:
            continue
        sym = prime_symbols(p)
        assert sym.three.is_trivial() == cubic_residue(LAMBDA, sym.pi1).is_trivial()


def test_prime_symbols_three_is_the_residue_symbol_of_3():
    # (3 / pi1)_3 at every p = 1 (mod 3) below 5000; trivial exactly when
    # 3 is a cube mod p (Euler's criterion)
    for p in primerange(7, 5000):
        if p % 3 != 1:
            continue
        sym = prime_symbols(p)
        assert sym.three == cubic_residue(THREE, sym.pi1), p
        assert sym.three.is_trivial() == (pow(3, (p - 1) // 3, p) == 1), p


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
        prime_symbols(5)  # 5 not 1 mod 3
    with pytest.raises(ValueError):
        hilbert_tame(Eisenstein(0, 0), Eisenstein(1, 0), pi1)
    with pytest.raises(ValueError):
        cubic_residue(Eisenstein(2, 0), LAMBDA)  # wild place


def test_rational_entry_points_check_p_only_in_split_primaries(monkeypatch):
    # p is proved prime once, by split_primaries, and its two places need no
    # second proof; only cubic_residue, which takes an arbitrary pi, checks pi
    counts = {"split_primaries": 0, "isprime": 0}
    targets = (("split_primaries", eisenstein.split_primaries), ("isprime", primes.isprime))
    for name, target in targets:
        def spy(*args, _target=target, _name=name):
            counts[_name] += 1
            return _target(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("purecubic") and getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, spy)
    for p in (7, 199, 8821, 20011):
        for f, calls in ((zeta_norm_test, 1), (lambda p: prime_symbols(p).ambiguous_order, 1),
                         (lambda p: cubic_residue(THREE, eisenstein.split_primaries(p)[0]), 2)):
            counts.update(split_primaries=0, isprime=0)
            f(p)
            assert counts["split_primaries"] == 1, (f, p)
            assert counts["isprime"] == calls, (f, p)


def _places(p):
    pi1, pi2 = split_primaries(p)
    return symbols._split_place(pi1, p), symbols._split_place(pi2, p)


def test_zeta_is_norm_matches_the_hilbert_route_below_200000():
    # (zeta / pi_i)_3, read off the split, is the Hilbert symbol
    # (zeta, p / pi_i)_3 at both places, and zeta is a norm iff p = 1 (mod 9)
    primes = [p for p in primerange(7, 200000) if p % 3 == 1]
    assert len(primes) == 8988
    for p in primes:
        place1, place2 = _places(p)
        pz = Eisenstein(p, 0)
        e1 = symbols._hilbert(ZETA, pz, place1)
        e2 = symbols._hilbert(ZETA, pz, place2)
        assert e1 == symbols._residue_exponent(ZETA, place1), p
        assert e2 == symbols._residue_exponent(ZETA, place2), p
        assert symbols._zeta_is_norm(p, place1, place2) == (e1 == 0 and e2 == 0), p
        assert symbols._zeta_is_norm(p, place1, place2) == (p % 9 == 1), p


def test_zeta_is_norm_reads_both_places():
    # the symbol is the same at both places of one p, so pair places of
    # two primes: a nontrivial symbol at either place alone decides
    norm_places, other_places = _places(19), _places(7)
    assert symbols._zeta_is_norm(19, *norm_places) is True
    for trivial, other in ((norm_places[0], other_places[1]), (norm_places[1], other_places[0])):
        assert symbols._zeta_is_norm(19, trivial, other) is False
        assert symbols._zeta_is_norm(19, other, trivial) is False


def test_zeta_is_norm_refuses_equal_places():
    # pi1 = pi2 would make v_pi(p) = 2, where (zeta / pi)_3 is not the symbol
    for p in (7, 19):
        place1, place2 = _places(p)
        for place in (place1, place2):
            with pytest.raises(ArithmeticError):
                symbols._zeta_is_norm(p, place, place)


def test_zeta_norm_symbols_make_no_valuation_of_p(monkeypatch):
    def refuse(*args):
        raise AssertionError("valuation or divrem called")

    for name in ("valuation", "divrem"):
        target = getattr(eisenstein, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("purecubic") and getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, refuse)
    for p in (7, 19, 199, 8821, 20011, 2**61 - 1):
        assert zeta_norm_test(p) == (p % 9 == 1)
        assert prime_symbols(p).zeta_is_norm == (p % 9 == 1)
    with pytest.raises(AssertionError):  # the spy is in place
        hilbert_tame(ZETA, Eisenstein(7, 0), split_primaries(7)[0])
