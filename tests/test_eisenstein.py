"""Arithmetic in Z[zeta]: norms, division, primary normalization, factoring."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from purecubic import eisenstein
from purecubic.eisenstein import (
    Eisenstein,
    LAMBDA,
    UNITS,
    ZETA,
    associates,
    conj,
    divrem,
    factor,
    factor_rational_prime,
    gcd,
    is_primary,
    is_prime_element,
    norm,
    primary_associate,
    split_primaries,
    valuation,
)

elems = st.builds(Eisenstein, st.integers(-40, 40), st.integers(-40, 40))
nonzero = elems.filter(lambda z: not z.is_zero())


@given(elems, elems)
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative(x, y):
    assert norm(x * y) == norm(x) * norm(y)


@given(elems)
@settings(max_examples=100, deadline=None)
def test_conj_is_ring_involution(x):
    assert conj(conj(x)) == x
    assert norm(x) == (x * conj(x)).a
    assert (x * conj(x)).b == 0


@given(elems, nonzero)
@settings(max_examples=150, deadline=None)
def test_divrem_euclidean(x, y):
    q, r = divrem(x, y)
    assert q * y + r == x
    assert norm(r) < norm(y)


@given(nonzero, nonzero)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(x, y):
    g = gcd(x, y)
    for z in (x, y):
        q, r = divrem(z, g)
        assert r.is_zero()


def test_zeta_basics():
    assert ZETA * ZETA * ZETA == Eisenstein(1, 0)
    assert norm(LAMBDA) == 3
    assert len(UNITS) == 6
    assert len(set(UNITS)) == 6


@given(nonzero)
@settings(max_examples=100, deadline=None)
def test_primary_associate_unique(z):
    if norm(z) % 3 == 0:
        return
    u, p = primary_associate(z)
    assert u * p == z or u * z == p  # convention: z = u * p
    assert is_primary(p)
    assert sum(1 for w in associates(z) if is_primary(w)) == 1


def test_split_primaries_examples():
    pi1, pi2 = split_primaries(7)
    assert pi1 == Eisenstein(1, 3)
    assert norm(pi1) == norm(pi2) == 7
    assert is_primary(pi1) and is_primary(pi2)
    # the two are conjugate up to units
    assert norm(gcd(pi1, conj(pi2))) == 7
    pi1_19, pi2_19 = split_primaries(19)
    assert {norm(pi1_19), norm(pi2_19)} == {19}
    assert (pi1_19.a, pi1_19.b) < (pi2_19.a, pi2_19.b)


def test_factor_rational_prime():
    f3 = factor_rational_prime(3)
    assert f3.lambda_exponent == 2
    assert f3.value() == Eisenstein(3, 0)
    f7 = factor_rational_prime(7)
    assert len(f7.primary_primes) == 2
    assert f7.value() == Eisenstein(7, 0)
    f5 = factor_rational_prime(5)
    assert len(f5.primary_primes) == 1
    assert f5.primary_primes[0][0].a % 3 == 1
    assert f5.value() == Eisenstein(5, 0)


@given(nonzero)
@settings(max_examples=60, deadline=None)
def test_factor_reassembles(z):
    assert factor(z).value() == z


def test_valuation():
    pi1, _ = split_primaries(7)
    v, cof = valuation(pi1 * pi1 * Eisenstein(2, 0), pi1)
    assert v == 2
    assert cof * pi1 * pi1 == pi1 * pi1 * Eisenstein(2, 0)


def test_prime_recognition():
    assert is_prime_element(LAMBDA)
    assert is_prime_element(Eisenstein(2, 0))
    assert not is_prime_element(Eisenstein(7, 0))
    assert not is_prime_element(Eisenstein(1, 0))


def test_split_primaries_rejects_inert():
    with pytest.raises(ValueError):
        split_primaries(5)


_UNIT_PAIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


def _reference_split_primaries(p):
    """The canonical pair on plain int pairs: the first norm-form solution
    pi = a + b*zeta with the least a >= 0, its one primary associate, and
    the tie-break of `split_primaries` between it and its conjugate."""
    pi = None
    for a in range(isqrt(4 * p // 3) + 1):
        t = 4 * p - 3 * a * a
        s = isqrt(t)
        if s * s != t:
            continue
        for twice_b in (a + s, a - s):
            b = twice_b // 2
            if twice_b % 2 == 0 and a * a - a * b + b * b == p:
                pi = (a, b)
                break
        if pi is not None:
            break
    assert pi is not None
    (c1,) = [y for y in (_pair_mul(u, pi) for u in _UNIT_PAIRS) if y[0] % 3 == 1 and y[1] % 3 == 0]
    cands = sorted([c1, (c1[0] - c1[1], -c1[1])])
    positive = [c for c in cands if c[0] > 0]
    pi1 = positive[0] if positive else cands[0]
    return pi1, (pi1[0] - pi1[1], -pi1[1])


def test_split_primaries_matches_reference_below_30000():
    count = 0
    for p in primerange(7, 30000):
        if p % 3 != 1:
            continue
        pi1, pi2 = split_primaries(p)
        assert ((pi1.a, pi1.b), (pi2.a, pi2.b)) == _reference_split_primaries(p), p
        assert is_primary(pi1) and is_primary(pi2)
        assert pi1 * pi2 == Eisenstein(p, 0)
        count += 1
    assert count == 1610  # the primes p = 1 (mod 3) below 30000


def test_eisenstein_is_an_immutable_value():
    x = Eisenstein(1, 3)
    assert x == Eisenstein(1, 3) and hash(x) == hash(Eisenstein(1, 3))
    assert x != Eisenstein(3, 1) and x != conj(x)
    assert len({x, Eisenstein(1, 3), Eisenstein(3, 1)}) == 2
    with pytest.raises(AttributeError):
        x.a = 2
    with pytest.raises(AttributeError):
        x.c = 2
    assert x == Eisenstein(1, 3)
    with pytest.raises(TypeError):
        2 * ZETA  # not the tuple repetition (0, 1, 0, 1)
    assert repr(x) == "Eisenstein(a=1, b=3)"
    assert str(x) == "(1+3z)"


def test_primary_associate_checks_uniqueness(monkeypatch):
    # the check that exactly one associate is primary stays in force
    monkeypatch.setattr(eisenstein, "is_primary", lambda x: True)
    with pytest.raises(ArithmeticError):
        primary_associate(Eisenstein(2, 0))
