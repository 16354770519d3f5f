"""Arithmetic in Z[zeta]: norms, division, primary normalization, factoring."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import prevprime, primerange

from purecubic import eisenstein
from purecubic.eisenstein import (
    Eisenstein,
    LAMBDA,
    UNITS,
    ZETA,
    conj,
    divrem,
    factor,
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
    assert u * z == p  # the six associates are formed inline, in UNITS order
    assert is_primary(p)
    assert sum(1 for unit in UNITS if is_primary(unit * z)) == 1


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


def test_factor_of_rational_primes():
    for q in primerange(2, 2000):
        f = factor(Eisenstein(q, 0))
        assert f.value() == Eisenstein(q, 0), q
        if q == 3:
            assert (f.lambda_exponent, f.primary_primes) == (2, ())
            continue
        assert f.lambda_exponent == 0, q
        if q % 3 == 1:
            assert f.primary_primes == tuple((pi, 1) for pi in split_primaries(q)), q
        else:
            ((pi, e),) = f.primary_primes
            assert e == 1 and is_primary(pi) and norm(pi) == q * q, q


@given(elems, st.integers(0, 40), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_modular_power_is_the_power_reduced(x, e, q):
    r = x ** e
    assert pow(x, e, q) == Eisenstein(r.a % q, r.b % q)


def test_negative_power_is_refused():
    for args in ((ZETA, -1), (ZETA, -1, 5)):
        with pytest.raises(ValueError):
            pow(*args)


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


def _norm_form_split(p):
    """Some pi = (a, b) with a^2 - ab + b^2 = p, the one with the least
    a >= 0, by scanning the norm form in O(sqrt p) steps: the split that
    Cornacchia's algorithm replaced."""
    t = 4 * p  # 4p - 3a^2 = (2b - a)^2 for the current a
    for a in range(isqrt(t // 3) + 1):
        s = isqrt(t)
        if s * s == t:
            # s = a (mod 2), so both b = (a +- s)/2 are integers
            for b in ((a + s) // 2, (a - s) // 2):
                if a * a - a * b + b * b == p:
                    return a, b
        t -= 6 * a + 3
    raise AssertionError(f"norm form has no representation of {p}")


def _reference_split_primaries(p):
    """The canonical pair on plain int pairs: the norm-form solution of
    `_norm_form_split`, its one primary associate, and the tie-break of
    `split_primaries` between it and its conjugate."""
    pi = _norm_form_split(p)
    (c1,) = [y for y in (_pair_mul(u, pi) for u in _UNIT_PAIRS) if y[0] % 3 == 1 and y[1] % 3 == 0]
    cands = sorted([c1, (c1[0] - c1[1], -c1[1])])
    positive = [c for c in cands if c[0] > 0]
    pi1 = positive[0] if positive else cands[0]
    return pi1, (pi1[0] - pi1[1], -pi1[1])


def test_split_primaries_matches_reference_below_200000():
    # whichever pi of norm p the split finds, the canonical pair is the same
    count = 0
    for p in primerange(7, 200000):
        if p % 3 != 1:
            continue
        pi1, pi2 = split_primaries(p)
        assert ((pi1.a, pi1.b), (pi2.a, pi2.b)) == _reference_split_primaries(p), p
        assert is_primary(pi1) and is_primary(pi2)
        assert pi1 * pi2 == Eisenstein(p, 0)
        count += 1
    assert count == 8988  # the primes p = 1 (mod 3) below 200000


def _prime_1_mod_3_at_most(n):
    p = prevprime(n + 1)
    while p % 3 != 1:
        p = prevprime(p)
    return p


@given(st.integers(7, 2**64).map(_prime_1_mod_3_at_most))
@settings(max_examples=60, deadline=None)
def test_split_primaries_at_large_primes(p):
    pi1, pi2 = split_primaries(p)
    assert norm(pi1) == p
    assert is_primary(pi1) and is_primary(pi2)
    assert pi2 == conj(pi1)
    # prefer a > 0, then the lexicographic minimum on (a, b)
    assert pi1 == min([c for c in (pi1, pi2) if c.a > 0] or [pi1, pi2])


def _divrem_valuation(x, pi):
    """(v, x / pi^v) by trial division alone."""
    v = 0
    while True:
        q, r = divrem(x, pi)
        if not r.is_zero():
            return v, x
        x, v = q, v + 1


@given(
    st.one_of(st.sampled_from(UNITS), nonzero),
    elems.filter(lambda z: norm(z) > 1),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_valuation_agrees_with_trial_division(x, pi, k):
    # k > 0 puts pi in x; k = 0 mostly reaches the N(pi) !| N(x) shortcut
    y = x * pi ** k
    assert valuation(y, pi) == _divrem_valuation(y, pi)


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
