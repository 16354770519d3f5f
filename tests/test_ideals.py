"""Ideal arithmetic in HNF representation: primes above q, valuations, quotients."""

import pytest
from sympy import primerange

from purecubic import classgroup
from purecubic.cubicfield import PureCubicField, classify, split_in_gamma
from purecubic.ideals import (
    ElementGamma,
    IdealHNF,
    class_inverse_representative,
    ideal_of_element,
    ideal_power,
    ideal_quotient,
    is_principal_bounded,
    mul,
    primes_above,
    valuation,
)
from purecubic.zlinalg import lll_reduce


def test_unit_ideal():
    F = classify(2)
    O = IdealHNF.unit_ideal(F)
    assert O.norm() == 1
    assert O.contains_vector((5, -3, 2))


def test_ideal_of_element_norm():
    F = classify(7)
    theta = ElementGamma(F, 0, 1, 0)
    I = ideal_of_element(theta)
    assert I.norm() == abs(theta.norm()) == 7


def test_principal_ideal_norm_is_element_norm():
    F = classify(10)
    for coords in ((1, 1, 0), (2, -1, 1), (0, 0, 1)):
        alpha = ElementGamma(F, *coords)
        assert ideal_of_element(alpha).norm() == abs(alpha.norm())


def test_mul_norm_multiplicative():
    F = classify(5)
    a = ideal_of_element(ElementGamma(F, 1, 1, 0))
    b = ideal_of_element(ElementGamma(F, 2, 0, 1))
    assert mul(a, b).norm() == a.norm() * b.norm()


def test_primes_above_reassemble():
    for d in (2, 7, 10, 199):
        F = classify(d)
        for q in primerange(2, 30):
            parts = primes_above(F, q)
            pattern = sorted((e, f) for _, e, f in parts)
            assert pattern == list(split_in_gamma(F, q).pairs)
            prod = IdealHNF.unit_ideal(F)
            for P, e, _ in parts:
                prod = mul(prod, ideal_power(P, e))
            assert prod == IdealHNF.from_integer(F, q)


def test_primes_above_generic_route_at_three():
    # second kind: 3 = P^2 * S, only reachable through the O/3O scan
    F = classify(199)
    parts = primes_above(F, 3)
    assert sorted((e, f) for _, e, f in parts) == [(1, 1), (2, 1)]
    for P, _, f in parts:
        assert P.norm() == 3 ** f


def test_valuation():
    F = classify(7)
    P3 = primes_above(F, 3)[0][0]
    assert valuation(IdealHNF.from_integer(F, 3), P3) == 3
    assert valuation(IdealHNF.from_integer(F, 9), P3) == 6
    assert valuation(IdealHNF.unit_ideal(F), P3) == 0


def test_is_principal_finds_generator():
    F = classify(7)
    theta = ElementGamma(F, 0, 1, 0)
    I = ideal_of_element(theta)
    gen = is_principal_bounded(I)
    assert gen is not None
    assert ideal_of_element(gen) == I


def test_nonprincipal_with_principal_cube():
    # h = 3 for d = 7: a degree-1 prime above 5 is not principal, its cube is
    F = classify(7)
    P5 = next(P for P, _, f in primes_above(F, 5) if f == 1)
    assert is_principal_bounded(P5, 10) is None
    assert is_principal_bounded(ideal_power(P5, 3), 10) is not None


def _box_search(I, search_bound):
    """Reference principality search: one element norm per box point."""
    target = I.norm()
    red = lll_reduce([list(r) for r in I.basis])
    B = search_bound
    for c0 in range(-B, B + 1):
        for c1 in range(-B, B + 1):
            for c2 in range(0, B + 1):
                if c0 == 0 and c1 == 0 and c2 == 0:
                    continue
                v = tuple(c0 * red[0][i] + c1 * red[1][i] + c2 * red[2][i] for i in range(3))
                alpha = ElementGamma(I.field, *v)
                if abs(alpha.norm()) == target:
                    return alpha
    return None


@pytest.mark.parametrize("d", [7, 11])
def test_is_principal_bounded_matches_box_search_on_oracle_ideals(d, monkeypatch):
    calls = []

    def recording(I, search_bound=8):
        gen = is_principal_bounded(I, search_bound)
        calls.append((I, search_bound, gen))
        return gen

    monkeypatch.setattr(classgroup, "is_principal_bounded", recording)
    F = classify(d)
    fb = classgroup.build_factor_base(F)
    classgroup._oracle_class_number(F, fb, search_bound=12, deadline=float("inf"))
    assert len(calls) > 20
    assert any(gen is None for _, _, gen in calls)
    assert any(gen is not None for _, _, gen in calls)
    for I, B, gen in calls:
        ref = _box_search(I, B)
        if ref is None:
            assert gen is None
        else:
            assert gen is not None and gen.coords() == ref.coords()


def test_is_principal_bounded_rechecks_the_norm_of_a_hit(monkeypatch):
    F = classify(7)
    I = ideal_of_element(ElementGamma(F, 0, 1, 0))
    monkeypatch.setattr(PureCubicField, "element_norm", lambda self, x, y, z: 0)
    with pytest.raises(ArithmeticError):
        is_principal_bounded(I)


def test_ideal_quotient_identities():
    F = classify(10)
    O = IdealHNF.unit_ideal(F)
    I = ideal_of_element(ElementGamma(F, 1, 2, 0))
    assert ideal_quotient(I, O) == I
    assert ideal_quotient(I, I) == O


def test_class_inverse():
    F = classify(7)
    P5 = next(P for P, _, f in primes_above(F, 5) if f == 1)
    J = class_inverse_representative(P5)
    assert is_principal_bounded(mul(P5, J), 10) is not None


def test_contains_vector_upper_triangular_regression():
    # row 0 carrying entries past its pivot must not confuse membership
    F = classify(199)
    I = IdealHNF(F, ((1, 2, 0), (0, 3, 0), (0, 0, 1)))
    assert I.contains_vector((1, 5, 0))
    assert I.contains_vector((0, 3, 0))
    assert not I.contains_vector((0, 1, 0))


def test_from_generators_rejects_degenerate():
    F = classify(2)
    with pytest.raises(ValueError):
        ideal_of_element(ElementGamma(F, 0, 0, 0))
