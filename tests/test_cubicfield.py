"""Pure cubic field construction and splitting laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from purecubic.cubicfield import (
    PureCubicField,
    SplitPattern,
    brute_split,
    classify,
    never_happens_check,
    split_in_gamma,
    split_in_k,
)
from purecubic.zlinalg import det

coords = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


def test_classify_first_kind():
    F = classify(2)
    assert F.kind == "first"
    assert (F.a, F.b) == (2, 1)
    assert F.disc == -108
    F7 = classify(7)
    assert F7.kind == "first"
    assert F7.disc == -27 * 49


def test_classify_second_kind():
    F = classify(199)
    assert F.kind == "second"
    assert F.disc == -3 * 199 ** 2
    F10 = classify(10)
    assert F10.kind == "second"
    assert F10.disc == -3 * 100


def test_classify_exponent_two_part():
    F = classify(12)  # 12 = 3 * 2^2
    assert (F.a, F.b) == (3, 2)
    F28 = classify(28)  # 28 = 7 * 2^2, second kind
    assert F28.kind == "second"
    assert F28.disc == -3 * 14 ** 2


@pytest.mark.parametrize("d", [2, 7, 12, 10, 19, 28])
def test_element_norm_matches_regular_representation_det(d):
    # first kind: 2, 7, 12; second kind: 10, 19, 28
    F = classify(d)
    rng = random.Random(d)
    points = [(0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, -1), (-3, 0, 2), (0, 5, -7)]
    points += [tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(300)]
    for v in points:
        assert F.element_norm(*v) == det(F.regular_representation(v)), v


def test_classify_rejects_bad_d():
    with pytest.raises(ValueError):
        classify(8)  # not cube-free
    with pytest.raises(ValueError):
        classify(1)


@pytest.mark.parametrize("d", [2, 7, 10, 12, 28, 199])
class TestRingStructure:
    def test_multiplication_commutes(self, d):
        F = classify(d)
        assert F.mul_coords((1, 2, 3), (4, 5, 6)) == F.mul_coords((4, 5, 6), (1, 2, 3))

    def test_norm_multiplicative(self, d):
        F = classify(d)
        u, v = (1, 2, -1), (3, 0, 2)
        assert F.element_norm(*F.mul_coords(u, v)) == F.element_norm(*u) * F.element_norm(*v)

    def test_theta_cubes_to_d(self, d):
        F = classify(d)
        # theta has coords (0, 1, 0) in every constructed basis
        th3 = F.mul_coords(F.mul_coords((0, 1, 0), (0, 1, 0)), (0, 1, 0))
        assert th3 == (d, 0, 0)


@given(coords, coords, coords)
@settings(max_examples=60, deadline=None)
def test_associativity_second_kind(u, v, w):
    F = classify(199)
    assert F.mul_coords(F.mul_coords(u, v), w) == F.mul_coords(u, F.mul_coords(v, w))


def test_split_pattern_degree():
    assert SplitPattern.of((1, 1), (1, 2)).degree() == 3
    assert SplitPattern.of((3, 1)).degree() == 3


def test_split_three():
    assert split_in_gamma(classify(2), 3) == SplitPattern.of((3, 1))
    assert split_in_gamma(classify(199), 3) == SplitPattern.of((2, 1), (1, 1))
    assert split_in_k(classify(2), 3) == SplitPattern.of((6, 1))
    assert split_in_k(classify(199), 3) == SplitPattern.of((2, 1), (2, 1), (2, 1))


def test_split_in_k_composes_with_quadratic_layer():
    F = classify(12)
    # 7 = 1 mod 3 but 12 is not a cube mod 7: inert in gamma, two deg-3 in k
    assert split_in_gamma(F, 7) == SplitPattern.of((1, 3))
    assert split_in_k(F, 7) == SplitPattern.of((1, 3), (1, 3))
    # 5 = 2 mod 3: (1,1)(1,2) in gamma, three deg-2 in k
    assert split_in_gamma(F, 5) == SplitPattern.of((1, 1), (1, 2))
    assert split_in_k(F, 5) == SplitPattern.of((1, 2), (1, 2), (1, 2))


def test_split_matches_oracle():
    for d in (2, 5, 7, 10, 12, 199):
        F = classify(d)
        for q in primerange(2, 100):
            if (3 * F.b) % q == 0:
                continue
            assert split_in_gamma(F, q) == brute_split(F, q), (d, q)


def test_oracle_domain_guard():
    with pytest.raises(ValueError):
        brute_split(classify(2), 3)


def test_never_happens_check():
    for q in primerange(2, 500):
        if q % 3 == 2:
            assert never_happens_check(q)
    with pytest.raises(ValueError):
        never_happens_check(7)


def test_degree_six_total():
    for d in (2, 10, 199):
        F = classify(d)
        for q in primerange(2, 50):
            assert split_in_k(F, q).degree() == 6
            assert split_in_gamma(F, q).degree() == 3
