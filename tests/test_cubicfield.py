"""Pure cubic field construction and splitting laws."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from purecubic import cubicfield
from purecubic.cubicfield import (
    _UNIT_VECTORS,
    PureCubicField,
    SplitPattern,
    brute_split,
    classify,
    ring_maps,
    split_in_gamma,
    split_in_k,
)
from purecubic.zlinalg import IntMatrix, det

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
        # the regular representation: column i is v * w_i; Bareiss det is the reference
        cols = [F.mul_coords(v, w) for w in _UNIT_VECTORS]
        M = IntMatrix.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])
        assert F.element_norm(v) == det(M), v


@pytest.mark.parametrize("d", [2, 245, 10, 28, 199])
def test_norm_form_on_non_unit_vectors(d):
    # the form of N(c0*v0 + c1*v1 + c2*v2) for seeded v_i, evaluated at seeded c
    F = classify(d)
    assert F.kind == ("first" if d in (2, 245) else "second")
    rng = random.Random(d)
    for _ in range(30):
        vs = [tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(3)]
        form = F.norm_form(vs)
        for _ in range(10):
            c = [rng.randint(-12, 12) for _ in range(3)]
            x = tuple(sum(ci * v[t] for ci, v in zip(c, vs)) for t in range(3))
            value = sum(f * c[0] ** i * c[1] ** j * c[2] ** k
                        for f, (i, j, k) in zip(form, cubicfield.CUBIC_MONOMIALS))
            assert value == F.element_norm(x), (vs, c)


@pytest.mark.parametrize("d", [2, 245, 10, 28, 199])
def test_classify_checks_the_discriminant(monkeypatch, d):
    real = cubicfield._build_table

    def off_by_one(a, b, glue):
        built = real(a, b, glue)
        if built is None:
            return None
        basis, table = built
        rows = [list(row) for row in table]
        c0, c1, c2 = rows[1][2]
        rows[1][2] = (c0 + 1, c1, c2)  # w1 * w2 one off, still integral
        return basis, tuple(tuple(row) for row in rows)

    monkeypatch.setattr(cubicfield, "_build_table", off_by_one)
    with pytest.raises(ArithmeticError, match="discriminant mismatch"):
        classify(d)


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
        assert F.element_norm(F.mul_coords(u, v)) == F.element_norm(u) * F.element_norm(v)

    def test_theta_cubes_to_d(self, d):
        F = classify(d)
        # theta has coords (0, 1, 0) in every constructed basis
        th3 = F.mul_coords(F.mul_coords((0, 1, 0), (0, 1, 0)), (0, 1, 0))
        assert th3 == (d, 0, 0)


def _theta_poly_mul(u, v, d):
    """Product of two elements given over (1, theta, theta^2), theta^3 = d."""
    out = [Fraction(0)] * 3
    for i in range(3):
        for j in range(3):
            k = i + j
            out[k % 3] += u[i] * v[j] * (d if k >= 3 else 1)
    return out


@pytest.mark.parametrize("d", [2, 7, 12, 10, 17, 19, 28, 199])
def test_table_multiplies_the_stated_basis(d):
    # first kind: 2, 7, 12; second kind: 10, 17, 19, 28, 199 (glue g0 != g1 at 17)
    F = classify(d)
    w = [[Fraction(n, den) for n in (n0, n1, n2)] for n0, n1, n2, den in F.basis_theta_repr]
    for i in range(3):
        for j in range(3):
            expected = [sum(c * wk[t] for c, wk in zip(F.table[i][j], w)) for t in range(3)]
            assert _theta_poly_mul(w[i], w[j], d) == expected, (i, j)


@given(coords, coords, coords)
@settings(max_examples=60, deadline=None)
def test_associativity_second_kind(u, v, w):
    F = classify(199)
    assert F.mul_coords(F.mul_coords(u, v), w) == F.mul_coords(u, F.mul_coords(v, w))


@lru_cache(maxsize=None)
def _fields_for_mul_coords():
    # every cube-free d < 400 (p^3 <= 400 only for p in 2, 3, 5, 7), and
    # three larger fields of the catalog
    ds = [d for d in range(2, 400) if all(d % p ** 3 for p in (2, 3, 5, 7))]
    return tuple(classify(d) for d in ds + [487, 1297, 8821])


big = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@given(st.tuples(big, big, big), st.tuples(big, big, big))
@settings(max_examples=60, deadline=None)
def test_mul_coords_matches_the_table_triple_loop(u, v):
    for F in _fields_for_mul_coords():
        expected = [0, 0, 0]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected[k] += u[i] * v[j] * F.table[i][j][k]
        assert F.mul_coords(u, v) == tuple(expected), F.d


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


def _factor_list_split(F, q):
    """Reference for q coprime to 3b: the (multiplicity, degree) of each
    factor of x^3 - d in sympy's factor_list over GF(q)."""
    from sympy import GF, Poly, Symbol

    x = Symbol("x")
    fac = Poly(x ** 3 - F.d, x, domain=GF(q)).factor_list()[1]
    return SplitPattern.of(*[(mult, poly.degree()) for poly, mult in fac])


def test_brute_split_matches_factor_list():
    fields = [F for F in _fields_for_mul_coords() if F.d < 100]  # every cube-free d < 100
    cases = [(F, q) for F in fields for q in primerange(2, 200) if (3 * F.b) % q]
    assert len(cases) > 3000
    seen = set()
    for F, q in cases:
        got = brute_split(F, q)
        assert got == _factor_list_split(F, q), (F.d, q)
        seen.add(got)
    assert len(seen) == 4  # (1,1)^3, (1,1)(1,2), (1,3) and (3,1) all occur


@pytest.mark.parametrize("q", [10**9 + 7, 10**9 + 9, 2**61 - 1])
@pytest.mark.parametrize("d", [2, 199, 245])
def test_brute_split_matches_factor_list_at_large_q(d, q):
    # no scan of F_q is possible here, only the Frobenius power
    F = classify(d)
    assert brute_split(F, q) == _factor_list_split(F, q) == split_in_gamma(F, q)


def test_split_in_k_matches_factoring_theta_plus_zeta():
    # theta + zeta generates k, with minimal polynomial
    # g(y) = Res_x(x^3 - d, (y - x)^2 + (y - x) + 1).  For q prime to
    # disc(g), Dedekind-Kummer reads the primes of k above q off the
    # factors of g over GF(q), which are distinct: e = 1, f = the degree.
    from sympy import Poly, Symbol, resultant

    x, y = Symbol("x"), Symbol("y")
    cases = 0
    for d in (2, 5, 7, 10, 12, 20, 28, 199):
        g = Poly(resultant(x ** 3 - d, (y - x) ** 2 + (y - x) + 1, x), y)
        disc = g.discriminant()
        F = classify(d)
        for q in primerange(2, 200):
            if disc % q == 0:
                continue
            factors = g.set_modulus(q).factor_list()[1]
            expected = SplitPattern.of(*[(1, h.degree()) for h, _ in factors])
            assert split_in_k(F, q) == expected, (d, q)
            cases += 1
    assert cases == 338


def test_oracle_domain_guard():
    with pytest.raises(ValueError):
        brute_split(classify(2), 3)


def test_degree_six_total():
    for d in (2, 10, 199):
        F = classify(d)
        for q in primerange(2, 50):
            assert split_in_k(F, q).degree() == 6
            assert split_in_gamma(F, q).degree() == 3
            if q % 3 == 2:  # q is inert in Q(zeta), so every residue degree in k is even
                assert all(f != 3 for _, f in split_in_k(F, q).pairs)


def _searched_ring_maps(F, q):
    """Every (s, t) in F_q^2 for which w0 -> 1, w1 -> s, w2 -> t respects
    the products w_i * w_j."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    products = [(i, j, F.mul_coords(basis[i], basis[j])) for i in range(3) for j in range(3)]
    out = []
    for s, t in product(range(q), repeat=2):
        im = (1, s, t)
        if all((c0 + c1 * s + c2 * t - im[i] * im[j]) % q == 0 for i, j, (c0, c1, c2) in products):
            out.append((s, t))
    return out


def test_ring_maps_match_a_search_over_the_residue_pairs():
    pairs = 0
    for d in range(2, 60):
        try:
            F = classify(d)
        except ValueError:
            continue
        for q in primerange(2, 30):
            assert sorted(ring_maps(F, q)) == _searched_ring_maps(F, q), (d, q)
            pairs += 1
    assert pairs > 400


def test_ring_maps_reject_a_root_that_is_not_one(monkeypatch):
    # 1 is not a cube root of 2 mod 5, so theta -> 1 is no ring map
    monkeypatch.setattr(cubicfield, "_roots_mod", lambda d, q: [1])
    with pytest.raises(ArithmeticError, match="not a ring map"):
        ring_maps(classify(2), 5)


def test_roots_mod_match_sympy_nthroot_mod():
    # every prime q = 1 (mod 3) below 5000, 3^s || q - 1 up to s = 6 (q = 1459),
    # with small d, cubes mod q and large d
    from sympy.ntheory import nthroot_mod

    exponents = set()
    for q in primerange(7, 5000):
        if q % 3 != 1:
            continue
        s, t = 0, q - 1
        while t % 3 == 0:
            s, t = s + 1, t // 3
        exponents.add(s)
        for d in [*range(2, 20), 8821, 10 ** 9 + 7, *(x ** 3 % q for x in (3, 5, 12))]:
            if d % q:
                expected = sorted(nthroot_mod(d, 3, q, True) or [], reverse=True)
                assert cubicfield._roots_mod(d, q) == expected, (d, q)
    assert exponents == {1, 2, 3, 4, 5, 6}
