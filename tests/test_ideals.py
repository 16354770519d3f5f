"""Ideal arithmetic in HNF representation: primes above q, valuations, inverses."""

import signal
from functools import reduce
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import primerange

from purecubic import classgroup, cubicfield, ideals
from purecubic.cubicfield import _UNIT_VECTORS, PureCubicField, classify, ring_maps, split_in_gamma
from purecubic.ideals import (
    IdealHNF,
    _lattice_hnf,
    class_inverse_representative,
    ideal_of_element,
    is_coprime_product,
    is_principal_bounded,
    mul,
    primes_above,
    valuation,
)
from purecubic.zlinalg import HNFLattice, IntMatrix, hnf, lll_reduce
from relation_search import spied_search

vec3 = st.tuples(*[st.integers(-40, 40)] * 3)


def test_unit_ideal():
    F = classify(2)
    O = IdealHNF.unit_ideal(F)
    assert O.norm() == 1
    assert O.contains_vector((5, -3, 2))


def test_ideal_of_element_norm():
    F = classify(7)
    theta = (0, 1, 0)
    I = ideal_of_element(F, theta)
    assert I.norm() == abs(F.element_norm(theta)) == 7


def test_principal_ideal_norm_is_element_norm():
    F = classify(10)
    for alpha in ((1, 1, 0), (2, -1, 1), (0, 0, 1)):
        assert ideal_of_element(F, alpha).norm() == abs(F.element_norm(alpha))


def test_mul_norm_multiplicative():
    F = classify(5)
    a = ideal_of_element(F, (1, 1, 0))
    b = ideal_of_element(F, (2, 0, 1))
    assert mul(a, b).norm() == a.norm() * b.norm()


def _coprime_pairs(d):
    """(I, J) over the powers P^k, k <= 3, of the factor base of d, N(I), N(J) coprime."""
    powers = [p.power(k) for p in classgroup.build_factor_base(classify(d)).primes for k in (1, 2, 3)]
    pairs = [(I, J) for I in powers for J in powers if gcd(I.norm(), J.norm()) == 1]
    assert len(pairs) > len(powers) ** 2 // 2
    return pairs


def _bare(I):
    """I without its generators, so that `mul` takes the nine products."""
    return IdealHNF(I.field, I.basis)


# 28 = 7 * 2^2 (2 | b and 7 | a, totally ramified); 10 is of the second kind
@pytest.mark.parametrize("d", [7, 10, 28, 199, 487])
def test_is_coprime_product_matches_mul_on_factor_base_powers(d):
    for I, J in _coprime_pairs(d):
        IJ = mul(I, J)
        assert is_coprime_product(IJ, [I, J]), (I.basis, J.basis)
        assert IJ == mul(_bare(I), _bare(J)), (I.basis, J.basis)


# 7 and 12 = 3 * 2^2 are of the first kind, the rest of the second; 2 | b in
# 12 and 28, where a prime has no generators; q | d for a prime with them in
# 7, 10 and 28.  Products across distinct q are checked in the test above
@pytest.mark.parametrize("d", [7, 10, 12, 28, 199, 487])
def test_mul_by_generators_matches_the_nine_products_above_one_q(d):
    fb = classgroup.build_factor_base(classify(d))
    with_gens = [p for p in fb.primes if p.ideal.gens is not None]
    assert {p.f for p in with_gens} == ({1, 2} if d in (7, 199, 487) else {1})
    assert any(d % p.q == 0 for p in with_gens) == (d in (7, 10, 28))
    for cols in fb.columns.values():
        for p in (fb.primes[j] for j in cols):
            power = _bare(p.ideal)
            for k in (1, 2, 3):
                assert p.power(k) == power, (p.q, k)
                for P in (fb.primes[j].ideal for j in cols):
                    assert mul(p.power(k), P) == mul(P, p.power(k)) == mul(power, _bare(P)), (p.q, k)
                power = mul(power, _bare(p.ideal))


def test_primes_above_refuses_a_generator_outside_its_prime(monkeypatch):
    # each degree-1 prime above 31 gets the next one's kernel, so it
    # carries another prime's w1 - s'; norms and pattern still agree
    F = classify(2)
    maps = ring_maps(F, 31)
    assert len(maps) == 3
    nxt = dict(zip(maps, maps[1:] + maps[:1]))
    real = ideals._kernel_hnf
    monkeypatch.setattr(ideals, "_kernel_hnf", lambda q, s, t: real(q, *nxt[s, t]))
    with pytest.raises(ArithmeticError, match="lies outside it"):
        primes_above(F, 31)


def test_mul_refuses_generators_of_the_wrong_norm():
    # 57 = 2^3 + 7^2, so theta - 2 lies in P^2 for the prime P of theta -> 2
    # above 7: (49, theta - 2) lies in P but is P^2, and a*I + gamma*I is I*P^2
    F, gamma = classify(57), (-2, 1, 0)
    P = next(P for P, _, _ in primes_above(F, 7) if P.gens == (7, gamma))
    J = IdealHNF(F, P.basis, (49, gamma))
    assert P.contains_vector((49, 0, 0)) and P.contains_vector(gamma)
    assert IdealHNF.from_generators(F, [(49, 0, 0), gamma]) == mul(P, P)
    for I in (IdealHNF.unit_ideal(F), P, primes_above(F, 2)[0][0]):
        with pytest.raises(ArithmeticError, match="do not give a product"):
            mul(I, J)
        with pytest.raises(ArithmeticError, match="do not give a product"):
            mul(J, _bare(I))


def test_kernel_hnf_is_the_hnf_of_the_kernel():
    cases = set()
    for F in _cube_free_fields(500):
        for q in primerange(2, 200):
            for s, t in ring_maps(F, q):
                expected = _lattice_hnf([(q, 0, 0), (-s, 1, 0), (-t, 0, 1)])
                assert ideals._kernel_hnf(q, s, t) == expected, (F.d, q, s, t)
                cases.add("t" if t else "s" if s else "0")
    assert cases == {"t", "s", "0"}


@given(vec3, vec3, st.sampled_from([2, 10, 28, 199, 487]))
@settings(max_examples=300, deadline=None)
def test_is_coprime_product_of_principal_ideals(u, v, d):
    # checked against (alpha*beta), so without `mul`
    F = classify(d)
    assume(any(u) and any(v))
    assume(gcd(F.element_norm(u), F.element_norm(v)) == 1)
    parts = [ideal_of_element(F, u), ideal_of_element(F, v)]
    assert is_coprime_product(ideal_of_element(F, F.mul_coords(u, v)), parts)


def test_is_coprime_product_rejects_norms_that_share_a_prime():
    F = classify(7)
    (P, _, _), (Q, _, _) = primes_above(F, 3)[0], primes_above(F, 2)[0]
    for I, J in ((P, P), (P, mul(P, Q)), (IdealHNF.from_integer(F, 6), Q)):
        with pytest.raises(ValueError, match="not coprime"):
            is_coprime_product(IdealHNF.unit_ideal(F), [I, J])
    P10 = primes_above(classify(10), 7)[0][0]
    with pytest.raises(ValueError, match="ambient"):
        is_coprime_product(mul(P, Q), [P, P10])
    with pytest.raises(ValueError, match="ambient"):
        is_coprime_product(P10, [P])


def test_ideals_of_equal_fields_that_are_not_one_object_multiply():
    # mul and is_coprime_product test the fields for identity first and
    # fall back to equality, so a second classify(7) is the same ambient
    F, G = classify(7), classify(7)
    assert F is not G and F == G
    (P, _, _), (Q, _, _) = primes_above(F, 3)[0], primes_above(G, 2)[0]
    PQ = mul(P, Q)
    assert mul(Q, P) == PQ
    assert is_coprime_product(PQ, [P, Q])
    assert is_coprime_product(mul(Q, primes_above(G, 3)[0][0]), [P, Q])
    P10 = primes_above(classify(10), 7)[0][0]
    for I, J in ((P, P10), (P10, Q)):
        with pytest.raises(ValueError, match="ambient"):
            mul(I, J)


@pytest.mark.parametrize("d", [7, 199, 487])
def test_is_coprime_product_rejects_a_changed_entry(d):
    # H is canonical, so any other value of B (in [0, D)), C or E (in
    # [0, F)) gives another ideal, which must not pass for the product
    changed = [0, 0, 0]
    for I, J in _coprime_pairs(d)[::7]:
        product = mul(I, J).basis
        (_, _, _), (_, D, _), (_, _, F) = product
        for i, (r, col, top) in enumerate(((0, 1, D), (0, 2, F), (1, 2, F))):
            for x in range(min(top, 12)):
                if x != product[r][col]:
                    rows = [list(row) for row in product]
                    rows[r][col] = x
                    H = IdealHNF(I.field, tuple(tuple(row) for row in rows))
                    assert not is_coprime_product(H, [I, J]), (H.basis, I.basis, J.basis)
                    changed[i] += 1
    assert min(changed) > 20, changed


def test_is_coprime_product_rejects_a_conjugate_part():
    # the primes above a split q have the same norm; the product with one
    # of them is not the product with another
    cases = 0
    for d, q in ((2, 31), (7, 19), (10, 37), (199, 37), (487, 19)):
        F = classify(d)
        split = [P for P, _, _ in primes_above(F, q)]
        assert len(split) == 3
        others = [P for r in (2, 5) for P, _, _ in primes_above(F, r)]
        for P, Q in iproduct(split, others):
            for k in (1, 2):
                Pk = reduce(mul, [P] * k)
                H = mul(Pk, Q)
                assert is_coprime_product(H, [Pk, Q])
                for P2 in split:
                    if P2 != P:
                        assert not is_coprime_product(H, [reduce(mul, [P2] * k), Q])
                        assert not is_coprime_product(H, [Q, reduce(mul, [P2] * k)])
                        cases += 1
    assert cases > 100


def test_primes_above_reassemble():
    for d in (2, 7, 10, 199):
        F = classify(d)
        for q in primerange(2, 30):
            parts = primes_above(F, q)
            pattern = sorted((e, f) for _, e, f in parts)
            assert pattern == list(split_in_gamma(F, q).pairs)
            prod = IdealHNF.unit_ideal(F)
            for P, e, _ in parts:
                for _ in range(e):
                    prod = mul(prod, P)
            assert prod == IdealHNF.from_integer(F, q)
        for q in (0, 1, 4, -5):
            with pytest.raises(ValueError, match="q must be prime"):
                primes_above(F, q)


def test_primes_above_index_divisor_route_at_three():
    # second kind: 3 = P^2 * S with 3 dividing the index, so both primes
    # are kernels of ring maps O -> F_3, not factors of x^3 - d
    F = classify(199)
    parts = primes_above(F, 3)
    assert sorted((e, f) for _, e, f in parts) == [(1, 1), (2, 1)]
    for P, _, f in parts:
        assert P.norm() == 3 ** f


def _scan_primes_above(field, q):
    """Reference for q | 3b: maximal ideals of O/qO, found by closing the
    span of every nonzero vector of (Z/q)^3 under the ring action."""
    q_ideal = IdealHNF.from_integer(field, q)

    def span_closed(vectors):
        vecs = [(q, 0, 0), (0, q, 0), (0, 0, q)]
        frontier = list(vectors)
        while frontier:
            vecs.extend(frontier)
            tmp = IdealHNF(field, _lattice_hnf(vecs))
            frontier = [
                prod
                for row in tmp.basis
                for prod in (field.mul_coords(row, w) for w in _UNIT_VECTORS)
                if not tmp.contains_vector(prod)
            ]
            vecs = [list(r) for r in tmp.basis]
        return IdealHNF(field, _lattice_hnf([tuple(v) for v in vecs]))

    found = {}
    for v in iproduct(range(q), repeat=3):
        if v != (0, 0, 0):
            I = span_closed([v])
            if I.norm() in (q, q * q):
                found.setdefault(I.basis, I)
    cands = list(found.values())
    primes = [
        I for I in cands if not any(J is not I and J.norm() < I.norm() and J.contains(I) for J in cands)
    ]
    if not primes:
        return [(q_ideal, 1, 3)]
    return [(P, valuation(q_ideal, P), 1 if P.norm() == q else 2) for P in primes]


def _at_theta(field, coeffs):
    """A polynomial (highest degree first) at theta = w1, by Horner's rule."""
    acc = (0, 0, 0)
    for c in coeffs:
        x, y, z = field.mul_coords(acc, (0, 1, 0))
        acc = (x + c, y, z)
    return acc


def _factor_list_primes_above(field, q):
    """Reference for q coprime to 3b: (q, g(theta)) for each factor g of
    x^3 - d in sympy's factor_list over GF(q), in that order."""
    from sympy import GF, Poly, Symbol

    x = Symbol("x")
    out = []
    for poly, mult in Poly(x ** 3 - field.d, x, domain=GF(q)).factor_list()[1]:
        gen = _at_theta(field, [int(c) % q for c in poly.all_coeffs()])
        P = IdealHNF.from_generators(field, [(q, 0, 0), gen])
        out.append((P, mult, poly.degree()))
    return out


def _reference_primes_above(field, q):
    if (3 * field.b) % q == 0:
        return _scan_primes_above(field, q)
    return _factor_list_primes_above(field, q)


def _listing(parts):
    return [(P.basis, e, f) for P, e, f in parts]


def _cube_free_fields(top):
    out = []
    for d in range(2, top):
        try:
            out.append(classify(d))
        except ValueError:
            pass
    return out


def test_primes_above_matches_the_scan_at_index_divisors():
    # the same primes, e and f as the O/qO scan; the order is ring-map
    # order, which no answer reads, so the listings are compared sorted
    cases = [(F, q) for F in _cube_free_fields(400) for q in (2, 3, 5, 7) if (3 * F.b) % q == 0]
    cases.append((classify(242), 11))
    assert len(cases) > 390
    for F, q in cases:
        assert sorted(_listing(primes_above(F, q))) == sorted(_listing(_scan_primes_above(F, q))), (F.d, q)


def test_primes_above_matches_factor_list_off_the_index():
    fields = _cube_free_fields(25) + [classify(d) for d in (199, 242, 487, 1297, 8821)]
    for F in fields:
        for q in primerange(2, 100):
            if (3 * F.b) % q:
                assert _listing(primes_above(F, q)) == _listing(_factor_list_primes_above(F, q)), (F.d, q)


def _primes_by_q(fb):
    """q -> the set of (basis, f, norm) of the factor-base primes above q."""
    return {
        q: {(fb.primes[j].ideal.basis, fb.primes[j].f, fb.primes[j].norm) for j in cols}
        for q, cols in fb.columns.items()
    }


@pytest.mark.parametrize("d", [199, 487, 1297])
def test_build_factor_base_matches_the_reference_construction(d, monkeypatch):
    # the same primes above each q; their order within q is free
    F = classify(d)
    fb = classgroup.build_factor_base(F)
    monkeypatch.setattr(classgroup, "primes_above", _reference_primes_above)
    ref = classgroup.build_factor_base(F)
    assert (fb.bound, fb.product) == (ref.bound, ref.product)
    assert [p.q for p in fb.primes] == [p.q for p in ref.primes]
    assert _primes_by_q(fb) == _primes_by_q(ref)


def test_primes_above_rejects_a_wrong_norm(monkeypatch):
    # pattern (1,1)(1,2) as the law says, but the degree-2 prime comes out as O
    unit = classmethod(lambda cls, field, gens: cls.unit_ideal(field))
    monkeypatch.setattr(ideals.IdealHNF, "from_generators", unit)
    with pytest.raises(ArithmeticError, match="wrong norm"):
        primes_above(classify(2), 5)


def test_primes_above_rejects_a_product_that_is_not_q(monkeypatch):
    # three degree-1 primes as the law says, but all the same one
    real = cubicfield._roots_mod
    monkeypatch.setattr(cubicfield, "_roots_mod", lambda d, q: real(d, q)[:1] * 3)
    with pytest.raises(ArithmeticError, match="do not reassemble"):
        primes_above(classify(2), 31)


def test_valuation():
    F = classify(7)
    P3 = primes_above(F, 3)[0][0]
    assert valuation(IdealHNF.from_integer(F, 3), P3) == 3
    assert valuation(IdealHNF.from_integer(F, 9), P3) == 6
    assert valuation(IdealHNF.unit_ideal(F), P3) == 0


@pytest.mark.parametrize("d", [10, 28, 199])
def test_valuation_of_a_kernel_that_is_no_ideal_ends(d, monkeypatch):
    # with the sign of the t = 0 != s kernel flipped, a "prime" above 3 is a
    # lattice that is no ideal, whose powers can contain 3O for every k;
    # valuation stops at N(P)^k | 3^3, so primes_above raises instead of
    # hanging, which the alarm turns into a failure
    def flipped(q, s, t):
        return ((1, pow(s, -1, q), 0), (0, q, 0), (0, 0, 1)) if s and not t else real(q, s, t)

    def timeout(signum, frame):
        raise TimeoutError("primes_above did not return in 5 s")

    real = ideals._kernel_hnf
    monkeypatch.setattr(ideals, "_kernel_hnf", flipped)
    F = classify(d)
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ArithmeticError):
            primes_above(F, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_is_principal_finds_generator():
    F = classify(7)
    I = ideal_of_element(F, (0, 1, 0))
    gen = is_principal_bounded(I)
    assert gen is not None
    assert ideal_of_element(F, gen) == I


def test_nonprincipal_with_principal_cube():
    # h = 3 for d = 7: a degree-1 prime above 5 is not principal, its cube is
    F = classify(7)
    P5 = next(P for P, _, f in primes_above(F, 5) if f == 1)
    assert is_principal_bounded(P5, 10) is None
    assert is_principal_bounded(reduce(mul, [P5] * 3), 10) is not None


def _box_search(I, search_bound, rings=True):
    """Reference principality search: one element norm per box point.

    The pairs (c0, c1) go in rings of increasing max(|c0|, |c1|),
    lexicographic within a ring, or lexicographic throughout when `rings`
    is false; c2 ascends for each pair.
    """
    target = I.norm()
    red = lll_reduce([list(r) for r in I.basis])
    B = search_bound
    pairs = list(iproduct(range(-B, B + 1), repeat=2))
    if rings:
        pairs.sort(key=lambda c: max(abs(c[0]), abs(c[1])))  # stable: lexicographic within
    for c0, c1 in pairs:
        for c2 in range(0, B + 1):
            if c0 == 0 and c1 == 0 and c2 == 0:
                continue
            v = tuple(c0 * red[0][i] + c1 * red[1][i] + c2 * red[2][i] for i in range(3))
            if abs(I.field.element_norm(v)) == target:
                return v
    return None


def _assert_matches_box_search(calls):
    # the ring-order reference returns the same generator; the lexicographic
    # scan covers the same points, so it finds one exactly when the test does
    for I, B, gen in calls:
        assert gen == _box_search(I, B)
        assert (gen is None) == (_box_search(I, B, rings=False) is None)


@pytest.mark.parametrize("d", [7, 11])
def test_is_principal_bounded_matches_box_search_on_oracle_ideals(d, monkeypatch):
    # with no relations every ideal has its own residue, so the oracle tests
    # the representatives in order of creation and every merge inserts one
    calls = []

    def recording(I, search_bound=8):
        gen = is_principal_bounded(I, search_bound)
        calls.append((I, search_bound, gen))
        return gen

    monkeypatch.setattr(classgroup, "is_principal_bounded", recording)
    F = classify(d)
    fb = classgroup.build_factor_base(F)
    lattice = HNFLattice(len(fb.primes))
    classgroup._oracle_class_number(F, fb, lattice, 0, deadline=float("inf"))
    assert len(calls) > 20
    assert any(gen is None for _, _, gen in calls)
    assert any(gen is not None for _, _, gen in calls)
    _assert_matches_box_search(calls)


def test_is_principal_bounded_matches_box_search_on_certified_fields(monkeypatch):
    # the oracle tests the predicted class first, so a field makes few
    # calls (16, 19, 13 and 13 here); the four fields pool them
    calls = []

    def recording(I, search_bound=8):
        gen = is_principal_bounded(I, search_bound)
        calls.append((I, search_bound, gen))
        return gen

    monkeypatch.setattr(classgroup, "is_principal_bounded", recording)
    for d in (7, 11, 44, 242):
        # the oracle as class_group runs it, on the searched lattice; 44 and
        # 242 end their search at h_rel = 1, so class_group no longer runs it
        F = classify(d)
        inserts, lattice = spied_search(F)
        fb = classgroup.build_factor_base(F)
        classes = classgroup._oracle_class_number(F, fb, lattice, len(inserts), float("inf"))
        assert classes == lattice.determinant()
    assert len(calls) >= 60
    assert any(gen is None for _, _, gen in calls)
    assert any(gen is not None for _, _, gen in calls)
    _assert_matches_box_search(calls)


def test_is_principal_bounded_rechecks_the_norm_of_a_hit(monkeypatch):
    F = classify(7)
    I = ideal_of_element(F, (0, 1, 0))
    monkeypatch.setattr(PureCubicField, "element_norm", lambda self, v: 0)
    with pytest.raises(ArithmeticError):
        is_principal_bounded(I)


def _small_ideals(F):
    """The primes above 2, 3, 5 and 7 (so above every q | 3b for the d used
    here), and a few of their products."""
    primes = [P for q in (2, 3, 5, 7) for P, _, _ in primes_above(F, q)]
    products = [mul(P, Q) for P, Q in zip(primes, primes[1:] + primes[:1])]
    return primes + products


# the fields of the `certify` benchmark workload, all certified by the
# oracle, which enumerates every ideal below the Minkowski bound
CERTIFY_FIELDS = (3, 6, 7, 9, 10, 11, 12, 17, 18, 25, 36, 44, 100, 242)


# first kind: 7, 12 (b = 2); second kind: 10, 28 (b = 2), 199
@pytest.mark.parametrize("d", sorted({7, 12, 10, 28, 199, *CERTIFY_FIELDS}))
def test_class_inverse_representative_times_ideal_is_its_norm(d):
    # J * X = N(J)O determines X, so this pins the closed form on every HNF
    # shape the oracle meets
    F = classify(d)
    Js = _small_ideals(F)
    if d in CERTIFY_FIELDS:
        Js += [I for I, _ in classgroup._all_ideals_up_to(F, classgroup.build_factor_base(F))]
    for J in Js:
        J_inv = class_inverse_representative(J)
        assert mul(J_inv, J) == IdealHNF.from_integer(F, J.norm()), J.basis


def test_class_inverse_representative_guards_integrality(monkeypatch):
    # a lattice L whose index does not divide N(J)^3 would give a fractional
    # n*adj(H)/det(H): the guard raises instead of truncating
    F = classify(7)
    P5 = next(P for P, _, f in primes_above(F, 5) if f == 1)
    exact = ideals._lattice_hnf

    def skewed(vectors):
        (a, b, c), (_, d, e), (_, _, f) = exact(vectors)
        return ((a, b, c), (0, d, e), (0, 0, 7 * f))

    monkeypatch.setattr(ideals, "_lattice_hnf", skewed)
    with pytest.raises(ArithmeticError, match="not integral"):
        class_inverse_representative(P5)


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
        ideal_of_element(F, (0, 0, 0))


def _hnf_rows(vectors):
    """Reference: the nonzero rows of zlinalg.hnf, a dense batch elimination."""
    H = hnf(IntMatrix.from_rows([list(v) for v in vectors]))
    rows = tuple(H.row(i) for i in range(H.rows) if any(H.row(i)))
    if len(rows) != 3:
        raise ValueError("generators do not span a full-rank lattice")
    return rows


@given(
    st.lists(st.tuples(*[st.integers(-10**9, 10**9)] * 3), min_size=1, max_size=12),
    st.sampled_from([None, (0, 0), (1, -2), (3, 1)]),
)
@settings(max_examples=300, deadline=None)
def test_lattice_hnf_matches_zlinalg_hnf(vectors, plane):
    if plane is not None:
        # force rank <= 2: every vector in the plane z = a*x + b*y
        a, b = plane
        vectors = [(x, y, a * x + b * y) for x, y, _ in vectors]
    try:
        expected = _hnf_rows(vectors)
    except ValueError:
        with pytest.raises(ValueError):
            _lattice_hnf(vectors)
        return
    assert _lattice_hnf(vectors) == expected


@given(
    st.lists(vec3, min_size=3, max_size=6),
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.tuples(*[st.sampled_from([0, 0, 0, 1, -1, 7])] * 3),
)
@settings(max_examples=300, deadline=None)
def test_contains_vector_matches_zlinalg_hnf(vectors, coeffs, offset):
    # v is in the lattice exactly when adding it leaves the HNF unchanged;
    # v is a combination of the rows, moved off the lattice by `offset`
    try:
        basis = _lattice_hnf(vectors)
    except ValueError:
        return
    v = tuple(sum(c * r[i] for c, r in zip(coeffs, basis)) + offset[i] for i in range(3))
    I = IdealHNF(classify(7), basis)
    assert I.contains_vector(v) == (_hnf_rows(list(basis) + [v]) == basis)
