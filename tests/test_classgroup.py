"""Class group computation and the sextic-closure structure decision."""

import copy
import gc
import random
from fractions import Fraction
from itertools import count, islice

import pytest
from sympy import primerange

from purecubic import classgroup
from purecubic.classgroup import (
    STABLE_WINDOW,
    BudgetExhausted,
    ClassGroupStructure,
    build_factor_base,
    _element_stream,
    class_group,
    decide_k_structure,
    minkowski_bound,
    relation_row,
)
from purecubic.cubicfield import classify
from purecubic.symbols import prime_symbols
from purecubic.ideals import (
    IdealHNF,
    class_inverse_representative,
    ideal_of_element,
    ideal_power,
    is_principal_bounded,
    mul,
    valuation,
)
from purecubic.zlinalg import HNFLattice, snf


def test_minkowski_bound_values():
    mb199 = minkowski_bound(classify(199))
    assert Fraction(97) < mb199 < Fraction(98)
    mb2 = minkowski_bound(classify(2))
    assert Fraction(2) < mb2 < Fraction(3)


def test_minkowski_bound_monotone():
    last = Fraction(0)
    for d in (2, 3, 5, 6, 7):
        mb = minkowski_bound(classify(d))
        assert mb > last
        last = mb


def test_factor_base_complete():
    # 2 ramifies in 2, 10 and 28 (where 2 | b) and splits as (1,1)(1,2) in
    # 199, so no factor base is empty: the Minkowski bound is at least 2.94
    for d in (2, 10, 28, 199):
        fb = build_factor_base(classify(d))
        # every prime ideal of norm <= bound appears
        for p in fb.primes:
            assert p.norm <= fb.bound
        qs = {p.q for p in fb.primes}
        assert 2 in qs and 3 in qs
        assert (fb.primes[0].q, fb.primes[0].norm) == (2, 2)


def test_relation_rows_reassemble():
    F = classify(2)
    fb = build_factor_base(F)
    row = relation_row(F, fb, (0, 1, 0))  # theta: norm 2, supported above 2
    assert row is not None
    assert sum(row) > 0
    rows = []
    for alpha in _element_stream():
        row = relation_row(F, fb, alpha)
        if row is not None:
            rows.append(row)
            if len(rows) == 10:
                break
    assert len(rows) == 10


def test_relation_row_rejects_rough_norm():
    F = classify(2)
    fb = build_factor_base(F)
    # 101 is prime and beyond the bound, so (101, 0, 0) is not smooth
    assert relation_row(F, fb, (101, 0, 0)) is None


def _valuation_row(F, fb, alpha):
    """Reference relation row: a full valuation per smooth prime, no cached powers."""
    n = F.element_norm(alpha)
    if n == 0:
        return None
    rest = abs(n)
    for q in sorted({p.q for p in fb.primes}):
        while rest % q == 0:
            rest //= q
    if rest != 1:
        return None
    ideal = ideal_of_element(F, alpha)
    row = [valuation(ideal, p.ideal) if abs(n) % p.q == 0 else 0 for p in fb.primes]
    acc = 1
    for p, r in zip(fb.primes, row):
        acc *= (p.q ** p.f) ** r
    if acc != abs(n):
        return None
    prod = IdealHNF.unit_ideal(F)
    for p, r in zip(fb.primes, row):
        if r:
            prod = mul(prod, ideal_power(p.ideal, r))
    assert prod == ideal
    return row


@pytest.mark.parametrize("d", [7, 28, 487, 1297])
def test_relation_row_matches_valuation_loop(d):
    # in 28 = 7 * 2^2 the primes 2 | b and 7 | a are totally ramified;
    # 1297 has 112 factor-base primes
    F = classify(d)
    fb = build_factor_base(F)
    rows = 0
    for alpha in islice(_element_stream(), 200):
        row = relation_row(F, fb, alpha)
        assert row == _valuation_row(F, fb, alpha), alpha
        rows += row is not None
    assert rows > 20


def test_element_stream_radius_one_shell():
    # the stream's order decides which rows reach the lattice first
    shell = list(islice(_element_stream(), 14))
    assert shell[:13] == [
        (-1, -1, 1), (-1, 0, 1), (-1, 1, 0), (-1, 1, 1), (0, -1, 1), (0, 0, 1), (0, 1, 0),
        (0, 1, 1), (1, -1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]
    assert shell[13] == (-2, -2, 1)  # the radius-2 shell follows


def test_factor_bases_built_alternately_give_fresh_rows():
    # each factor base owns its prime powers; a cache that outlived one (say,
    # keyed on its id) would hand stale powers to the next
    fields = [classify(28), classify(487)]
    fresh = {}
    for F in fields:
        fb = build_factor_base(F)
        fresh[F.d] = [relation_row(F, fb, a) for a in islice(_element_stream(), 120)]
        # a relation_row that rejected every row would make the comparison empty
        assert sum(row is not None for row in fresh[F.d]) > 20
        del fb
    for F in fields * 3:
        gc.collect()
        fb = build_factor_base(F)
        assert [relation_row(F, fb, a) for a in islice(_element_stream(), 120)] == fresh[F.d]
        del fb


def test_relation_row_rejects_a_wrong_q_part(monkeypatch):
    # the q-part of a split q with its exponents reversed has the right norm
    # but is another ideal, so only the CRT congruences of the check see it
    F = classify(199)
    fb = build_factor_base(F)
    split = [cols for cols in fb.columns.values() if len(cols) == 3]
    alpha = next(
        a for a in _element_stream()
        for r in [relation_row(F, fb, a)]
        if r is not None and any([r[j] for j in cols] != [r[j] for j in cols[::-1]] for cols in split)
    )
    real = classgroup.FactorBase.q_part
    monkeypatch.setattr(
        classgroup.FactorBase, "q_part",
        lambda self, q, ks: real(self, q, ks[::-1] if len(ks) == 3 else ks),
    )
    with pytest.raises(ArithmeticError, match="does not reassemble"):
        relation_row(F, fb, alpha)


def test_relation_row_multiplies_the_primes_above_one_q(monkeypatch):
    # rows with two primes above the same q take `mul` for their q-part;
    # a wrong product there must fail the reassembly too.  A factor base
    # keeps the q-parts it built, so `mul` is patched before one is built
    F = classify(487)
    alpha = next(
        a for fb in [build_factor_base(F)] for a in _element_stream()
        for r in [relation_row(F, fb, a)]
        if r is not None and any(sum(r[j] > 0 for j in cols) >= 2 for cols in fb.columns.values())
    )
    calls = []

    def drop_second(I, J):
        if J.contains(I):  # P^(k-1) * P, a power of one prime: keep it right
            return mul(I, J)
        calls.append(J)
        return I

    monkeypatch.setattr(classgroup, "mul", drop_second)
    fb = build_factor_base(F)
    with pytest.raises(ArithmeticError, match="does not reassemble"):
        relation_row(F, fb, alpha)
    assert calls


@pytest.mark.parametrize("d", [7, 487])
def test_relation_row_reassembly_is_independent_of_the_valuations(d, monkeypatch):
    # the valuations read membership through contains_vector; with its last
    # divisibility step dropped they come out wrong, and the reassembly
    # check, which must not use contains_vector itself, has to say so
    F = classify(d)
    fb = build_factor_base(F)

    def weak_contains_vector(self, v):
        (a, b, _), (_, e, _), _ = self.basis
        x, y, _ = v
        return x % a == 0 and (y - x // a * b) % e == 0

    monkeypatch.setattr(IdealHNF, "contains_vector", weak_contains_vector)
    with pytest.raises(ArithmeticError, match="does not reassemble"):
        for alpha in islice(_element_stream(), 300):
            relation_row(F, fb, alpha)


def _cube_scan_stream():
    """The stream as first written: the whole cube of radius r, keeping its shell."""
    for r in count(1):
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                for z in range(r + 1):
                    if max(abs(x), abs(y), z) != r:
                        continue
                    if z == 0 and (y < 0 or (y == 0 and x <= 0)):
                        continue
                    yield (x, y, z)


def test_element_stream_matches_the_cube_scan():
    got = list(islice(_element_stream(), 20000))
    assert got == list(islice(_cube_scan_stream(), 20000))
    assert len(set(got)) == 20000


@pytest.mark.parametrize("d,h", [(2, 1), (3, 1), (5, 1), (7, 3)])
def test_class_numbers_certified(d, h):
    cg = class_group(classify(d), budget_seconds=120)
    assert cg.h == h
    assert cg.certified


def test_class_group_deterministic():
    a = class_group(classify(7), budget_seconds=120)
    b = class_group(classify(7), budget_seconds=120)
    assert (a.h, a.divisors, a.p3_type) == (b.h, b.divisors, b.p3_type)


def test_budget_exhaustion_signal():
    with pytest.raises(BudgetExhausted) as exc:
        class_group(classify(199), budget_seconds=0)
    e = exc.value
    assert (e.d, e.rows, e.rank, e.n, e.det) == (199, 0, 0, 26, None)
    assert "0 relation rows, lattice rank 0 of 26" in str(e)


@pytest.mark.parametrize("d", [487, 1297])
def test_catalog_class_groups_beyond_the_oracle(d):
    # bounds 239 and 636 (56 and 112 factor-base primes) are above the
    # oracle's limit of 100, so these answers are heuristic, not certified
    cg = class_group(classify(d))
    assert (cg.h, cg.divisors, cg.p3_type, cg.certified) == (18, (18,), (9,), False)


@pytest.fixture(scope="module")
def spied_class_group():
    """class_group(d) and the lattice it searched, each d run once, with the
    oracle off (it runs after the search and may add relations)."""
    runs = {}

    def run(d):
        if d not in runs:
            made = []

            class Spy(HNFLattice):
                def __init__(self, ncols):
                    super().__init__(ncols)
                    self.flags = []  # (changed, full rank) after each insert
                    made.append(self)

                def insert(self, row):
                    changed = super().insert(row)
                    self.flags.append((changed, self.rank == self.ncols))
                    return changed

            with pytest.MonkeyPatch.context() as m:
                m.setattr(classgroup, "HNFLattice", Spy)
                m.setattr(classgroup, "ORACLE_BOUND_LIMIT", 0)
                cg = class_group(classify(d))
            (lattice,) = made
            runs[d] = cg, lattice
        return runs[d]

    return run


@pytest.mark.parametrize("d", [7, 65, 122, 182, 487])
def test_search_stops_after_a_full_stable_window(d, spied_class_group):
    _, lattice = spied_class_group(d)
    tail = 0
    for changed, full_rank in reversed(lattice.flags):
        if changed or not full_rank:
            break
        tail += 1
    # STABLE_WINDOW unchanged full-rank rows, right after the last change
    assert tail == STABLE_WINDOW
    assert lattice.flags[-tail - 1] == (True, True)


# the number of pivots above 1 in each field's final HNF
@pytest.mark.parametrize("d,m", [(65, 2), (122, 3), (182, 3), (487, 1)])
def test_pivot_block_of_a_relation_lattice(d, m, spied_class_group):
    cg, lattice = spied_class_group(d)
    M = lattice.matrix()
    assert sum(M[i, i] > 1 for i in range(M.rows)) == m
    full = tuple(x for x in snf(M) if x > 1)
    assert lattice.elementary_divisors() == full == cg.divisors


@pytest.mark.parametrize("d", [7, 11, 199])
def test_residue_is_the_class_key(d, spied_class_group):
    cg, lattice = spied_class_group(d)
    n = lattice.ncols
    M = lattice.matrix()
    pivots = [M[i, i] for i in range(n)]
    rows = [list(M.row(i)) for i in range(n)]
    rng = random.Random(d)
    vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(40)]
    keys = [lattice.residue(v) for v in vectors]
    for v, key in zip(vectors, keys):
        assert all(0 <= x < p for x, p in zip(key, pivots))
        assert lattice.residue(key) == key
        # unchanged by a basis row and by an integer combination of rows
        for b in rows:
            assert lattice.residue([x + y for x, y in zip(v, b)]) == key
        c = [rng.randint(-3, 3) for _ in rows]
        w = [x + sum(ci * b[j] for ci, b in zip(c, rows)) for j, x in enumerate(v)]
        assert lattice.residue(w) == key
    # equal keys exactly when the difference is already a relation
    outcomes = set()
    for (u, ku), (v, kv) in zip(zip(vectors, keys), zip(vectors[1:], keys[1:])):
        trial = copy.deepcopy(lattice)
        changed = trial.insert([x - y for x, y in zip(u, v)])
        assert (ku == kv) == (not changed)
        outcomes.add(ku == kv)
    assert outcomes == {True, False}
    # Z^n/L has h classes, so the keys take at most h values
    assert len({lattice.residue(v) for v in vectors}) <= cg.h


def _unordered_oracle(F, fb, search_bound):
    """The oracle's first loop: each ideal tried against the representatives
    in order of creation, with no class keys and no lattice."""
    reps, inverses = [], []
    for I, _ in classgroup._all_ideals_up_to(F, fb):
        I_inv = class_inverse_representative(I)
        if not any(
            is_principal_bounded(mul(I, R_inv), search_bound) is not None
            or is_principal_bounded(mul(R, I_inv), search_bound) is not None
            for R, R_inv in zip(reps, inverses)
        ):
            reps.append(I)
            inverses.append(I_inv)
    return len(reps)


@pytest.mark.parametrize("d,classes", [(7, 3), (11, 2), (29, 5)])
def test_oracle_counts_as_the_unordered_loop(d, classes, spied_class_group):
    F = classify(d)
    fb = build_factor_base(F)
    lattice = copy.deepcopy(spied_class_group(d)[1])
    got = classgroup._oracle_class_number(F, fb, lattice, 12, float("inf"))
    assert got == _unordered_oracle(F, fb, 12) == classes


@pytest.mark.parametrize("d,tests", [(7, 16), (11, 19), (199, 224)])
def test_oracle_tests_the_predicted_class_first(d, tests, monkeypatch):
    calls = []

    def counting(I, search_bound=8):
        calls.append(I)
        return is_principal_bounded(I, search_bound)

    monkeypatch.setattr(classgroup, "is_principal_bounded", counting)
    assert class_group(classify(d)).certified
    assert len(calls) == tests


@pytest.mark.parametrize("d,inverses", [(6, 1), (7, 3), (11, 2), (199, 16)])
def test_oracle_builds_an_inverse_only_when_it_is_read(d, inverses, monkeypatch):
    # one per representative, and one per placed ideal that needed the second quotient
    calls = []

    def counting(I):
        calls.append(I)
        return class_inverse_representative(I)

    monkeypatch.setattr(classgroup, "class_inverse_representative", counting)
    assert class_group(classify(d)).certified
    assert len(calls) == inverses


def test_oracle_witness_across_relation_classes_is_a_relation():
    # the search stops at h = 2 for d = 29; one oracle merge joins two of
    # its relation classes, and that relation gives the true h = 1
    cg = class_group(classify(29))
    assert (cg.h, cg.divisors, cg.p3_type) == (1, (), ())
    assert not cg.certified  # the oracle still counts 5 classes


def test_oracle_inserts_only_true_relations(spied_class_group):
    # with 3L in place of the certified lattice L of d = 7, almost every
    # merge joins two classes of Z^n/3L; each must insert a row of L
    cg, lattice = spied_class_group(7)
    assert cg.h == 3
    F = classify(7)
    fb = build_factor_base(F)
    M = lattice.matrix()
    coarse = HNFLattice(M.cols)
    for i in range(M.rows):
        coarse.insert([3 * x for x in M.row(i)])
    before = coarse.determinant()
    assert classgroup._oracle_class_number(F, fb, coarse, 12, float("inf")) == 3
    assert coarse.determinant() < before
    C = coarse.matrix()
    for i in range(C.rows):
        assert not copy.deepcopy(lattice).insert(C.row(i))


def test_ambiguous_order_examples():
    assert prime_symbols(199).ambiguous_order == 3
    assert prime_symbols(7).ambiguous_order == 3
    for p in primerange(7, 500):
        if p % 3 == 1:
            assert prime_symbols(p).ambiguous_order == 3


def test_ambiguous_order_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_symbols(5).ambiguous_order
    with pytest.raises(ValueError):
        prime_symbols(3).ambiguous_order
    with pytest.raises(ValueError):
        prime_symbols(49).ambiguous_order


def _cg(p3_type, h3):
    return ClassGroupStructure(199, p3_type, h3, h3, p3_type, True)


def test_decide_k_structure_classified_cases():
    rep = decide_k_structure(_cg((9,), 9), u=1)
    assert rep.h_k3 == 27
    assert rep.k_type == "(9,3)"
    assert rep.h_over_27 == "3 does not divide h"
    rep2 = decide_k_structure(_cg((3, 3), 9), u=1)
    assert rep2.k_type == "(3,3,3)"
    assert rep2.h_k3 == 27


def test_decide_k_structure_unclassified():
    rep = decide_k_structure(_cg((9,), 9), u=3)
    assert rep.h_k3 == 81
    assert rep.k_type == "outside classified cases"


def test_decide_k_structure_formula_invariant():
    for u in (1, 3):
        for h3 in (3, 9, 27):
            rep = decide_k_structure(_cg((h3,), h3), u=u)
            assert rep.h_k3 * 3 == u * h3 * h3


def test_decide_k_structure_validation():
    with pytest.raises(ValueError):
        decide_k_structure(_cg((9,), 9), u=2)
    with pytest.raises(ValueError):
        decide_k_structure(ClassGroupStructure(7, (9,), 9, 9, (9,), True), u=1)  # 7 is not 1 mod 9


def test_honda_three_divides_h_exactly_when_p_is_1_mod_3(monkeypatch):
    # Honda (J. Number Theory 3, 1971): for a prime p != 3, 3 | h(Q(cbrt p))
    # exactly when p = 1 (mod 3).  With the oracle off h_rel is the relation
    # lattice's determinant, a multiple of h: a p = 1 (mod 3) with 3 not
    # dividing h_rel would be a false relation, a p = 2 (mod 3) with 3 | h_rel
    # a missed one.
    monkeypatch.setattr(classgroup, "ORACLE_BOUND_LIMIT", 0)
    primes = [p for p in primerange(2, 500) if p != 3]
    wrong = [p for p in primes if (class_group(classify(p)).h % 3 == 0) != (p % 3 == 1)]
    assert len(primes) == 94
    assert wrong == []
