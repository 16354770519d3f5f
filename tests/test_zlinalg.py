"""Exact integer linear algebra: HNF, SNF, determinants, LLL."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecubic import classgroup, ideals
from purecubic.cubicfield import classify
from purecubic.zlinalg import HNFLattice, IntMatrix, _xgcd, det, hnf, lll_reduce, snf
from relation_search import spied_search
from sparse_rows import dense, sparse

small_entries = st.integers(min_value=-30, max_value=30)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


def test_hnf_known_example():
    assert hnf(IntMatrix.from_rows([[4, 6], [2, 2]])) == IntMatrix.from_rows([[2, 0], [0, 2]])


def test_snf_known_example():
    d = snf(IntMatrix.from_rows([[2, 4], [4, 4]]))
    assert list(d) == [2, 4]


def test_snf_zero_matrix():
    d = snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert list(d) == [0, 0]


@pytest.mark.parametrize(
    "rows, divisors",
    [
        ([[2, 0], [0, 3]], [1, 6]),  # diagonal at once: only the gcd/lcm fold makes 1 | 6
        ([[0, 5]], [5]),  # the row form leaves its pivot in column 1
        ([[0, 0, 0], [0, 6, 0]], [6, 0]),  # rank deficient: the zero comes last
        ([[2, 3]], [1]),  # the row form is not diagonal: a column pass is needed
    ],
)
def test_snf_known_answers(rows, divisors):
    assert snf(IntMatrix.from_rows(rows)) == divisors


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_hnf_spans_the_row_lattice(M):
    # the reduced HNF of a lattice is unique, so the nonzero rows of H must
    # be the basis that the dense reference lattice builds from M's rows
    H = hnf(M)
    assert (H.rows, H.cols) == (M.rows, M.cols)
    ref = DenseHNFLattice(M.cols)
    for i in range(M.rows):
        ref.insert(M.row(i))
    basis = [tuple(ref._basis[c]) for c in sorted(ref._basis)]
    assert [H.row(i) for i in range(H.rows) if any(H.row(i))] == basis


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_hnf_shape(M):
    H = hnf(M)
    pivots = []
    for i in range(H.rows):
        row = H.row(i)
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        pivots.append(j)
        # entries above a pivot are reduced modulo it
        for i2 in range(i):
            assert 0 <= H[i2, j] < row[j]
    assert pivots == sorted(pivots)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_snf_divisibility_chain(M):
    d = snf(M)
    assert len(d) == min(M.rows, M.cols)
    positive = [x for x in d if x != 0]
    assert d == positive + [0] * (len(d) - len(positive))
    for a, b in zip(positive, positive[1:]):
        assert b % a == 0
    # d_1 ... d_k is the gcd of all k x k minors (the k-th determinantal divisor)
    prod = 1
    for k in range(1, len(d) + 1):
        prod *= d[k - 1]
        assert prod == _determinantal_divisor(M, k)


def _determinantal_divisor(M, k):
    g = 0
    for rs in combinations(range(M.rows), k):
        for cs in combinations(range(M.cols), k):
            g = gcd(g, det(IntMatrix.from_rows([[M[i, j] for j in cs] for i in rs])))
    return g


def _direct_divisors(rows, n):
    """Elementary divisors of Z^n / rowspan from one SNF of every row, or None below full rank."""
    d = snf(IntMatrix.from_rows(rows)) + [0] * n
    return None if 0 in d[:n] else d[:n]


def _rank_and_gram_det(rows):
    """(rank, det(H H^T)) for the nonzero rows H of the HNF of `rows`.

    A lattice contains another exactly when it contains its rows, and then
    the two are equal exactly when rank and Gram determinant both agree.
    """
    H = hnf(IntMatrix.from_rows(rows))
    basis = [H.row(i) for i in range(H.rows) if any(H.row(i))]
    if not basis:
        return 0, 1
    gram = [[sum(x * y for x, y in zip(a, b)) for b in basis] for a in basis]
    return len(basis), det(IntMatrix.from_rows(gram))


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=10),
    )
))
@settings(max_examples=150, deadline=None)
def test_hnf_lattice_matches_direct_snf(case):
    n, rows = case
    lat = HNFLattice(n)
    seen = []
    for row in rows:
        before = _rank_and_gram_det(seen) if seen else (0, 1)
        changed = lat.insert(sparse(row))
        seen.append(row)
        assert changed == (_rank_and_gram_det(seen) != before)
        expect = _direct_divisors(seen, n)
        assert (lat.rank == n) == (expect is not None)
        if lat.rank:
            # the reduced HNF is unique: the nonzero rows of a batch HNF
            H = hnf(IntMatrix.from_rows(seen))
            assert lat.matrix() == IntMatrix.from_rows([H.row(i) for i in range(lat.rank)])
        if expect is not None:
            assert snf(lat.matrix()) == expect
            assert lat.elementary_divisors() == tuple(x for x in expect if x > 1)
            h = 1
            for x in expect:
                h *= x
            assert lat.determinant() == h
        else:
            assert lat.determinant() is None


def test_hnf_lattice_known_example():
    lat = HNFLattice(2)
    assert lat.insert(sparse([4, 6])) is True
    assert lat.insert(sparse([8, 12])) is False  # already in the lattice
    assert lat.rank == 1 and lat.determinant() is None
    assert lat.insert(sparse([2, 2])) is True
    assert lat.matrix() == IntMatrix.from_rows([[2, 0], [0, 2]])
    assert lat.determinant() == 4
    assert lat.insert(sparse([0, -2])) is False
    assert lat.insert(sparse([0, 1])) is True
    assert snf(lat.matrix()) == [1, 2]
    assert lat.elementary_divisors() == (2,)


def _euclid_xgcd(a, b):
    """Reference Bezout coefficients by the extended Euclidean loop:
    (g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


xgcd_args = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(2**80), 2**80))


@given(xgcd_args, xgcd_args)
@settings(max_examples=300, deadline=None)
def test_xgcd_is_a_bezout_identity(a, b):
    g, s, t = _xgcd(a, b)
    assert g == gcd(a, b) >= 0
    assert s * a + t * b == g


class DenseHNFLattice:
    """Reference: the same reduced HNF lattice with dense list rows.

    Each insert walks every column of the row, and the re-reduction
    rewrites whole row tails; the library keeps sparse rows instead.  Its
    Bezout coefficients come from its own Euclidean loop, not `_xgcd`.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._basis = {}

    @property
    def rank(self):
        return len(self._basis)

    def determinant(self):
        if self.rank < self.ncols:
            return None
        out = 1
        for c, row in self._basis.items():
            out *= row[c]
        return out

    def matrix(self):
        return IntMatrix.from_rows([self._basis[c] for c in sorted(self._basis)])

    def insert(self, row):
        n = self.ncols
        v = [int(x) for x in row]
        changed = []
        for j in range(n):
            x = v[j]
            if x == 0:
                continue
            h = self._basis.get(j)
            if h is None:
                self._basis[j] = v if x > 0 else [-y for y in v]
                changed.append(j)
                break
            p = h[j]
            if x % p == 0:
                q = x // p
                v[j:] = [z - q * y for y, z in zip(h[j:], v[j:])]
                continue
            g, s, t = _euclid_xgcd(p, x)
            a, b = p // g, x // g
            self._basis[j] = h[:j] + [s * y + t * z for y, z in zip(h[j:], v[j:])]
            v = v[:j] + [a * z - b * y for y, z in zip(h[j:], v[j:])]
            changed.append(j)
        if changed:
            self._reduce(changed)
        return bool(changed)

    def _reduce(self, changed):
        cols = sorted(self._basis)
        for c in cols:
            r = self._basis[c]
            if c in changed:
                start = c + 1
            else:
                start = next((k for k in changed if k > c and not 0 <= r[k] < self._basis[k][k]), None)
                if start is None:
                    continue
            for k in cols[bisect_left(cols, start) :]:
                h = self._basis[k]
                q = r[k] // h[k]
                if q:
                    r[k:] = [y - q * z for y, z in zip(r[k:], h[k:])]


# entries of a relation-like row: mostly small, some large
lattice_entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def sparse_runs(draw, max_n=40):
    """(n, rows): sparse rows with a few entries each, some of them integer
    combinations of earlier rows, so runs stay below full rank or revisit
    the lattice they built; half the runs end with c*e_k for every column,
    which brings them to full rank."""
    n = draw(st.integers(1, max_n))
    rows = []
    for _ in range(draw(st.integers(1, n + 10))):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(u, w)])
            continue
        entries = draw(st.dictionaries(st.integers(0, n - 1), lattice_entries, max_size=4))
        rows.append([entries.get(k, 0) for k in range(n)])
    if draw(st.booleans()):
        rows += [[draw(st.integers(1, 6)) if j == k else 0 for j in range(n)] for k in range(n)]
    return n, rows


def _sparse_invariant(lat):
    """Every stored entry is nonzero, no row has an entry before its pivot,
    and every entry at another row's pivot column k lies in [0, pivot of k)."""
    basis = lat._basis
    for c, row in basis.items():
        assert all(row.values()), (c, row)
        assert min(row) == c and row[c] > 0, (c, row)
        assert all(0 <= x < basis[k][k] for k, x in row.items() if k != c and k in basis), (c, row)


@given(sparse_runs())
@settings(max_examples=150, deadline=None)
def test_sparse_lattice_matches_dense_reference(case):
    n, rows = case
    lat, ref = HNFLattice(n), DenseHNFLattice(n)
    for row in rows:
        assert lat.insert(sparse(row)) == ref.insert(row)
        _sparse_invariant(lat)
        assert (lat.rank, lat.determinant()) == (ref.rank, ref.determinant())
        if lat.rank:
            assert lat.matrix() == ref.matrix()


@given(sparse_runs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_pivot_block_divisors_match_full_snf(case):
    n, rows = case
    lat = HNFLattice(n)
    for row in rows:
        lat.insert(sparse(row))
    for k in range(n):  # full rank, some pivots 1
        lat.insert(sparse([1 + k % 3 if j == k else 0 for j in range(n)]))
    assert lat.elementary_divisors() == tuple(x for x in snf(lat.matrix()) if x > 1)


def test_pivot_block_without_pivots_above_one():
    lat = HNFLattice(3)
    for row in ([1, 5, -2], [0, 1, 7], [0, 0, -1]):
        lat.insert(sparse(row))
    assert lat.determinant() == 1
    assert lat.elementary_divisors() == ()


def test_pivot_block_below_full_rank():
    lat = HNFLattice(3)
    lat.insert(sparse([2, 0, 1]))
    lat.insert(sparse([0, 3, 0]))
    with pytest.raises(ValueError):
        lat.elementary_divisors()


@pytest.mark.parametrize("row", [{3: 1}, {-1: 2}, {0: 1, 5: -1}, {4: 0}])
def test_lattice_rejects_a_column_outside_its_dimension(row):
    lat = HNFLattice(3)
    lat.insert({0: 2, 2: 1})
    for method in (lat.insert, lat.residue):
        with pytest.raises(ValueError, match="outside the lattice dimension"):
            method(row)
    assert dense(lat.residue({0: 5, 1: 0, 2: 1}), 3) == (1, 0, -1)
    assert lat.matrix() == IntMatrix.from_rows([[2, 0, 1]])


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_lll_preserves_lattice(rows):
    M = IntMatrix.from_rows(rows)
    if det(M) == 0:
        return
    red = lll_reduce(rows)
    # same determinant up to sign and mutual membership via exact solves
    assert abs(det(IntMatrix.from_rows(red))) == abs(det(M))
    for v in red:
        assert _in_lattice(rows, v)
    for v in rows:
        assert _in_lattice(red, v)


def _gso_lll(basis):
    """Reference LLL: the whole Gram-Schmidt recomputed after every step."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)

    def gso():
        mu = [[Fraction(0) for _ in range(n)] for _ in range(n)]
        bs = []
        norms = []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = sum(Fraction(b[i][k]) * bs[j][k] for k in range(len(v))) / norms[j]
                v = [v[k] - mu[i][j] * bs[j][k] for k in range(len(v))]
            bs.append(v)
            norms.append(sum(x * x for x in v))
        return mu, norms

    k = 1
    mu, norms = gso()
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gso()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


@given(st.lists(st.lists(st.integers(-300, 300), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_lll_matches_gso_recomputation(rows):
    if det(IntMatrix.from_rows(rows)) == 0:
        with pytest.raises(ValueError):
            lll_reduce(rows)
        return
    assert lll_reduce(rows) == _gso_lll(rows)


@pytest.mark.parametrize("rows", [
    [[2, 0, 0], [1, 1, 0], [0, 0, 1]],  # mu_10 = 1/2
    [[2, 0, 0], [-1, 1, 0], [0, 0, 1]],  # mu_10 = -1/2
    [[2, 0, 0], [3, 1, 0], [0, 0, 1]],  # mu_10 = 3/2
    [[2, 0, 0], [-3, 1, 0], [0, 0, 1]],  # mu_10 = -3/2
    [[2, 0, 0], [0, 3, 0], [1, 0, 5]],  # mu_20 = 1/2
    [[2, 0, 0], [0, 2, 0], [3, -1, 7]],  # mu_21 = -1/2, then mu_20 = 3/2
    [[4, 0, 0], [0, 4, 0], [-6, 2, 1]],  # mu_21 = 1/2, then mu_20 = -3/2
    [[1, 1, 0], [0, 1, 1], [3, 0, 3]],  # mu_10 = 1/2
])
def test_lll_rounds_half_to_even_as_the_gso_reference(rows):
    # a coefficient mu exactly halfway between integers rounds to the even one
    assert lll_reduce(rows) == _gso_lll(rows)


def test_lll_rejects_a_dependent_basis():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


@pytest.mark.parametrize("d", [7, 11])
def test_lll_matches_gso_recomputation_on_oracle_ideals(d, monkeypatch):
    # with no relations the oracle tests every representative in order of
    # creation, so one field gives many bases
    bases = []

    def recording(basis):
        bases.append([list(r) for r in basis])
        return lll_reduce(basis)

    monkeypatch.setattr(ideals, "lll_reduce", recording)
    F = classify(d)
    fb = classgroup.build_factor_base(F)
    lattice = HNFLattice(len(fb.primes))
    classgroup._oracle_class_number(F, fb, lattice, 0, deadline=float("inf"))
    assert len(bases) > 20
    for basis in bases:
        assert lll_reduce(basis) == _gso_lll(basis)


def test_lll_matches_gso_recomputation_on_certified_fields(monkeypatch):
    # each principality test of the oracle reduces one ideal basis; the
    # predicted class goes first, so the four fields pool their few tests
    bases, found = [], []

    def recording(basis):
        bases.append([list(r) for r in basis])
        return lll_reduce(basis)

    def principal(I, search_bound=8):
        gen = ideals.is_principal_bounded(I, search_bound)
        found.append(gen is not None)
        return gen

    monkeypatch.setattr(ideals, "lll_reduce", recording)
    monkeypatch.setattr(classgroup, "is_principal_bounded", principal)
    for d in (7, 11, 44, 242):
        # the oracle as class_group runs it, on the searched lattice; 44 and
        # 242 end their search at h_rel = 1, so class_group no longer runs it
        F = classify(d)
        inserts, lattice = spied_search(F)
        fb = classgroup.build_factor_base(F)
        classes = classgroup._oracle_class_number(F, fb, lattice, len(inserts), float("inf"))
        assert classes == lattice.determinant()
    assert len(bases) == len(found) >= 60
    assert set(found) == {True, False}
    for basis in bases:
        assert lll_reduce(basis) == _gso_lll(basis)


def _in_lattice(basis, v):
    # solve c * basis = v over the rationals, require integer c
    a =[[Fraction(basis[r][c]) for r in range(3)] for c in range(3)]
    b = [Fraction(x) for x in v]
    for col in range(3):
        piv = next((r for r in range(col, 3) if a[r][col] != 0), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(3):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return all(x.denominator == 1 for x in b)
