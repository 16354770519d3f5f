"""Integral ideals of a pure cubic field as canonical HNF lattices.

An element is its coordinate triple (x, y, z) over the verified integral
basis (w0, w1, w2) of the field, with theta = w1.  An ideal is stored as
the unique row-HNF basis of its rank-3 lattice over the same basis,
which makes equality, containment and norms trivial to read off.  A
prime of degree 1 above q is the kernel of a ring map O -> F_q
(`cubicfield.ring_maps`), and the one prime of degree 2, when q has one,
is (q, theta^2 + r*theta + r^2) for the root r of x^3 - d mod q.
A product of ideals of pairwise coprime norm is checked, not computed:
`is_coprime_product` tests the CRT congruences that tie its HNF entries
to theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Iterator, List, Optional, Tuple

from .cubicfield import _UNIT_VECTORS, PureCubicField, ring_maps, split_in_gamma
from .zlinalg import _xgcd, lll_reduce


def _lattice_hnf(vectors: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row HNF of the Z-span of `vectors`: upper triangular, positive
    pivots, entries above a pivot in [0, pivot) -- the nonzero rows of
    `zlinalg.hnf` (Cohen, GTM 138, 2.4.3).

    Each vector is inserted in turn into three pivot rows held as scalars,
    (a, b, c), (0, d, e) and (0, 0, f), a zero pivot meaning none yet: in
    columns 0 and 1 an exact division clears the entry, or else an
    extended-gcd step moves the gcd into the pivot; column 2 keeps a gcd.
    Then the first two pivots are made positive and the entries above
    the pivots reduced.  A vector that meets an empty pivot becomes that pivot unchanged, so
    leading rows that are already triangular are taken as they stand.
    """
    a = b = c = d = e = f = 0
    for x, y, z in vectors:
        if x:
            if not a:
                a, b, c = x, y, z
                continue
            if x % a:
                # unimodular [[s, t], [-x/g, a/g]] on (pivot, v): pivot gets g, v gets 0
                g, s, t = _xgcd(a, x)
                m, n = a // g, x // g
                a, b, c, y, z = g, s * b + t * y, s * c + t * z, m * y - n * b, m * z - n * c
            else:
                q = x // a
                y -= q * b
                z -= q * c
        if y:
            if not d:
                d, e = y, z
                continue
            if y % d:
                g, s, t = _xgcd(d, y)
                m, n = d // g, y // g
                d, e, z = g, s * e + t * z, m * z - n * e
            else:
                z -= y // d * e
        if z:
            f = gcd(f, z)
    if not (a and d and f):
        raise ValueError("generators do not span a full-rank lattice")
    if a < 0:
        a, b, c = -a, -b, -c
    if d < 0:
        d, e = -d, -e
    q = b // d
    return ((a, b - q * d, (c - q * e) % f), (0, d, e % f), (0, 0, f))


@dataclass(frozen=True)
class IdealHNF:
    field: PureCubicField
    basis: Tuple[Tuple[int, ...], ...]  # 3 rows, upper triangular HNF

    @classmethod
    def from_generators(
        cls, field: PureCubicField, gens: List[Tuple[int, int, int]]
    ) -> "IdealHNF":
        vecs = []
        for g in gens:
            # g * w0 is g
            vecs += [g, field.mul_coords(g, _UNIT_VECTORS[1]), field.mul_coords(g, _UNIT_VECTORS[2])]
        return cls(field, _lattice_hnf(vecs))

    @classmethod
    def unit_ideal(cls, field: PureCubicField) -> "IdealHNF":
        return cls(field, _UNIT_VECTORS)

    @classmethod
    def from_integer(cls, field: PureCubicField, n: int) -> "IdealHNF":
        if n == 0:
            raise ValueError("zero ideal")
        n = abs(n)
        return cls(field, ((n, 0, 0), (0, n, 0), (0, 0, n)))

    def norm(self) -> int:
        return self.basis[0][0] * self.basis[1][1] * self.basis[2][2]

    def contains_vector(self, v: Tuple[int, int, int]) -> bool:
        # rows are upper triangular: coordinate i is produced by row i alone
        # once the earlier rows have been eliminated, so reduce top-down
        (a, b, c), (_, d, e), (_, _, f) = self.basis
        x, y, z = v
        if x % a:
            return False
        q = x // a
        y -= q * b
        if y % d:
            return False
        return (z - q * c - y // d * e) % f == 0

    def contains(self, other: "IdealHNF") -> bool:
        return all(self.contains_vector(row) for row in other.basis)


def mul(I: IdealHNF, J: IdealHNF) -> IdealHNF:
    if I.field is not J.field and I.field != J.field:
        raise ValueError("ambient mismatch")
    vecs = []
    for u in I.basis:
        for v in J.basis:
            vecs.append(I.field.mul_coords(u, v))
    return IdealHNF(I.field, _lattice_hnf(vecs))


def is_coprime_product(H: IdealHNF, parts: List[IdealHNF]) -> bool:
    """Whether H is the product of `parts`, ideals of pairwise coprime norm.

    Coprime norms make the product the intersection of the parts, whose
    HNF is the CRT lift of theirs (Cohen, GTM 138, 1.3.3 and 4.7): its
    pivots are the products of the parts' pivots, and its rows lie in
    every part.  A vector (x, y, z) lies in ((a, b, c), (0, d, e),
    (0, 0, f)) exactly when a | x, d | y - (x/a)*b and
    f | z - (x/a)*c - ((y - (x/a)*b)/d)*e, so for H = ((A, B, C),
    (0, D, E), (0, 0, F)) that asks d | B - (A/a)*b, f | E - (D/d)*e and
    f | C - (A/a)*c - ((B - (A/a)*b)/d)*e of each part.  A sublattice of
    the product with the product's index is the product, so for H in
    canonical HNF these congruences decide equality.  No inverse is taken
    and no ideal built.
    """
    (A, B, C), (_, D, E), (_, _, F) = H.basis
    pa = pd = pf = 1
    for P in parts:
        if P.field is not H.field and P.field != H.field:
            raise ValueError("ambient mismatch")
        (a, _, _), (_, d, _), (_, _, f) = P.basis
        if gcd(pa * pd * pf, a * d * f) != 1:
            raise ValueError("norms are not coprime")
        pa, pd, pf = pa * a, pd * d, pf * f
    if (A, D, F) != (pa, pd, pf):
        return False
    for P in parts:
        (a, b, c), (_, d, e), (_, _, f) = P.basis
        ra = A // a
        y = B - ra * b
        if y % d or (E - D // d * e) % f or (C - ra * c - y // d * e) % f:
            return False
    return True


def ideal_of_element(field: PureCubicField, v: Tuple[int, int, int]) -> IdealHNF:
    if not any(v):
        raise ValueError("zero element")
    return IdealHNF.from_generators(field, [v])


def primes_above(field: PureCubicField, q: int) -> List[Tuple[IdealHNF, int, int]]:
    """Prime ideals above q as (ideal, e, f), consistent with split_in_gamma.

    The primes of degree 1 are the kernels x0 + s*x1 + t*x2 = 0 (mod q) of
    the ring maps O -> F_q, in ring-map order (as `ring_maps` gives them).
    For q | 3d each e is read off qO by `valuation`.  Otherwise, when x^3 - d
    has the single root r mod q, the degree-2 prime is
    (q, theta^2 + r*theta + r^2); with no root q is inert (Cohen, GTM 138, 6.2).
    """
    maps = ring_maps(field, q)  # raises ValueError unless q is prime
    q_ideal = IdealHNF.from_integer(field, q)
    kernels = [IdealHNF(field, _lattice_hnf([(q, 0, 0), (-s, 1, 0), (-t, 0, 1)])) for s, t in maps]
    if (3 * field.d) % q == 0:
        out = [(P, valuation(q_ideal, P), 1) for P in kernels]
    else:
        out = [(P, 1, 1) for P in kernels]
        if len(maps) == 1:  # x^3 - d = (x - r)(x^2 + r*x + r^2)
            r = maps[0][0]
            x, y, z = field.mul_coords((0, 1, 0), (0, 1, 0))  # theta = w1
            g = (x + r * r % q, y + r, z)
            out.append((IdealHNF.from_generators(field, [(q, 0, 0), g]), 1, 2))
        out = out or [(q_ideal, 1, 3)]
    pattern = sorted((e, f) for _, e, f in out)
    expected = list(split_in_gamma(field, q).pairs)
    if pattern != expected:
        raise ArithmeticError(f"primes above {q} disagree with the splitting law")
    if any(P.norm() != q ** f for P, _, f in out):
        raise ArithmeticError(f"a prime above {q} has the wrong norm")
    if reduce(mul, [P for P, e, _ in out for _ in range(e)]) != q_ideal:
        raise ArithmeticError(f"the primes above {q} do not reassemble {q}O")
    return out


def valuation(I: IdealHNF, P: IdealHNF) -> int:
    """Largest k with I contained in P^k (P prime)."""
    if P.norm() == 1:
        raise ValueError("unit ideal is not prime")
    k = 0
    power = P
    while power.contains(I):
        k += 1
        power = mul(power, P)
    return k


def _ring_pairs(B: int) -> Iterator[Tuple[int, int]]:
    """The pairs (c0, c1) of [-B, B]^2 in rings of increasing max(|c0|, |c1|),
    lexicographic within a ring."""
    yield 0, 0
    for r in range(1, B + 1):
        edge = range(-r, r + 1)
        side = (-r, r)
        for c0 in edge:
            for c1 in edge if c0 == -r or c0 == r else side:
                yield c0, c1


def is_principal_bounded(I: IdealHNF, search_bound: int = 8) -> Optional[Tuple[int, int, int]]:
    """One-sided principality test.

    Searches the coefficient box c0, c1 in [-B, B], c2 in [0, B] (origin
    skipped; -alpha generates the same ideal) over an LLL-reduced basis of
    the ideal lattice; a miss within the bound proves nothing.  The pairs
    (c0, c1) go in rings of increasing max(|c0|, |c1|), lexicographic
    within a ring, and c2 ascends for each pair, so the generator returned
    is the first in that order: a short one, since the basis is reduced.
    The norm of c0*r0 + c1*r1 + c2*r2 is composed once into a cubic form
    in (c0, c1, c2), so each box point costs one Horner step in c2; a hit
    is checked again by `element_norm`.
    """
    field = I.field
    target = I.norm()
    red = lll_reduce([list(r) for r in I.basis])
    f = field.norm_form(red)
    # for fixed (c0, c1) the norm is a3*c2^3 + a2*c2^2 + a1*c2 + a0 (see CUBIC_MONOMIALS)
    a3 = f[9]
    B = search_bound
    for c0, c1 in _ring_pairs(B):
        a2 = f[5] * c0 + f[8] * c1
        a1 = (f[2] * c0 + f[4] * c1) * c0 + f[7] * c1 * c1
        a0 = ((f[0] * c0 + f[1] * c1) * c0 + f[3] * c1 * c1) * c0 + f[6] * c1 * c1 * c1
        for c2 in range(0 if c0 or c1 else 1, B + 1):
            n = ((a3 * c2 + a2) * c2 + a1) * c2 + a0
            if n == target or n == -target:
                # alpha lies in I and generates a sublattice of equal norm
                alpha = tuple(c0 * red[0][i] + c1 * red[1][i] + c2 * red[2][i] for i in range(3))
                m = field.element_norm(alpha)
                if m != n:
                    raise ArithmeticError(
                        f"composed norm form gives {n} at {alpha}, element_norm gives {m}"
                    )
                return alpha
    return None


def class_inverse_representative(J: IdealHNF) -> IdealHNF:
    """N(J) * J^{-1}, an integral ideal in the inverse class of J.

    With n = N(J), an x in O lies in n*J^{-1} exactly when M_r*x == 0
    (mod n) for each basis row r of J, M_r the matrix of multiplication
    by r.  The rows of the M_r and n*Z^3 span a lattice L with triangular
    HNF H = ((a, b, c), (0, d, e), (0, 0, f)); the solutions n*L* are
    spanned by the columns of n*adj(H)/det(H) (Cohen, GTM 138, 4.8),
    n/det(H) times (df, 0, 0), (-bf, af, 0) and (be - cd, -ae, ad).
    """
    n = J.norm()
    rows = [(n, 0, 0), (0, n, 0), (0, 0, n)]
    for r in J.basis:
        # column i of M_r is r * w_i
        rows += zip(*(J.field.mul_coords(r, w) for w in _UNIT_VECTORS))
    (a, b, c), (_, d, e), (_, _, f) = _lattice_hnf(rows)
    det_h = a * d * f
    adj = ((d * f, 0, 0), (-b * f, a * f, 0), (b * e - c * d, -a * e, a * d))
    if any(n * x % det_h for col in adj for x in col):
        raise ArithmeticError(f"n*adj(H)/det(H) is not integral (n={n}, det(H)={det_h})")
    return IdealHNF(J.field, _lattice_hnf([tuple(n * x // det_h for x in col) for col in adj]))
