"""Integral ideals of a pure cubic field as canonical HNF lattices.

An ideal is stored as the unique row-HNF basis of its rank-3 lattice over
the verified integral basis of the field, which makes equality,
containment and norms trivial to read off.  Primes above q come from the
factorization of x^3 - d over F_q whenever q is coprime to the index
(3b), and from an exhaustive scan of ideal subspaces of O/qO otherwise
(that covers q = 3 in the second kind and q | b).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import List, Optional, Tuple

from sympy import isprime

from .cubicfield import PureCubicField, split_in_gamma
from .zlinalg import IntMatrix, hnf, lll_reduce


@dataclass(frozen=True)
class ElementGamma:
    """x*w0 + y*w1 + z*w2 over the integral basis of `field`."""

    field: PureCubicField
    x: int
    y: int
    z: int

    def coords(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __mul__(self, other: "ElementGamma") -> "ElementGamma":
        if self.field is not other.field and self.field != other.field:
            raise ValueError("ambient mismatch")
        c = self.field.mul_coords(self.coords(), other.coords())
        return ElementGamma(self.field, *c)

    def norm(self) -> int:
        return self.field.element_norm(self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0


def _lattice_hnf(vectors: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, ...], ...]:
    M = IntMatrix.from_rows([list(v) for v in vectors])
    H, _ = hnf(M)
    rows = [H.row(i) for i in range(H.rows) if any(H.row(i))]
    if len(rows) != 3:
        raise ValueError("generators do not span a full-rank lattice")
    return tuple(rows)


@dataclass(frozen=True)
class IdealHNF:
    field: PureCubicField
    basis: Tuple[Tuple[int, ...], ...]  # 3 rows, upper triangular HNF

    @classmethod
    def from_generators(cls, field: PureCubicField, gens: List[ElementGamma]) -> "IdealHNF":
        unit_vecs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        vecs = []
        for g in gens:
            for w in unit_vecs:
                vecs.append(field.mul_coords(g.coords(), w))
        return cls(field, _lattice_hnf(vecs))

    @classmethod
    def unit_ideal(cls, field: PureCubicField) -> "IdealHNF":
        return cls(field, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

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
        r = list(v)
        for i in (0, 1, 2):
            piv = self.basis[i][i]
            if r[i] % piv != 0:
                return False
            c = r[i] // piv
            for j in range(3):
                r[j] -= c * self.basis[i][j]
        return all(x == 0 for x in r)

    def contains(self, other: "IdealHNF") -> bool:
        return all(self.contains_vector(row) for row in other.basis)

    def elements(self) -> List[ElementGamma]:
        return [ElementGamma(self.field, *row) for row in self.basis]


def mul(I: IdealHNF, J: IdealHNF) -> IdealHNF:
    if I.field != J.field:
        raise ValueError("ambient mismatch")
    vecs = []
    for u in I.basis:
        for v in J.basis:
            vecs.append(I.field.mul_coords(u, v))
    return IdealHNF(I.field, _lattice_hnf(vecs))


def ideal_of_element(alpha: ElementGamma) -> IdealHNF:
    if alpha.is_zero():
        raise ValueError("zero element")
    return IdealHNF.from_generators(alpha.field, [alpha])


def ideal_power(I: IdealHNF, e: int) -> IdealHNF:
    out = IdealHNF.unit_ideal(I.field)
    for _ in range(e):
        out = mul(out, I)
    return out


def _theta(field: PureCubicField) -> ElementGamma:
    return ElementGamma(field, 0, 1, 0)


def _poly_eval_theta(field: PureCubicField, coeffs: List[int]) -> ElementGamma:
    """Evaluate a polynomial (lowest degree first) at theta."""
    acc = ElementGamma(field, 0, 0, 0)
    th = _theta(field)
    power = ElementGamma(field, 1, 0, 0)
    for c in coeffs:
        if c:
            term = ElementGamma(field, c * power.x, c * power.y, c * power.z)
            acc = ElementGamma(field, acc.x + term.x, acc.y + term.y, acc.z + term.z)
        power = power * th
    return acc


def _primes_above_generic(field: PureCubicField, q: int) -> List[Tuple[IdealHNF, int, int]]:
    """Primes above q via maximal ideals of O/qO; only used for tiny q | 3b."""
    q_ideal = IdealHNF.from_integer(field, q)
    unit_vecs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def span_closed(vectors):
        """HNF lattice of q*O + Z-span(vectors), closed under the ring action."""
        vecs = [(q, 0, 0), (0, q, 0), (0, 0, q)]
        frontier = list(vectors)
        while frontier:
            vecs.extend(frontier)
            basis = _lattice_hnf(vecs)
            new = []
            for row in basis:
                for w in unit_vecs:
                    prod = field.mul_coords(row, w)
                    tmp = IdealHNF(field, basis)
                    if not tmp.contains_vector(prod):
                        new.append(prod)
            frontier = new
            vecs = [list(r) for r in basis]
        return IdealHNF(field, _lattice_hnf([tuple(v) for v in vecs]))

    # candidate ideals of norm q and q^2: generated by one vector mod q
    found = {}
    for v in iproduct(range(q), repeat=3):
        if v == (0, 0, 0):
            continue
        I = span_closed([v])
        n = I.norm()
        if n in (q, q * q) and I.basis not in found:
            found[I.basis] = I
    cands = list(found.values())
    # keep the maximal ones (a strictly larger proper ideal above q exists -> not prime)
    primes = []
    for I in cands:
        if any(J is not I and J.norm() < I.norm() and J.contains(I) for J in cands):
            continue
        if I.basis not in [p.basis for p in primes]:
            primes.append(I)
    if not primes:  # inert
        return [(q_ideal, 1, 3)]
    out = []
    for P in primes:
        f = 1 if P.norm() == q else 2
        e = valuation(q_ideal, P)
        out.append((P, e, f))
    return out


def primes_above(field: PureCubicField, q: int) -> List[Tuple[IdealHNF, int, int]]:
    """Prime ideals above q as (ideal, e, f), consistent with split_in_gamma."""
    if not isprime(q):
        raise ValueError("q must be prime")
    if (3 * field.b) % q == 0:
        out = _primes_above_generic(field, q)
    else:
        from sympy import GF, Poly, Symbol

        x = Symbol("x")
        fac = Poly(x ** 3 - field.d, x, modulus=None, domain=GF(q)).factor_list()[1]
        out = []
        for poly, mult in fac:
            coeffs = [int(c) % q for c in reversed(poly.all_coeffs())]
            gen = _poly_eval_theta(field, coeffs)
            P = IdealHNF.from_generators(
                field, [ElementGamma(field, q, 0, 0), gen]
            )
            out.append((P, mult, poly.degree()))
    pattern = sorted((e, f) for _, e, f in out)
    expected = list(split_in_gamma(field, q).pairs)
    if pattern != expected:
        raise ArithmeticError(f"primes above {q} disagree with the splitting law")
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


def is_principal_bounded(I: IdealHNF, search_bound: int = 8) -> Optional[ElementGamma]:
    """One-sided principality test.

    Searches coefficient boxes over an LLL-reduced basis of the ideal
    lattice; a miss within the bound proves nothing.  The norm of
    c0*r0 + c1*r1 + c2*r2 is composed once into a cubic form in
    (c0, c1, c2), so each box point costs one Horner step in c2.
    """
    field = I.field
    target = I.norm()
    red = lll_reduce([list(r) for r in I.basis])
    f = field.norm_form(red)
    # for fixed (c0, c1) the norm is a3*c2^3 + a2*c2^2 + a1*c2 + a0 (see CUBIC_MONOMIALS)
    a3 = f[9]
    B = search_bound
    for c0 in range(-B, B + 1):
        for c1 in range(-B, B + 1):
            a2 = f[5] * c0 + f[8] * c1
            a1 = (f[2] * c0 + f[4] * c1) * c0 + f[7] * c1 * c1
            a0 = ((f[0] * c0 + f[1] * c1) * c0 + f[3] * c1 * c1) * c0 + f[6] * c1 * c1 * c1
            # sign symmetry: -alpha generates the same ideal; skip the origin
            for c2 in range(1 if c0 == 0 and c1 == 0 else 0, B + 1):
                n = ((a3 * c2 + a2) * c2 + a1) * c2 + a0
                if n == target or n == -target:
                    # alpha lies in I and generates a sublattice of equal norm
                    alpha = ElementGamma(
                        field, *(c0 * red[0][i] + c1 * red[1][i] + c2 * red[2][i] for i in range(3))
                    )
                    if alpha.norm() != n:
                        raise ArithmeticError(
                            f"composed norm form gives {n} at {alpha.coords()}, "
                            f"element_norm gives {alpha.norm()}"
                        )
                    return alpha
    return None


def ideal_quotient(A: IdealHNF, B: IdealHNF) -> IdealHNF:
    """(A : B) = {x in O : x*B within A}, as an ideal of O (assumes it is integral)."""
    if A.field != B.field:
        raise ValueError("ambient mismatch")
    field = A.field
    n = A.norm()
    # x*b_j in A  <=>  adj(H_A) * M_j * x == 0 (mod det H_A)
    HA = IntMatrix.from_rows([list(r) for r in A.basis]).transpose()  # columns = basis
    adj = _adjugate3(HA)
    rows = []
    for b in B.basis:
        Mb = field.regular_representation(b)
        prod = adj @ Mb
        for i in range(3):
            rows.append([prod[i, j] % n for j in range(3)])
    K = _congruence_kernel(rows, n)
    return IdealHNF(field, _lattice_hnf(K))


def _congruence_kernel(rows: List[List[int]], n: int) -> List[Tuple[int, int, int]]:
    """Lattice of x in Z^3 with rows @ x == 0 mod n."""
    from .zlinalg import kernel

    m = len(rows)
    # unknowns: x (3) and slack y (m); constraint rows @ x + n*y = 0
    M = IntMatrix.from_rows(
        [rows[i] + [n if j == i else 0 for j in range(m)] for i in range(m)]
    )
    ker = kernel(M)
    vecs = [tuple(v[:3]) for v in ker]
    vecs = [v for v in vecs if any(v)]
    # the solution lattice always contains n*Z^3
    vecs.extend([(n, 0, 0), (0, n, 0), (0, 0, n)])
    return vecs


def _adjugate3(M: IntMatrix) -> IntMatrix:
    m = M.to_lists()
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [
                [m[r][c] for c in range(3) if c != i] for r in range(3) if r != j
            ]
            sgn = -1 if (i + j) % 2 else 1
            adj[i][j] = sgn * (sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
    return IntMatrix.from_rows(adj)


def class_inverse_representative(J: IdealHNF) -> IdealHNF:
    """An integral ideal in the inverse class of J: N(J) * J^{-1} = ((N(J)) : J)."""
    return ideal_quotient(IdealHNF.from_integer(J.field, J.norm()), J)
