"""Pure cubic fields Q(cbrt(d)): integral basis, discriminant, splitting laws.

A field is of the *first kind* when a^2 != b^2 (mod 9) (writing d = a*b^2
with a, b coprime and cube-free) and of the *second kind* otherwise.  For
the first kind the ring of integers is Z + Z*theta + Z*theta^2/b; for the
second kind there is an extra denominator 3, and rather than transcribing
a formula we search the nine candidate glue vectors and keep the one whose
lattice is closed under multiplication, verifying the discriminant drop
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Sequence, Tuple

from sympy import factorint, isprime

from .zlinalg import IntMatrix, det


@dataclass(frozen=True)
class SplitPattern:
    """Multiset of (ramification e, residue degree f) pairs above one prime."""

    pairs: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, *pairs: Tuple[int, int]) -> "SplitPattern":
        return cls(tuple(sorted(pairs)))

    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)


def _cube_free_split(d: int) -> Tuple[int, int]:
    a = b = 1
    for p, e in factorint(d).items():
        if e == 1:
            a *= p
        elif e == 2:
            b *= p
        else:
            raise ValueError(f"{d} is not cube-free")
    return a, b


# multiplication table over the order Z[theta, thetabar], thetabar = theta^2/b:
#   theta * theta   = b * thetabar
#   theta * thetabar = a*b
#   thetabar^2      = a * theta
def _seed_table(a: int, b: int):
    def mul(u, v):
        # u, v coords over (1, theta, thetabar) -> product coords
        c0 = u[0] * v[0] + a * b * (u[1] * v[2] + u[2] * v[1])
        c1 = u[0] * v[1] + u[1] * v[0] + a * u[2] * v[2]
        c2 = u[0] * v[2] + u[2] * v[0] + b * u[1] * v[1]
        return (c0, c1, c2)

    return mul


#: exponents (i, j, k) of c0^i * c1^j * c2^k: the coefficient order of a cubic form
CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
_UNIT_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _det3(u, v, w) -> int:
    """Determinant of the 3x3 matrix with columns u, v, w."""
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        + u[1] * (v[2] * w[0] - v[0] * w[2])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


@dataclass(frozen=True)
class PureCubicField:
    d: int
    a: int
    b: int
    kind: str  # "first" | "second"
    disc: int
    #: coords of each integral basis element over (1, theta, theta^2),
    #: as (n0, n1, n2, denominator)
    basis_theta_repr: Tuple[Tuple[int, int, int, int], ...]
    #: integer structure constants: table[i][j] = coords of w_i * w_j
    table: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    #: the norm as a cubic form in integral-basis coordinates, over CUBIC_MONOMIALS
    form: Tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "form", self.norm_form(_UNIT_VECTORS))

    def mul_coords(self, u, v) -> Tuple[int, int, int]:
        out = [0, 0, 0]
        for i in range(3):
            if u[i] == 0:
                continue
            for j in range(3):
                if v[j] == 0:
                    continue
                c = u[i] * v[j]
                t = self.table[i][j]
                out[0] += c * t[0]
                out[1] += c * t[1]
                out[2] += c * t[2]
        return (out[0], out[1], out[2])

    def regular_representation(self, coords) -> IntMatrix:
        cols = [self.mul_coords(coords, w) for w in _UNIT_VECTORS]
        return IntMatrix.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])

    def norm_form(self, vectors: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """N(c0*v0 + c1*v1 + c2*v2) as a cubic form in (c0, c1, c2), over CUBIC_MONOMIALS.

        The norm is the determinant of the regular representation, which is
        linear in the element.  Expanding det(sum c_i M(v_i)) column by column
        makes the mixed determinant det[M(v_i) w0 | M(v_j) w1 | M(v_k) w2]
        the coefficient of c_i * c_j * c_k, exactly.
        """
        cols = [[self.mul_coords(v, w) for w in _UNIT_VECTORS] for v in vectors]
        coeffs = dict.fromkeys(CUBIC_MONOMIALS, 0)
        for ijk in product(range(3), repeat=3):
            i, j, k = ijk
            coeffs[tuple(ijk.count(t) for t in range(3))] += _det3(cols[i][0], cols[j][1], cols[k][2])
        return tuple(coeffs[m] for m in CUBIC_MONOMIALS)

    def element_norm(self, x: int, y: int, z: int) -> int:
        f = self.form
        return (
            x * x * (f[0] * x + f[1] * y + f[2] * z)
            + y * y * (f[3] * x + f[6] * y + f[7] * z)
            + z * z * (f[5] * x + f[8] * y + f[9] * z)
            + f[4] * x * y * z
        )

    def element_trace(self, coords) -> int:
        m = self.regular_representation(coords)
        return m[0, 0] + m[1, 1] + m[2, 2]


def _build_table(a: int, b: int, glue: Tuple[int, int, int] | None):
    """Multiplication table over the basis (1, theta, w2).

    w2 = thetabar for the first kind, (g0 + g1*theta + g2*thetabar)/3 for
    the second.  Returns (basis over (1,theta,theta^2), integer table) or
    None if the glue lattice is not multiplicatively closed.
    """
    from fractions import Fraction

    mul_seed = _seed_table(a, b)
    if glue is None:
        basis = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, b)]
        change = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    else:
        g0, g1, g2 = glue
        basis = [(1, 0, 0, 1), (0, 1, 0, 1), (b * g0, b * g1, g2, 3 * b)]
        change = [
            [Fraction(1), 0, 0],
            [0, Fraction(1), 0],
            [Fraction(g0, 3), Fraction(g1, 3), Fraction(g2, 3)],
        ]
    # coords over the new basis solve: sum_r c_r * change[r] = prod
    inv_t = _invert3([[change[r][k] for r in range(3)] for k in range(3)])
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            prod = mul_seed(change[i], change[j])  # over (1, theta, thetabar)
            coords = [sum(inv_t[r][c] * prod[c] for c in range(3)) for r in range(3)]
            if any(x.denominator != 1 for x in coords):
                return None
            row.append(tuple(int(x) for x in coords))
        table.append(tuple(row))
    return tuple(basis), tuple(table)


def _invert3(m):
    from fractions import Fraction

    a = [[Fraction(m[i][j]) for j in range(3)] + [Fraction(int(i == j)) for j in range(3)]
         for i in range(3)]
    for c in range(3):
        piv = next((r for r in range(c, 3) if a[r][c] != 0), None)
        if piv is None:
            raise ArithmeticError("singular change of basis")
        a[c], a[piv] = a[piv], a[c]
        inv_p = 1 / a[c][c]
        a[c] = [x * inv_p for x in a[c]]
        for r in range(3):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[3:] for row in a]


def classify(d: int) -> PureCubicField:
    """Build the field data for a cube-free d > 1, verifying everything exactly."""
    if d <= 1:
        raise ValueError("d must exceed 1")
    a, b = _cube_free_split(d)
    second = (a * a - b * b) % 9 == 0
    kind = "second" if second else "first"
    expected_disc = -3 * (a * b) ** 2 if second else -27 * (a * b) ** 2

    if not second:
        built = _build_table(a, b, None)
        if built is None:
            raise ArithmeticError("first-kind table must be integral")
    else:
        # any index-3 glue vector scales to thetabar-coefficient 1, so the
        # search space is the nine (g0, g1, 1) candidates
        built = None
        for g0 in range(3):
            for g1 in range(3):
                candidate = _build_table(a, b, (g0, g1, 1))
                if candidate is not None:
                    built = candidate
                    break
            if built:
                break
        if built is None:
            raise ArithmeticError(f"no integral denominator-3 basis found for d={d}")
    basis, table = built
    fld = PureCubicField(d, a, b, kind, expected_disc, basis, table)
    # verify the discriminant from the trace form, not the formula alone
    gram = [
        [fld.element_trace(fld.mul_coords(u, v)) for v in _UNIT_VECTORS] for u in _UNIT_VECTORS
    ]
    got = det(IntMatrix.from_rows(gram))
    if got != expected_disc:
        raise ArithmeticError(f"discriminant mismatch for d={d}: {got} != {expected_disc}")
    return fld


def _is_cubic_residue(c: int, q: int) -> bool:
    if q % 3 != 1:
        return True  # cubing is a bijection mod q
    return pow(c % q, (q - 1) // 3, q) == 1


def legendre(c: int, q: int) -> int:
    """Legendre symbol (c/q) for odd prime q."""
    c %= q
    if c == 0:
        return 0
    return 1 if pow(c, (q - 1) // 2, q) == 1 else -1


def split_in_gamma(F: PureCubicField, q: int) -> SplitPattern:
    """Decomposition of a rational prime in the cubic field."""
    if not isprime(q):
        raise ValueError("q must be prime")
    if q == 3:
        if F.kind == "first":
            return SplitPattern.of((3, 1))
        return SplitPattern.of((2, 1), (1, 1))
    if (F.a * F.b) % q == 0:
        return SplitPattern.of((3, 1))
    if q % 3 == 2:
        return SplitPattern.of((1, 1), (1, 2))
    if _is_cubic_residue(F.d, q):
        return SplitPattern.of((1, 1), (1, 1), (1, 1))
    return SplitPattern.of((1, 3))


def split_in_k(F: PureCubicField, q: int) -> SplitPattern:
    """Decomposition in the sextic normal closure Q(cbrt(d), zeta)."""
    if not isprime(q):
        raise ValueError("q must be prime")
    if q == 3:
        if F.kind == "first":
            return SplitPattern.of((6, 1))
        return SplitPattern.of((2, 1), (2, 1), (2, 1))
    if (F.a * F.b) % q == 0:
        # q ramifies in the cubic layer; the quadratic layer splits iff q == 1 mod 3
        if q % 3 == 1:
            return SplitPattern.of((3, 1), (3, 1))
        return SplitPattern.of((3, 2))
    if q % 3 == 2:
        return SplitPattern.of((1, 2), (1, 2), (1, 2))
    if _is_cubic_residue(F.d, q):
        return SplitPattern.of(*([(1, 1)] * 6))
    return SplitPattern.of((1, 3), (1, 3))


def brute_split(F: PureCubicField, q: int) -> SplitPattern:
    """Oracle: read the pattern off the factorization of x^3 - d over F_q.

    Valid only when q does not divide 3*b (the index of Z[theta] in the
    maximal order divides 3*b).
    """
    if not isprime(q):
        raise ValueError("q must be prime")
    if (3 * F.b) % q == 0:
        raise ValueError("oracle not applicable: q divides 3*b")
    from sympy import GF, Poly, Symbol

    x = Symbol("x")
    fac = Poly(x ** 3 - F.d, x, domain=GF(q)).factor_list()[1]
    return SplitPattern.of(*[(mult, poly.degree()) for poly, mult in fac])


def never_happens_check(q: int) -> bool:
    """The two-primes-of-degree-3 pattern cannot occur for q == -1 (mod 3).

    For odd q this is the statement legendre(-3, q) = -1; q = 2 is inert
    in Q(zeta) (x^2 + x + 1 is irreducible mod 2), so it never hits the
    pattern either and the check is defined to be true there.
    """
    if q % 3 != 2 or not isprime(q):
        raise ValueError("q must be a prime congruent to -1 mod 3")
    if q == 2:
        return True
    return legendre(-3, q) == -1
