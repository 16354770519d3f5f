"""Pure cubic fields Q(cbrt(d)): integral basis, discriminant, splitting laws.

A field is of the *first kind* when a^2 != b^2 (mod 9) (writing d = a*b^2
with a, b coprime and cube-free) and of the *second kind* otherwise.  For
the first kind the ring of integers is Z + Z*theta + Z*theta^2/b; for the
second kind its third basis element is (g0 + g1*theta + theta^2/b)/3 with
the glue (g0, g1) = (b mod 3, a*b mod 3), Dedekind's closed form (J. Reine
Angew. Math. 121 (1900)).  Neither basis is taken on trust: every product
of two basis elements must be integral in it, and the discriminant of its
trace form must be -27*(a*b)^2 or -3*(a*b)^2; a failure of either is an
ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from math import isqrt
from typing import Dict, List, Sequence, Tuple

from .primes import isprime

#: trial division stops here; it reaches it only for d >= 10^12
TRIAL_DIVISION_LIMIT = 10 ** 4


@dataclass(frozen=True)
class SplitPattern:
    """Multiset of (ramification e, residue degree f) pairs above one prime."""

    pairs: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, *pairs: Tuple[int, int]) -> "SplitPattern":
        return cls(tuple(sorted(pairs)))

    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)


def _coprime_powers(d: int) -> Dict[int, int]:
    """{f: e} with d the product of the f^e, each f > 1 squarefree and
    the f pairwise coprime, for d >= 1.

    Trial division takes out each p while p^3 <= the cofactor m.  Then
    every prime factor of m is at least p and m < p^3, so m is 1, a
    prime, a product of two primes or the square of one.  Past
    TRIAL_DIVISION_LIMIT sympy's factorint factors d instead.
    """
    powers: Dict[int, int] = {}
    m, p = d, 2
    while p ** 3 <= m:
        if p > TRIAL_DIVISION_LIMIT:
            from sympy import factorint

            return factorint(d)
        while m % p == 0:
            m //= p
            powers[p] = powers.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if m > 1:
        r = isqrt(m)
        powers.update({r: 2} if r * r == m else {m: 1})
    return powers


def _cube_free_split(d: int) -> Tuple[int, int]:
    a = b = 1
    for p, e in _coprime_powers(d).items():
        if e == 1:
            a *= p
        elif e == 2:
            b *= p
        else:
            raise ValueError(f"{d} is not cube-free")
    return a, b


#: exponents (i, j, k) of c0^i * c1^j * c2^k: the coefficient order of a cubic form
CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
_UNIT_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
#: each (i, j, k) in {0, 1, 2}^3 with the position in CUBIC_MONOMIALS of c_i * c_j * c_k
_NORM_TERMS = tuple(
    (i, j, k, CUBIC_MONOMIALS.index(tuple((i, j, k).count(t) for t in range(3))))
    for i, j, k in product(range(3), repeat=3)
)


def _det3(u, v, w) -> int:
    """Determinant of the 3x3 matrix with columns u, v, w."""
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        + u[1] * (v[2] * w[0] - v[0] * w[2])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def _norm_coeffs(cols) -> Tuple[int, ...]:
    """The norm form over CUBIC_MONOMIALS from cols[i][j] = M(v_i) w_j."""
    coeffs = [0] * len(CUBIC_MONOMIALS)
    for i, j, k, m in _NORM_TERMS:
        coeffs[m] += _det3(cols[i][0], cols[j][1], cols[k][2])
    return tuple(coeffs)


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
    #: `table` flattened: entry 9*i + 3*j + k is coordinate k of w_i * w_j
    flat_table: Tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = self.table
        # mul_coords reads only w1*w1, w1*w2 and w2*w2 off the table: the
        # rest follows from w0 = 1 and commutativity, so check both here
        if table[0] != _UNIT_VECTORS or any(
            table[i][j] != table[j][i] for i in range(3) for j in range(i)
        ):
            raise ArithmeticError(f"table for d={self.d} is not commutative with w0 = 1")
        flat = tuple(c for row in table for t in row for c in t)
        object.__setattr__(self, "flat_table", flat)
        # the columns M(w_i) w_j of the unit vectors are the table's entries
        object.__setattr__(self, "form", _norm_coeffs(table))

    def mul_coords(self, u, v) -> Tuple[int, int, int]:
        # w0 = 1, so with U = u1*w1 + u2*w2 and V = v1*w1 + v2*w2,
        # u*v = u0*v0 + u0*V + v0*U + U*V, and U*V reads the coords of
        # w1*w1, w1*w2 and w2*w2 off the table
        u0, u1, u2 = u
        v0, v1, v2 = v
        p11, p12, p22 = u1 * v1, u1 * v2 + u2 * v1, u2 * v2
        t = self.flat_table
        return (
            u0 * v0 + p11 * t[12] + p12 * t[15] + p22 * t[24],
            u0 * v1 + u1 * v0 + p11 * t[13] + p12 * t[16] + p22 * t[25],
            u0 * v2 + u2 * v0 + p11 * t[14] + p12 * t[17] + p22 * t[26],
        )

    def norm_form(self, vectors: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """N(c0*v0 + c1*v1 + c2*v2) as a cubic form in (c0, c1, c2), over CUBIC_MONOMIALS.

        The norm is the determinant of the regular representation, which is
        linear in the element.  Expanding det(sum c_i M(v_i)) column by column
        makes the mixed determinant det[M(v_i) w0 | M(v_j) w1 | M(v_k) w2]
        the coefficient of c_i * c_j * c_k, exactly.
        """
        return _norm_coeffs([[self.mul_coords(v, w) for w in _UNIT_VECTORS] for v in vectors])

    def element_norm(self, v) -> int:
        x, y, z = v
        f = self.form
        return (
            x * x * (f[0] * x + f[1] * y + f[2] * z)
            + y * y * (f[3] * x + f[6] * y + f[7] * z)
            + z * z * (f[5] * x + f[8] * y + f[9] * z)
            + f[4] * x * y * z
        )

    def element_trace(self, coords) -> int:
        return sum(self.mul_coords(coords, w)[i] for i, w in enumerate(_UNIT_VECTORS))


def _build_table(a: int, b: int, glue: Tuple[int, int] | None):
    """The basis (1, theta, w2) over (1, theta, theta^2) and its
    multiplication table, or an ArithmeticError if the table is not integral.

    w2 = thetabar = theta^2/b for the first kind (glue None), and
    (g0 + g1*theta + thetabar)/3 for the second, glue (g0, g1).  Products
    are taken over the order Z[theta, thetabar], where
    theta * theta = b * thetabar, theta * thetabar = a*b and
    thetabar^2 = a * theta.
    """
    # w2 = (g0 + g1*theta + thetabar)/m with m = 1 (first kind) or 3, so a
    # product p over (1, theta, thetabar) has coords (p0 - g0*p2,
    # p1 - g1*p2, m*p2) over (1, theta, w2).  `scaled` holds m*w_i over
    # (1, theta, thetabar), which makes every product m^2 times too large.
    (g0, g1), m = ((0, 0), 1) if glue is None else (glue, 3)
    basis = ((1, 0, 0, 1), (0, 1, 0, 1), (b * g0, b * g1, 1, m * b))
    scaled = ((m, 0, 0), (0, m, 0), (g0, g1, 1))
    mm = m * m
    table = []
    for u in scaled:
        row = []
        for v in scaled:
            p0 = u[0] * v[0] + a * b * (u[1] * v[2] + u[2] * v[1])
            p1 = u[0] * v[1] + u[1] * v[0] + a * u[2] * v[2]
            p2 = u[0] * v[2] + u[2] * v[0] + b * u[1] * v[1]
            c0, c1, c2 = p0 - g0 * p2, p1 - g1 * p2, m * p2
            if c0 % mm or c1 % mm or c2 % mm:
                raise ArithmeticError(f"glue {glue} gives no integral table for d={a * b * b}")
            row.append((c0 // mm, c1 // mm, c2 // mm))
        table.append(tuple(row))
    return basis, tuple(table)


def classify(d: int) -> PureCubicField:
    """Build the field data for a cube-free d > 1, verifying everything exactly."""
    if d <= 1:
        raise ValueError("d must exceed 1")
    a, b = _cube_free_split(d)
    second = (a * a - b * b) % 9 == 0
    kind = "second" if second else "first"
    expected_disc = -3 * (a * b) ** 2 if second else -27 * (a * b) ** 2
    basis, table = _build_table(a, b, (b % 3, a * b % 3) if second else None)
    fld = PureCubicField(d, a, b, kind, expected_disc, basis, table)
    # verify the discriminant from the trace form, not the formula alone:
    # tr(w_k) is the trace of multiplication by w_k, whose column i is
    # table[k][i], and tr is linear, so tr(w_i w_j) = sum_k table[i][j][k] * tr(w_k)
    traces = [sum(row[i][i] for i in range(3)) for row in table]
    gram = [[sum(c * t for c, t in zip(wij, traces)) for wij in row] for row in table]
    got = _det3(*gram)
    if got != expected_disc:
        raise ArithmeticError(f"discriminant mismatch for d={d}: {got} != {expected_disc}")
    return fld


def _roots_mod(d: int, q: int) -> List[int]:
    """The roots of x^3 - d in F_q (q prime to 3d), by descending residue.

    For q = 1 (mod 3) write q - 1 = 3^s * t with 3 prime to t.  A cube d
    has the root d^u, u = 1/3 mod t, when s = 1; otherwise d^u is a root
    up to a factor in the 3-Sylow subgroup, which a discrete log to the
    base z = c^t, c a cubic non-residue, removes digit by digit
    (Adleman-Manders-Miller).  The other roots differ by the cube roots
    of unity, and c^((q-1)/3) is a primitive one.
    """
    if q % 3 == 2:  # cubing is a bijection, with inverse r -> r^((2q-1)/3)
        return [pow(d, (2 * q - 1) // 3, q)]
    k = (q - 1) // 3
    if pow(d, k, q) != 1:
        return []
    c = 2
    while pow(c, k, q) == 1:
        c += 1
    omega = pow(c, k, q)
    s, t = 1, k
    while t % 3 == 0:
        s, t = s + 1, t // 3
    r = pow(d, pow(3, -1, t), q)
    if s > 1:
        # r^3 = d * err with err = z^j, 3 | j: read j base 3, low digits first
        z = pow(c, t, q)
        err = r * r * r * pow(d, -1, q) % q
        j = 0
        for i in range(s - 1, 0, -1):
            # (err / z^j)^(3^(i-1)) is 1, omega or omega^2: the digit of 3^(s-i) in j
            h = pow(err * pow(z, -j, q), 3 ** (i - 1), q)
            if h != 1:
                j += 3 ** (s - i) * (1 if h == omega else 2)
        r = r * pow(z, -(j // 3), q) % q
    return sorted((r, r * omega % q, r * omega * omega % q), reverse=True)


def ring_maps(F: PureCubicField, q: int) -> List[Tuple[int, int]]:
    """The images (s, t) of (w1, w2) under every ring map O -> F_q, w0 -> 1.

    The kernel of each map, x0 + s*x1 + t*x2 = 0 (mod q), is a prime of
    degree 1 above q, and every such prime is one (Cohen, GTM 138, 6.2).
    For q prime to 3b, theta maps to a root r of x^3 - d (r = 0 when q | d),
    in the order `_roots_mod` gives, and w2 to its value at r.  For q | 3b,
    s^3 = d in F_q fixes s = d mod q (q | d, or cubing is the identity of
    F_3), and every (d mod q, t) is a candidate.  Each candidate is checked
    on the products w1*w1, w1*w2 and w2*w2 of the multiplication table (the
    others follow from w0 = 1 and commutativity, which `PureCubicField`
    checks), and one read off a root that fails the check is an
    ArithmeticError.
    """
    if not isprime(q):
        raise ValueError("q must be prime")
    from_roots = (3 * F.b) % q != 0
    if from_roots:
        n0, n1, n2, den = F.basis_theta_repr[2]
        inv = pow(den, -1, q)
        roots = [0] if F.d % q == 0 else _roots_mod(F.d, q)
        candidates = [(r, (n0 + n1 * r + n2 * r * r) * inv % q) for r in roots]
    else:
        candidates = [(F.d % q, t) for t in range(q)]
    # w0 = 1 and commutativity are checked with the table, so a map with
    # w0 -> 1 is a ring map when it respects w1*w1, w1*w2 and w2*w2
    (_, t11, t12), (_, _, t22) = F.table[1], F.table[2]
    out = []
    for s, t in candidates:
        if all(
            (c0 + c1 * s + c2 * t - x) % q == 0
            for (c0, c1, c2), x in ((t11, s * s), (t12, s * t), (t22, t * t))
        ):
            out.append((s, t))
        elif from_roots:
            raise ArithmeticError(f"theta -> {s} is not a ring map O -> F_{q} for d={F.d}")
    return out


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
    if pow(F.d, (q - 1) // 3, q) == 1:  # Euler: d is a cube mod q
        return SplitPattern.of((1, 1), (1, 1), (1, 1))
    return SplitPattern.of((1, 3))


def split_in_k(F: PureCubicField, q: int) -> SplitPattern:
    """Decomposition in the sextic normal closure Q(cbrt(d), zeta).

    For q != 3 the quadratic layer is unramified at q: a prime (e, f) of
    the cubic field splits into two (e, f) when its residue field F_{q^f}
    holds the cube roots of unity (3 | q^f - 1), and becomes (e, 2f)
    otherwise.
    """
    if q == 3:
        if F.kind == "first":
            return SplitPattern.of((6, 1))
        return SplitPattern.of((2, 1), (2, 1), (2, 1))
    pairs = []
    for e, f in split_in_gamma(F, q).pairs:
        pairs += [(e, f), (e, f)] if pow(q, f, 3) == 1 else [(e, 2 * f)]
    return SplitPattern.of(*pairs)


#: the pattern of a squarefree x^3 - d over F_q by its number of roots in F_q
_PATTERN_BY_ROOTS = {
    3: SplitPattern.of((1, 1), (1, 1), (1, 1)),
    1: SplitPattern.of((1, 1), (1, 2)),
    0: SplitPattern.of((1, 3)),
}


def _gcd_degree(f: List[int], g: List[int], q: int) -> int:
    """Degree of gcd(f, g) over F_q, f nonzero; coefficients constant term first."""

    def trim(p: List[int]) -> List[int]:
        while p and p[-1] % q == 0:
            p.pop()
        return p

    f, g = trim([c % q for c in f]), trim([c % q for c in g])
    while g:
        inv = pow(g[-1], -1, q)
        while len(f) >= len(g):  # f <- f mod g, one leading term at a time
            k, shift = f[-1] * inv % q, len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - k * c) % q
            trim(f)
        f, g = g, f
    return len(f) - 1


def brute_split(F: PureCubicField, q: int) -> SplitPattern:
    """Oracle: read the pattern off the roots of x^3 - d in F_q.

    Valid only when q does not divide 3*b (the index of Z[theta] in the
    maximal order divides 3*b), where Dedekind's criterion makes the
    pattern that of x^3 - d mod q.  If q | d that is x^3: (3, 1).
    Otherwise x^3 - d is squarefree (its derivative 3x^2 vanishes only at
    0), so a cubic with 3, 1 or 0 roots in F_q splits into three lines, a
    line and an irreducible quadratic, or stays irreducible.  The roots
    are counted as deg gcd(x^q - x, x^3 - d): x^q mod (q, x^3 - d) by
    square-and-multiply on coefficient triples, then one Euclidean gcd.
    Nothing here reads q mod 3 or d^((q-1)/3), the two facts
    `split_in_gamma` decides by, so the check is independent of it.
    """
    if not isprime(q):
        raise ValueError("q must be prime")
    if (3 * F.b) % q == 0:
        raise ValueError("oracle not applicable: q divides 3*b")
    d = F.d % q
    if d == 0:
        return SplitPattern.of((3, 1))
    # c0 + c1 x + c2 x^2 = x^q mod (q, x^3 - d), using x^3 = d
    c0, c1, c2 = 1, 0, 0
    for bit in bin(q)[2:]:
        c0, c1, c2 = (
            (c0 * c0 + 2 * d * c1 * c2) % q,
            (2 * c0 * c1 + d * c2 * c2) % q,
            (2 * c0 * c2 + c1 * c1) % q,
        )
        if bit == "1":
            c0, c1, c2 = d * c2 % q, c0, c1
    roots = _gcd_degree([-d, 0, 0, 1], [c0, c1 - 1, c2], q)
    if roots not in _PATTERN_BY_ROOTS:
        raise ArithmeticError(f"x^3 - {F.d} has {roots} roots mod {q}")
    return _PATTERN_BY_ROOTS[roots]
