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
from typing import List, Sequence, Tuple

from sympy import factorint, isprime


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
        flat = tuple(c for row in self.table for t in row for c in t)
        object.__setattr__(self, "flat_table", flat)
        object.__setattr__(self, "form", self.norm_form(_UNIT_VECTORS))

    def mul_coords(self, u, v) -> Tuple[int, int, int]:
        # the nine products u_i * v_j, each weighted by the coords of w_i * w_j
        u0, u1, u2 = u
        v0, v1, v2 = v
        p0, p1, p2 = u0 * v0, u0 * v1, u0 * v2
        p3, p4, p5 = u1 * v0, u1 * v1, u1 * v2
        p6, p7, p8 = u2 * v0, u2 * v1, u2 * v2
        t = self.flat_table
        return (
            p0 * t[0] + p1 * t[3] + p2 * t[6] + p3 * t[9] + p4 * t[12]
            + p5 * t[15] + p6 * t[18] + p7 * t[21] + p8 * t[24],
            p0 * t[1] + p1 * t[4] + p2 * t[7] + p3 * t[10] + p4 * t[13]
            + p5 * t[16] + p6 * t[19] + p7 * t[22] + p8 * t[25],
            p0 * t[2] + p1 * t[5] + p2 * t[8] + p3 * t[11] + p4 * t[14]
            + p5 * t[17] + p6 * t[20] + p7 * t[23] + p8 * t[26],
        )

    def norm_form(self, vectors: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """N(c0*v0 + c1*v1 + c2*v2) as a cubic form in (c0, c1, c2), over CUBIC_MONOMIALS.

        The norm is the determinant of the regular representation, which is
        linear in the element.  Expanding det(sum c_i M(v_i)) column by column
        makes the mixed determinant det[M(v_i) w0 | M(v_j) w1 | M(v_k) w2]
        the coefficient of c_i * c_j * c_k, exactly.
        """
        cols = [[self.mul_coords(v, w) for w in _UNIT_VECTORS] for v in vectors]
        coeffs = [0] * len(CUBIC_MONOMIALS)
        for i, j, k, m in _NORM_TERMS:
            coeffs[m] += _det3(cols[i][0], cols[j][1], cols[k][2])
        return tuple(coeffs)

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
    """Multiplication table over the basis (1, theta, w2).

    w2 = thetabar for the first kind, (g0 + g1*theta + thetabar)/3 for the
    second.  Returns (basis over (1,theta,theta^2), integer table) or None
    if the glue lattice is not multiplicatively closed.
    """
    mul_seed = _seed_table(a, b)
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
            p0, p1, p2 = mul_seed(u, v)
            c0, c1, c2 = p0 - g0 * p2, p1 - g1 * p2, m * p2
            if c0 % mm or c1 % mm or c2 % mm:
                return None
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
                candidate = _build_table(a, b, (g0, g1))
                if candidate is not None:
                    built = candidate
                    break
            if built:
                break
        if built is None:
            raise ArithmeticError(f"no integral denominator-3 basis found for d={d}")
    basis, table = built
    fld = PureCubicField(d, a, b, kind, expected_disc, basis, table)
    # verify the discriminant from the trace form, not the formula alone:
    # tr is linear, so tr(w_i w_j) = sum_k table[i][j][k] * tr(w_k)
    traces = [fld.element_trace(w) for w in _UNIT_VECTORS]
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
    in the order `_roots_mod` gives, and w2 to its value at r; for q | 3b
    every (s, t) in F_q^2 is a candidate.  Each candidate is checked
    against the multiplication table, and one read off a root that fails
    the check is an ArithmeticError.
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
        candidates = product(range(q), repeat=2)
    out = []
    for s, t in candidates:
        im = (1, s, t)
        if all(
            (c[0] + c[1] * s + c[2] * t - im[i] * im[j]) % q == 0
            for i in range(3)
            for j, c in enumerate(F.table[i])
            if i <= j
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
