"""Cubic residue symbols over Q(zeta) and cubic Hilbert symbols at tame places.

The residue symbol (alpha / pi)_3 is evaluated as the unique power of
zeta congruent to alpha^((N(pi)-1)/3) mod pi.  Tame Hilbert symbols use
the explicit formula

    (a, b / pi)_3 = ( (-1)^{vw} a^w b^{-v} / pi )_3,   v = v_pi(a), w = v_pi(b),

and the symbol at the wild prime lam = 1 - zeta is *defined* through the
product formula: it is the inverse of the product of all tame symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from sympy import isprime

from .eisenstein import (
    Eisenstein,
    LAMBDA,
    ZETA,
    conj,
    divides,
    factor,
    gcd,
    is_primary,
    is_prime_element,
    norm,
    split_primaries,
    valuation,
)


@dataclass(frozen=True)
class CubeRoot:
    """A cube root of unity zeta^e, e mod 3, with multiplicative group law."""

    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % 3)

    def __mul__(self, other: "CubeRoot") -> "CubeRoot":
        return CubeRoot(self.e + other.e)

    def __pow__(self, k: int) -> "CubeRoot":
        return CubeRoot(self.e * k)

    def inverse(self) -> "CubeRoot":
        return CubeRoot(-self.e)

    def is_trivial(self) -> bool:
        return self.e == 0


TRIVIAL = CubeRoot(0)


def _check_tame_prime(pi: Eisenstein) -> None:
    if not is_prime_element(pi):
        raise ValueError(f"{pi} is not an Eisenstein prime")
    if not is_primary(pi):
        raise ValueError(f"{pi} is not primary")
    if norm(pi) % 3 == 0:
        raise ValueError("wild place not allowed here")


def cubic_residue(alpha: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """(alpha / pi)_3 for a primary tame prime pi coprime to alpha."""
    _check_tame_prime(pi)
    n = norm(pi)
    if isprime(n):
        # split place: the residue field is F_p via zeta -> w
        p = n
        w = (-alpha_image_denominator(pi, p)) % p
        x = (alpha.a + alpha.b * w) % p
        if x == 0:
            raise ValueError("alpha not coprime to pi")
        r = pow(x, (p - 1) // 3, p)
        return _match_zeta_power(r, w, p)
    # inert place: residue field F_{q^2}, arithmetic mod q in Z[zeta]
    q = _inert_rational(pi)
    a = Eisenstein(alpha.a % q, alpha.b % q)
    if divides(pi, a):
        raise ValueError("alpha not coprime to pi")
    r = _pow_mod_q(a, (q * q - 1) // 3, q)
    for e, z in enumerate((Eisenstein(1, 0), ZETA, Eisenstein(-1, -1))):
        if (r.a - z.a) % q == 0 and (r.b - z.b) % q == 0:
            return CubeRoot(e)
    raise ArithmeticError("power residue is not a cube root of unity")


def alpha_image_denominator(pi: Eisenstein, p: int) -> int:
    """a * b^{-1} mod p for pi = a + b zeta (so zeta == -a/b mod pi)."""
    if pi.b % p == 0:
        raise ArithmeticError("degenerate split prime")
    return (pi.a * pow(pi.b, -1, p)) % p


def _match_zeta_power(r: int, w: int, p: int) -> CubeRoot:
    for e, z in enumerate((1, w, (w * w) % p)):
        if r == z % p:
            return CubeRoot(e)
    raise ArithmeticError("power residue is not a cube root of unity")


def _inert_rational(pi: Eisenstein) -> int:
    from math import isqrt

    q = isqrt(norm(pi))
    if q * q != norm(pi):
        raise ArithmeticError("norm of an inert prime is not a square")
    return q


def _pow_mod_q(x: Eisenstein, e: int, q: int) -> Eisenstein:
    r = Eisenstein(1, 0)
    while e:
        if e & 1:
            r = r * x
            r = Eisenstein(r.a % q, r.b % q)
        x = x * x
        x = Eisenstein(x.a % q, x.b % q)
        e >>= 1
    return r


def cubic_residue_rational(c: int, p: int) -> CubeRoot:
    """(c / p)_3 via the canonical primary factor pi1 of p.

    Trivial iff c is a cube mod p; the exponent convention is fixed by
    the canonical choice of pi1.
    """
    if p % 3 != 1 or not isprime(p):
        raise ValueError("p must be a prime congruent to 1 mod 3")
    if c % p == 0:
        raise ValueError("c divisible by p")
    pi1, _ = split_primaries(p)
    return cubic_residue(Eisenstein(c, 0), pi1)


def hilbert_tame(a: Eisenstein, b: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """Tame cubic Hilbert symbol (a, b / pi)_3."""
    if a.is_zero() or b.is_zero():
        raise ValueError("symbol arguments must be nonzero")
    _check_tame_prime(pi)
    v, a0 = valuation(a, pi)
    w, b0 = valuation(b, pi)
    e = 0
    if w:
        e += w * cubic_residue(a0, pi).e
    if v:
        e -= v * cubic_residue(b0, pi).e
    return CubeRoot(e)


def _tame_support(x: Eisenstein) -> List[Eisenstein]:
    return [p for p, _ in factor(x).primary_primes]


def hilbert_lambda(a: Eisenstein, b: Eisenstein) -> CubeRoot:
    """The wild symbol (a, b / lam)_3, defined by the product formula.

    Infinite places contribute trivially, and tame places where both
    arguments are units carry the trivial symbol, so only primes in the
    support of a or b matter.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("symbol arguments must be nonzero")
    seen: Dict[Tuple[int, int], Eisenstein] = {}
    for pi in _tame_support(a) + _tame_support(b):
        seen[(pi.a, pi.b)] = pi
    total = TRIVIAL
    for pi in seen.values():
        total = total * hilbert_tame(a, b, pi)
    return total.inverse()


def zeta_norm_test(p: int) -> bool:
    """Whether zeta is a norm from Q(zeta, cbrt(p)) down to Q(zeta).

    Decided through the local Hilbert symbols (zeta, p / pi_i)_3 at the
    two primes above p; all other places are automatically trivial.
    (The independent congruence oracle is p == 1 mod 9.)
    """
    if p % 3 != 1 or not isprime(p):
        raise ValueError("p must be a prime congruent to 1 mod 3")
    pi1, pi2 = split_primaries(p)
    pz = Eisenstein(p, 0)
    s1 = hilbert_tame(ZETA, pz, pi1)
    s2 = hilbert_tame(ZETA, pz, pi2)
    return s1.is_trivial() and s2.is_trivial()


def _symbol_over_ideal(alpha: Eisenstein, beta: Eisenstein) -> CubeRoot:
    """(alpha / (beta))_3 expanded multiplicatively over the primes of beta."""
    fac = factor(beta)
    if fac.lambda_exponent:
        raise ValueError("denominator not coprime to 3")
    total = TRIVIAL
    for pi, e in fac.primary_primes:
        total = total * (cubic_residue(alpha, pi) ** e)
    return total


def reciprocity_check(alpha: Eisenstein, beta: Eisenstein) -> bool:
    """Cubic reciprocity (alpha/(beta))_3 = (beta/(alpha))_3 for primary inputs."""
    if not (is_primary(alpha) and is_primary(beta)):
        raise ValueError("both arguments must be primary")
    if norm(alpha) % 3 == 0 or norm(beta) % 3 == 0:
        raise ValueError("arguments must be coprime to 3")
    g = norm(gcd(alpha, beta))
    if g != 1:
        raise ValueError("arguments must be coprime")
    return _symbol_over_ideal(alpha, beta).e == _symbol_over_ideal(beta, alpha).e


def norm_compatibility_check(a_coords, b: Eisenstein, pi: Eisenstein, field) -> bool:
    """Compare the product of local symbols of a over the places above pi
    with the symbol of its relative norm, in a fully tame configuration.

    `a_coords` are integral-basis coordinates of an element of the cubic
    field; `field` is its PureCubicField.  Only split-completely places
    are evaluable: N(pi) = p with p == 1 mod 3, p coprime to 3*b*disc,
    x^3 = d solvable mod p, and a a unit at every place above pi.
    """
    from .cubicfield import PureCubicField  # local import to avoid a cycle

    if not isinstance(field, PureCubicField):
        raise TypeError("field must be a PureCubicField")
    _check_tame_prime(pi)
    n = norm(pi)
    if not isprime(n):
        raise ValueError("only split places of Q(zeta) are evaluable")
    p = n
    if p % 3 != 1 or field.d % p == 0 or (3 * field.b) % p == 0:
        raise ValueError("configuration out of evaluable (tame) range")
    roots = [r for r in range(p) if (r * r * r - field.d) % p == 0]
    if len(roots) != 3:
        raise ValueError("pi does not split completely in the sextic closure")
    x, y, z = a_coords
    w = (-alpha_image_denominator(pi, p)) % p
    wv, _ = valuation(b, pi)

    lhs = 0
    norm_residues = 1
    for r in roots:
        av = (x + y * _basis_value(field, 1, r, p) + z * _basis_value(field, 2, r, p)) % p
        if av == 0:
            raise ValueError("a is not a unit at a place above pi")
        norm_residues = (norm_residues * av) % p
        e = _match_zeta_power(pow(av, (p - 1) // 3, p), w, p).e
        lhs += wv * e

    # right-hand side: the relative norm of a lands in Z inside Q(zeta)
    rel_norm = field.element_norm(x, y, z)
    rhs = hilbert_tame(Eisenstein(rel_norm, 0), b, pi)
    if norm_residues != rel_norm % p:  # product of local values is the norm
        raise ArithmeticError("local values do not multiply to the relative norm")
    return CubeRoot(lhs).e == rhs.e


def _basis_value(field, idx: int, theta_mod_p: int, p: int) -> int:
    """Image of the idx-th integral basis element in F_p, theta -> a root of x^3 - d."""
    n0, n1, n2, den = field.basis_theta_repr[idx]
    v = (n0 + n1 * theta_mod_p + n2 * theta_mod_p * theta_mod_p) % p
    return (v * pow(den, -1, p)) % p
