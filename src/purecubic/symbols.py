"""Cubic residue symbols over Q(zeta) and cubic Hilbert symbols at tame places.

The residue symbol (alpha / pi)_3 is evaluated as the unique power of
zeta congruent to alpha^((N(pi)-1)/3) mod pi.  Tame Hilbert symbols use
the explicit formula

    (a, b / pi)_3 = ( (-1)^{vw} a^w b^{-v} / pi )_3,   v = v_pi(a), w = v_pi(b),

and the symbol at the wild prime lam = 1 - zeta is *defined* through the
product formula: it is the inverse of the product of all tame symbols.

Where each check is made:

- `_place(pi)` checks a pi once (prime by one `isprime`, primary, tame)
  and returns its `_Place`, which `cubic_residue`, `hilbert_tame`,
  `zeta_norm_test`, `prime_symbols` and `norm_compatibility_check` read;
  `_residue_exponent` does not check pi again.
- A rational p is checked only by `split_primaries(p)` (prime, 1 mod 3),
  which `cubic_residue_rational`, `zeta_norm_test` and `prime_symbols`
  each call once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cubicfield import PureCubicField, ring_maps
from .eisenstein import (
    Eisenstein,
    ZETA,
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


class _Place(NamedTuple):
    """A primary tame prime pi that `_place` checked, with its residue field:
    n = p and w the image of zeta in F_p when pi is split, n = q and
    w = None when it is inert."""

    pi: Eisenstein
    n: int
    w: Optional[int]


def _place(pi: Eisenstein) -> _Place:
    """Check that pi is a primary tame prime and return its place.

    A prime of norm p is split, one of norm q^2 (q = 2 mod 3) is inert, and
    `is_prime_element` has already proved which: a perfect-square norm is
    inert, so no second `isprime` is needed to tell them apart.
    """
    if not is_prime_element(pi):
        raise ValueError(f"{pi} is not an Eisenstein prime")
    if not is_primary(pi):
        raise ValueError(f"{pi} is not primary")
    n = norm(pi)
    if n % 3 == 0:
        raise ValueError("wild place not allowed here")
    q = isqrt(n)
    if q * q == n:
        return _Place(pi, q, None)
    if pi.b % n == 0:
        raise ArithmeticError("degenerate split prime")
    return _Place(pi, n, -pi.a * pow(pi.b, -1, n) % n)  # zeta == -a/b mod pi


def cubic_residue(alpha: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """(alpha / pi)_3 for a primary tame prime pi coprime to alpha."""
    return CubeRoot(_residue_exponent(alpha, _place(pi)))


def _residue_exponent(alpha: Eisenstein, place: _Place) -> int:
    """e with (alpha / pi)_3 = zeta^e at a place that `_place` returned."""
    pi, n, w = place
    if w is not None:
        # split place: the residue field is F_p via zeta -> w
        x = (alpha.a + alpha.b * w) % n
        if x == 0:
            raise ValueError("alpha not coprime to pi")
        return _zeta_exponent(pow(x, (n - 1) // 3, n), w, n)
    # inert place: residue field F_{q^2}, arithmetic mod q in Z[zeta]
    a = Eisenstein(alpha.a % n, alpha.b % n)
    if divides(pi, a):
        raise ValueError("alpha not coprime to pi")
    r = _pow_mod_q(a, (n * n - 1) // 3, n)
    for e, z in enumerate((Eisenstein(1, 0), ZETA, Eisenstein(-1, -1))):
        if (r.a - z.a) % n == 0 and (r.b - z.b) % n == 0:
            return e
    raise ArithmeticError("power residue is not a cube root of unity")


def _zeta_exponent(r: int, w: int, p: int) -> int:
    """e with r == w^e (mod p), for w the image of zeta in F_p."""
    for e, z in enumerate((1, w, (w * w) % p)):
        if r == z % p:
            return e
    raise ArithmeticError("power residue is not a cube root of unity")


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
    pi1, _ = split_primaries(p)
    if c % p == 0:
        raise ValueError("c divisible by p")
    return cubic_residue(Eisenstein(c, 0), pi1)


def hilbert_tame(a: Eisenstein, b: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """Tame cubic Hilbert symbol (a, b / pi)_3."""
    if a.is_zero() or b.is_zero():
        raise ValueError("symbol arguments must be nonzero")
    return _hilbert(a, b, _place(pi))


def _hilbert(a: Eisenstein, b: Eisenstein, place: _Place) -> CubeRoot:
    """`hilbert_tame` at a place that `_place` returned, for nonzero a and b."""
    v, a0 = valuation(a, place.pi)
    w, b0 = valuation(b, place.pi)
    e = 0
    if w:
        e += w * _residue_exponent(a0, place)
    if v:
        e -= v * _residue_exponent(b0, place)
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
    pi1, pi2 = split_primaries(p)
    return _zeta_is_norm(p, _place(pi1), _place(pi2))


def _zeta_is_norm(p: int, place1: _Place, place2: _Place) -> bool:
    """`zeta_norm_test(p)` at the places of split_primaries(p); both local
    symbols are evaluated."""
    pz = Eisenstein(p, 0)
    s1 = _hilbert(ZETA, pz, place1)
    s2 = _hilbert(ZETA, pz, place2)
    return s1.is_trivial() and s2.is_trivial()


THREE = Eisenstein(3, 0)


class PrimeSymbols(NamedTuple):
    """The symbol data of one prime p = 1 (mod 3), from one factorisation of p."""

    pi1: Eisenstein
    pi2: Eisenstein
    three: CubeRoot  # (3 / pi1)_3
    zeta_is_norm: bool
    ambiguous_order: int


def prime_symbols(p: int) -> PrimeSymbols:
    """The values of `cubic_residue_rational(3, p)` and `zeta_norm_test(p)`
    and the ambiguous-class order, from one `split_primaries(p)` and one
    check of each of its places.

    The ambiguous classes of the sextic closure of Q(cbrt p) number
    3^(t - 2 + q*): t counts the primes ramified over Q(zeta), the two
    primes above p plus the wild prime when p is not 1 mod 9, and q* is 1
    when zeta is a norm, 0 otherwise.
    """
    pi1, pi2 = split_primaries(p)
    place1 = _place(pi1)
    zeta_is_norm = _zeta_is_norm(p, place1, _place(pi2))
    three = CubeRoot(_residue_exponent(THREE, place1))
    t = 2 if p % 9 == 1 else 3
    return PrimeSymbols(pi1, pi2, three, zeta_is_norm, 3 ** (t - 2 + int(zeta_is_norm)))


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
    if not isinstance(field, PureCubicField):
        raise TypeError("field must be a PureCubicField")
    place = _place(pi)
    _, p, w = place
    if w is None:
        raise ValueError("only split places of Q(zeta) are evaluable")
    if p % 3 != 1 or field.d % p == 0 or (3 * field.b) % p == 0:
        raise ValueError("configuration out of evaluable (tame) range")
    maps = ring_maps(field, p)
    if len(maps) != 3:
        raise ValueError("pi does not split completely in the sextic closure")
    x, y, z = a_coords
    wv, _ = valuation(b, pi)

    lhs = 0
    norm_residues = 1
    for s, t in maps:
        av = (x + s * y + t * z) % p
        if av == 0:
            raise ValueError("a is not a unit at a place above pi")
        norm_residues = (norm_residues * av) % p
        lhs += wv * _zeta_exponent(pow(av, (p - 1) // 3, p), w, p)

    # right-hand side: the relative norm of a lands in Z inside Q(zeta)
    rel_norm = field.element_norm(a_coords)
    rhs = _hilbert(Eisenstein(rel_norm, 0), b, place)
    if norm_residues != rel_norm % p:  # product of local values is the norm
        raise ArithmeticError("local values do not multiply to the relative norm")
    return CubeRoot(lhs).e == rhs.e
