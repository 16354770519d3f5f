"""Cubic residue symbols over Q(zeta) and cubic Hilbert symbols at tame places.

The residue symbol (alpha / pi)_3 is evaluated as the unique power of
zeta congruent to alpha^((N(pi)-1)/3) mod pi.  Tame Hilbert symbols use
the explicit formula

    (a, b / pi)_3 = ( (-1)^{vw} a^w b^{-v} / pi )_3,   v = v_pi(a), w = v_pi(b).

Where each check is made:

- `_place(pi)` checks an arbitrary pi once (prime by one `isprime`,
  primary, tame) and returns its `_Place`, which `cubic_residue`,
  `hilbert_tame` and `norm_compatibility_check` read; `_residue_exponent`
  does not check pi again.
- A rational p is checked only by `split_primaries(p)` (prime, 1 mod 3),
  which `zeta_norm_test` and `prime_symbols` each call once.  Its two
  places come from `_split_place(pi, p)`, which needs no second primality
  proof: a pi of norm p is prime because p is.  So each of these entry
  points makes exactly one `isprime` call per p, and a further symbol at
  pi1 (`PrimeSymbols.residue`) reads the place already checked.
- The zeta-norm test needs no valuation of p: `_zeta_is_norm` refuses
  pi1 = pi2 and reads (zeta / pi_i)_3 at each place, which is
  (zeta, p / pi_i)_3 because v_{pi_i}(p) = 1 (see its docstring).  The
  Hilbert route `_hilbert(ZETA, p, place)` computes the same symbol
  through `valuation` and is kept as its test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional

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

    def is_trivial(self) -> bool:
        return self.e == 0


TRIVIAL = CubeRoot(0)
_ROOTS = (TRIVIAL, CubeRoot(1), CubeRoot(2))  # zeta^e by e, shared: a CubeRoot is immutable


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


def _split_place(pi: Eisenstein, p: int) -> _Place:
    """The place of a primary pi of norm p, for p that `split_primaries`
    proved prime and 1 mod 3; `_place` without a second `isprime`."""
    a, b = pi
    if a * a - a * b + b * b != p:
        raise ArithmeticError(f"{pi} does not have norm {p}")
    if not is_primary(pi):
        raise ArithmeticError(f"{pi} is not primary")
    if b % p == 0:
        raise ArithmeticError("degenerate split prime")
    return _Place(pi, p, -a * pow(b, -1, p) % p)  # zeta == -a/b mod pi


def cubic_residue(alpha: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """(alpha / pi)_3 for a primary tame prime pi coprime to alpha."""
    return CubeRoot(_residue_exponent(alpha, _place(pi)))


def _residue_exponent(alpha: Eisenstein, place: _Place) -> int:
    """e with (alpha / pi)_3 = zeta^e at a place that `_place` returned."""
    pi, n, w = place
    if w is not None:
        # split place: the residue field is F_p via zeta -> w
        a, b = alpha
        x = (a + b * w) % n
        if x == 0:
            raise ValueError("alpha not coprime to pi")
        return _zeta_exponent(pow(x, (n - 1) // 3, n), w, n)
    # inert place: residue field F_{q^2}, arithmetic mod q in Z[zeta]
    a = Eisenstein(alpha.a % n, alpha.b % n)
    if divides(pi, a):
        raise ValueError("alpha not coprime to pi")
    r = pow(a, (n * n - 1) // 3, n)
    for e, z in enumerate((Eisenstein(1, 0), ZETA, Eisenstein(-1, -1))):
        if (r.a - z.a) % n == 0 and (r.b - z.b) % n == 0:
            return e
    raise ArithmeticError("power residue is not a cube root of unity")


def _zeta_exponent(r: int, w: int, p: int) -> int:
    """e with r == w^e (mod p), for r and w, the image of zeta, reduced mod p."""
    if r == 1:
        return 0
    if r == w:
        return 1
    if r == w * w % p:
        return 2
    raise ArithmeticError("power residue is not a cube root of unity")


def hilbert_tame(a: Eisenstein, b: Eisenstein, pi: Eisenstein) -> CubeRoot:
    """Tame cubic Hilbert symbol (a, b / pi)_3."""
    if a.is_zero() or b.is_zero():
        raise ValueError("symbol arguments must be nonzero")
    return CubeRoot(_hilbert(a, b, _place(pi)))


def _hilbert(a: Eisenstein, b: Eisenstein, place: _Place) -> int:
    """The exponent of `hilbert_tame` at a checked place, for nonzero a and b."""
    v, a0 = valuation(a, place.pi)
    w, b0 = valuation(b, place.pi)
    e = 0
    if w:
        e += w * _residue_exponent(a0, place)
    if v:
        e -= v * _residue_exponent(b0, place)
    return e % 3


def zeta_norm_test(p: int) -> bool:
    """Whether zeta is a norm from Q(zeta, cbrt(p)) down to Q(zeta).

    Decided through the local Hilbert symbols (zeta, p / pi_i)_3 at the
    two primes above p; all other places are automatically trivial.
    (The independent congruence oracle is p == 1 mod 9.)
    """
    pi1, pi2 = split_primaries(p)
    return _zeta_is_norm(p, _split_place(pi1, p), _split_place(pi2, p))


def _zeta_is_norm(p: int, place1: _Place, place2: _Place) -> bool:
    """`zeta_norm_test(p)` at the places of split_primaries(p): whether
    (zeta, p / pi_i)_3 is trivial at both.

    p = pi1*pi2 with pi1, pi2 primary.  Two distinct primary primes are
    not associate (the primary associate is unique), so v_{pi_i}(p) = 1,
    and zeta is a unit, so v_{pi_i}(zeta) = 0.  The tame formula with
    v = 0 and w = 1 reads (zeta, p / pi_i)_3 = (zeta / pi_i)_3: one
    modular power at each place, with no valuation of p.  A pair with
    pi1 = pi2 would make v_{pi1}(p) = 2 and is refused.
    """
    if place1.pi == place2.pi:
        raise ArithmeticError(f"p = {p} has equal primes {place1.pi} above it")
    e1 = _residue_exponent(ZETA, place1)
    e2 = _residue_exponent(ZETA, place2)
    return e1 == 0 and e2 == 0


THREE = Eisenstein(3, 0)


class PrimeSymbols(NamedTuple):
    """The symbol data of one prime p = 1 (mod 3), from one factorisation of p."""

    pi1: Eisenstein
    pi2: Eisenstein
    three: CubeRoot  # (3 / pi1)_3
    zeta_is_norm: bool
    ambiguous_order: int
    place1: _Place  # the place of pi1, checked once

    def residue(self, alpha: Eisenstein) -> CubeRoot:
        """(alpha / pi1)_3 at the place of pi1 that `prime_symbols` checked."""
        return _ROOTS[_residue_exponent(alpha, self.place1)]


def prime_symbols(p: int) -> PrimeSymbols:
    """The 3-symbol (3 / pi1)_3, the value of `zeta_norm_test(p)` and the
    ambiguous-class order, from one `split_primaries(p)` and one check of
    each of its places.  The 3-symbol is trivial exactly when 3 is a cube
    mod p.  A p that is not a prime 1 mod 3 raises `split_primaries`'
    `NotSplitPrime`, a ValueError.

    The ambiguous classes of the sextic closure of Q(cbrt p) number
    3^(t - 2 + q*): t counts the primes ramified over Q(zeta), the two
    primes above p plus the wild prime when p is not 1 mod 9, and q* is 1
    when zeta is a norm, 0 otherwise.
    """
    pi1, pi2 = split_primaries(p)
    place1 = _split_place(pi1, p)
    zeta_is_norm = _zeta_is_norm(p, place1, _split_place(pi2, p))
    three = _ROOTS[_residue_exponent(THREE, place1)]
    t = 2 if p % 9 == 1 else 3
    return PrimeSymbols(
        pi1, pi2, three, zeta_is_norm, 3 ** (t - 2 + int(zeta_is_norm)), place1
    )


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
    return lhs % 3 == rhs
