"""Arithmetic in Z[zeta], the ring of integers of Q(zeta) with zeta^2 = -1 - zeta.

Elements are written a + b*zeta.  The ring is Euclidean for the norm
a^2 - a*b + b^2, which gives gcds, the six units, primary normalization
(x == 1 mod 3) and the factorization of rational primes:

    3 = (1 + zeta) * lam^2            with lam = 1 - zeta,
    p = pi1 * pi2                     for p == 1 (mod 3),
    q stays prime                     for q == 2 (mod 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import List, NamedTuple, Tuple

from sympy import isprime


class Eisenstein(NamedTuple):
    """a + b*zeta: an immutable pair, equal and hashed by value.

    The hot operations build their results with `tuple.__new__`, which
    skips the generated `__new__` and its argument handling.
    """

    a: int
    b: int

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return _new(Eisenstein, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return _new(Eisenstein, (self[0] - other[0], self[1] - other[1]))

    def __neg__(self) -> "Eisenstein":
        return _new(Eisenstein, (-self[0], -self[1]))

    def __mul__(self, other: "Eisenstein") -> "Eisenstein":
        # (a + b z)(c + d z), z^2 = -1 - z
        a, b = self
        c, d = other
        bd = b * d
        return _new(Eisenstein, (a * c - bd, a * d + b * c - bd))

    def __rmul__(self, other):
        # a tuple subclass would otherwise repeat itself: 2 * ZETA == (0, 1, 0, 1)
        raise TypeError(f"cannot multiply {type(other).__name__!r} by 'Eisenstein'")

    def __pow__(self, e: int) -> "Eisenstein":
        if e < 0:
            raise ValueError("negative power")
        r = ONE
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}z)"


_new = tuple.__new__

ZERO = Eisenstein(0, 0)
ONE = Eisenstein(1, 0)
ZETA = Eisenstein(0, 1)
LAMBDA = Eisenstein(1, -1)  # 1 - zeta

#: the six units of the ring: +-1, +-zeta, +-zeta^2
UNITS = (
    Eisenstein(1, 0),
    Eisenstein(-1, 0),
    Eisenstein(0, 1),
    Eisenstein(0, -1),
    Eisenstein(-1, -1),
    Eisenstein(1, 1),
)


def norm(x: Eisenstein) -> int:
    a, b = x
    return a * a - a * b + b * b


def conj(x: Eisenstein) -> Eisenstein:
    """The nontrivial automorphism zeta -> zeta^2."""
    a, b = x
    return _new(Eisenstein, (a - b, -b))


def divrem(x: Eisenstein, y: Eisenstein) -> Tuple[Eisenstein, Eisenstein]:
    """Euclidean division: x = q*y + r with norm(r) < norm(y)."""
    a, b = x
    c, d = y
    n = c * c - c * d + d * d
    if n == 0:
        raise ZeroDivisionError("division by zero Eisenstein integer")
    # x * conj(y) / norm(y), rounded to the nearest lattice point;
    # x * conj(y) = (a c - a d + b d) + (b c - a d) zeta
    n2 = 2 * n
    qa = (2 * (a * c - a * d + b * d) + n) // n2
    qb = (2 * (b * c - a * d) + n) // n2
    # r = x - q*y
    bd = qb * d
    r = _new(Eisenstein, (a - (qa * c - bd), b - (qa * d + qb * c - bd)))
    return _new(Eisenstein, (qa, qb)), r


def divides(y: Eisenstein, x: Eisenstein) -> bool:
    if y.is_zero():
        return x.is_zero()
    _, r = divrem(x, y)
    return r.is_zero()


def exact_div(x: Eisenstein, y: Eisenstein) -> Eisenstein:
    q, r = divrem(x, y)
    if not r.is_zero():
        raise ValueError("not divisible")
    return q


def gcd(x: Eisenstein, y: Eisenstein) -> Eisenstein:
    while not y.is_zero():
        _, r = divrem(x, y)
        x, y = y, r
    return x


def is_unit(x: Eisenstein) -> bool:
    return norm(x) == 1


def associates(x: Eisenstein) -> List[Eisenstein]:
    return [u * x for u in UNITS]


def is_primary(x: Eisenstein) -> bool:
    """x == 1 (mod 3 Z[zeta])."""
    return x.a % 3 == 1 and x.b % 3 == 0


def primary_associate(x: Eisenstein) -> Tuple[Eisenstein, Eisenstein]:
    """Return (u, p) with p = u*x primary; exactly one associate qualifies."""
    if norm(x) % 3 == 0:
        raise ValueError("no primary associate: norm divisible by 3")
    hits = [(u, y) for u, y in zip(UNITS, associates(x)) if is_primary(y)]
    if len(hits) != 1:  # cannot happen for norm coprime to 3
        raise ArithmeticError(f"primary associate not unique for {x}")
    return hits[0]


def is_prime_element(x: Eisenstein) -> bool:
    """Whether x is prime: its norm is a prime p, or the square of an inert q.

    A square is never prime, so the square test runs first and an inert
    q costs one `isprime(q)`, not a second one on q^2.
    """
    n = norm(x)
    q = isqrt(n)
    if q * q != n:
        return isprime(n)
    return isprime(q) and q % 3 == 2 and any(
        (u * x).a == q and (u * x).b == 0 for u in UNITS
    )


@dataclass(frozen=True)
class EisensteinFactorization:
    unit: Eisenstein
    lambda_exponent: int
    primary_primes: Tuple[Tuple[Eisenstein, int], ...]

    def value(self) -> Eisenstein:
        v = self.unit * (LAMBDA ** self.lambda_exponent)
        for p, e in self.primary_primes:
            v = v * (p ** e)
        return v


def _split_prime(p: int) -> Eisenstein:
    """Some pi with norm(pi) = p, for p == 1 (mod 3), by scanning the norm form."""
    t = 4 * p  # 4p - 3a^2 = (2b - a)^2 for the current a
    for a in range(isqrt(t // 3) + 1):
        s = isqrt(t)
        if s * s == t:
            # s = a (mod 2), so both b = (a +- s)/2 are integers
            for b in ((a + s) // 2, (a - s) // 2):
                cand = _new(Eisenstein, (a, b))
                if norm(cand) == p:
                    return cand
        t -= 6 * a + 3
    raise ArithmeticError(f"norm form has no representation of {p}")


def split_primaries(p: int) -> Tuple[Eisenstein, Eisenstein]:
    """Canonical (pi1, pi2) with p = pi1*pi2, both primary, pi2 = conj(pi1).

    Among the two primary primes above p we prefer the one with positive
    first coordinate, breaking remaining ties lexicographically on (a, b);
    for some primes neither primary has a > 0, and then the plain
    lexicographic minimum is taken.
    """
    if p % 3 != 1 or not isprime(p):
        raise ValueError("p must be a prime congruent to 1 mod 3")
    pi = _split_prime(p)
    _, c1 = primary_associate(pi)
    cands = sorted((c1, conj(c1)))  # a pair orders lexicographically on (a, b)
    positive = [c for c in cands if c.a > 0]
    pi1 = positive[0] if positive else cands[0]
    return pi1, conj(pi1)


def factor_rational_prime(q: int) -> EisensteinFactorization:
    """Factor a rational prime over Z[zeta]."""
    if not isprime(q):
        raise ValueError(f"{q} is not prime")
    if q == 3:
        # 3 = (1 + zeta) * lam^2
        return EisensteinFactorization(Eisenstein(1, 1), 2, ())
    if q % 3 == 1:
        pi1, pi2 = split_primaries(q)
        prod = pi1 * pi2
        u = exact_div(Eisenstein(q, 0), prod)
        if not is_unit(u):
            raise ArithmeticError(f"split factors of {q} leave a non-unit cofactor")
        return EisensteinFactorization(u, 0, ((pi1, 1), (pi2, 1)))
    # inert: q == 2 (mod 3), primary-normalized
    _, prim = primary_associate(Eisenstein(q, 0))
    cof = exact_div(Eisenstein(q, 0), prim)
    if not is_unit(cof):
        raise ArithmeticError(f"primary associate of {q} leaves a non-unit cofactor")
    return EisensteinFactorization(cof, 0, ((prim, 1),))


def valuation(x: Eisenstein, pi: Eisenstein) -> Tuple[int, Eisenstein]:
    """(v, x / pi^v) for a prime element pi."""
    if x.is_zero():
        raise ValueError("valuation of zero")
    v = 0
    while True:
        q, r = divrem(x, pi)
        if not r.is_zero():
            return v, x
        x = q
        v += 1


def factor(x: Eisenstein) -> EisensteinFactorization:
    """Full factorization into lam-power and primary primes.

    Works through the factorization of the rational norm, so it is only
    meant for desk-scale inputs.
    """
    from sympy import factorint

    if x.is_zero():
        raise ValueError("cannot factor zero")
    lam_e, x = valuation(x, LAMBDA)
    primes: List[Tuple[Eisenstein, int]] = []
    n = norm(x)
    for p, _ in sorted(factorint(n).items()):
        if p == 3:
            raise ArithmeticError("lambda part not fully stripped")
        if p % 3 == 1:
            for cand in split_primaries(p):
                v, x = valuation(x, cand)
                if v:
                    primes.append((cand, v))
        else:
            _, prim = primary_associate(Eisenstein(p, 0))
            v, x = valuation(x, prim)
            if v:
                primes.append((prim, v))
    if not is_unit(x):
        raise ArithmeticError("leftover non-unit after factoring")
    return EisensteinFactorization(x, lam_e, tuple(primes))
