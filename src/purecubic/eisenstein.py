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
from typing import List, Optional, Tuple

from sympy import isprime


@dataclass(frozen=True)
class Eisenstein:
    a: int
    b: int

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: "Eisenstein") -> "Eisenstein":
        # (a + b z)(c + d z), z^2 = -1 - z
        a, b, c, d = self.a, self.b, other.a, other.b
        return Eisenstein(a * c - b * d, a * d + b * c - b * d)

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
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}z)"


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
    return x.a * x.a - x.a * x.b + x.b * x.b


def conj(x: Eisenstein) -> Eisenstein:
    """The nontrivial automorphism zeta -> zeta^2."""
    return Eisenstein(x.a - x.b, -x.b)


def divrem(x: Eisenstein, y: Eisenstein) -> Tuple[Eisenstein, Eisenstein]:
    """Euclidean division: x = q*y + r with norm(r) < norm(y)."""
    n = norm(y)
    if n == 0:
        raise ZeroDivisionError("division by zero Eisenstein integer")
    # x * conj(y) / norm(y), rounded to the nearest lattice point
    t = x * conj(y)
    qa = (2 * t.a + n) // (2 * n)
    qb = (2 * t.b + n) // (2 * n)
    q = Eisenstein(qa, qb)
    r = x - q * y
    return q, r


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
    hits = [(u, u * x) for u in UNITS if is_primary(u * x)]
    if len(hits) != 1:  # cannot happen for norm coprime to 3
        raise ArithmeticError(f"primary associate not unique for {x}")
    return hits[0]


def is_prime_element(x: Eisenstein) -> bool:
    n = norm(x)
    if isprime(n):
        return True
    q = isqrt(n)
    return q * q == n and isprime(q) and q % 3 == 2 and any(
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
    for a in range(isqrt(4 * p // 3) + 1):
        t = 4 * p - 3 * a * a
        if t < 0:
            break
        s = isqrt(t)
        if s * s != t:
            continue
        if (a + s) % 2 == 0:
            b = (a + s) // 2
            cand = Eisenstein(a, b)
            if norm(cand) == p:
                return cand
        if (a - s) % 2 == 0:
            b = (a - s) // 2
            cand = Eisenstein(a, b)
            if norm(cand) == p:
                return cand
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
    c2 = conj(c1)
    cands = sorted([c1, c2], key=lambda x: (x.a, x.b))
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
