"""Exact primality and prime lists, without loading sympy.

`isprime(n)` gives sympy's answers and errors.  It first divides by the
primes up to 41 (one gcd with their product), which settles every n
below 43^2.  Above that it runs the strong Miller-Rabin test to the
first k prime bases, with k read from `MR_BOUNDS`.  Its rows are psi_k,
the smallest strong pseudoprime to the first k prime bases (OEIS
A014233; Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster, Math.
Comp. 86 (2017)), so the test proves every n < psi_k prime or
composite.  From `MR_LIMIT` = psi_13 on no row applies, and sympy's
BPSW test answers, loaded only then.

`primerange(a, b)` lists the primes in [a, b) from one sieve.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod
from operator import index
from typing import List

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: (psi_k, k): every n < psi_k is decided by the first k primes as strong
#: Miller-Rabin bases; psi_8 = psi_7 and psi_10 = psi_11 = psi_9
MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
MR_LIMIT = MR_BOUNDS[-1][0]
SMALL_PRIMORIAL = prod(SMALL_PRIMES)


def _as_int(n) -> int:
    """n as an int, or sympy's ValueError for a bool, float, str, ..."""
    if isinstance(n, bool):
        raise ValueError(f"{n} is not an integer")
    try:
        return index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None


def isprime(n) -> bool:
    """Whether the integer n is prime; a proof for every n < MR_LIMIT."""
    if type(n) is not int:
        n = _as_int(n)
    if n < 2:
        return False
    if gcd(n, SMALL_PRIMORIAL) != 1:
        return n in SMALL_PRIMES
    if n < 43 * 43:
        return True
    if n >= MR_LIMIT:
        from sympy import isprime as bpsw

        return bpsw(n)
    for bound, k in MR_BOUNDS:
        if n < bound:
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # the strong test to each base a: a^d = 1, or a^(d 2^r) = -1 for some r < s
    for a in SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primerange(a, b) -> List[int]:
    """The primes p with a <= p < b, in increasing order."""
    a, b = max(_as_int(a), 2), _as_int(b)
    if b <= a:
        return []
    sieve = bytearray([1]) * b
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(b - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, b, p)))
    return list(compress(range(a, b), sieve[a:]))
