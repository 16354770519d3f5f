"""In-package primality and prime lists, checked against sympy's."""

import random

import pytest
import sympy

from purecubic import primes
from purecubic.primes import isprime, primerange

#: psi_k (OEIS A014233): the smallest strong pseudoprime to the first k prime bases
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_isprime_matches_sympy_below_one_million():
    assert [n for n in range(-5, 10 ** 6) if isprime(n) != sympy.isprime(n)] == []


def test_isprime_matches_sympy_on_random_20_to_84_bit_n():
    rng = random.Random(33)
    ns = [rng.getrandbits(rng.randint(20, 84)) | 1 for _ in range(20000)]
    assert [n for n in ns if isprime(n) != sympy.isprime(n)] == []
    # and on primes, where every base of the row runs
    ps = [sympy.nextprime(n) for n in ns[:2000]]
    assert all(isprime(p) for p in ps)


def test_each_psi_k_is_a_composite_that_k_bases_pass():
    # psi_k passes the strong test to the first k primes, so a table row
    # that decides psi_k, or a number above it, with k or fewer bases
    # calls it prime
    for k, psi in PSI.items():
        assert all(_strong_probable_prime(psi, a) for a in primes.SMALL_PRIMES[:k]), k
        assert not isprime(psi) and not sympy.isprime(psi), k
    assert primes.MR_BOUNDS == tuple((PSI[k], k) for k in (1, 2, 3, 4, 5, 6, 7, 9, 12, 13))


def test_isprime_from_mr_limit_on_is_sympys_answer():
    n = primes.MR_LIMIT
    for m in range(n - 50, n + 400):
        assert isprime(m) == sympy.isprime(m), m
    assert isprime(2 ** 89 - 1) and not isprime(2 ** 89 + 1)


@pytest.mark.parametrize("n", [7.0, True, False, "7", 7.5, None])
def test_isprime_rejects_a_non_integer_as_sympy_does(n):
    with pytest.raises(ValueError):
        sympy.isprime(n)
    with pytest.raises(ValueError):
        isprime(n)


def test_primerange_matches_sympy():
    for b in range(301):
        for a in range(b + 1):
            assert primerange(a, b) == list(sympy.primerange(a, b)), (a, b)
    assert primerange(2, 10 ** 5) == list(sympy.primerange(2, 10 ** 5))
    assert primerange(-5, 10) == [2, 3, 5, 7]
