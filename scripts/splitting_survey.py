#!/usr/bin/env python3
"""Survey the splitting laws against the root-count oracle.

Checks split_in_gamma against brute_split for every cube-free d and prime
q in the given ranges (within the oracle's applicability domain q coprime
to 3b).  brute_split reads the pattern of x^3 - d over F_q off its number
of roots there, deg gcd(x^q - x, x^3 - d), and never reads q mod 3 or
d^((q-1)/3), the facts split_in_gamma decides by.  It also runs
primes_above for every q, q | 3b included; primes_above raises unless its
prime ideals have the pattern split_in_gamma gives and the product of the
P^e is qO.  For every q it checks that the two generators (a, gamma) a
prime carries for `mul` (q prime to 3b) generate it.  For
the primes P, P' above distinct q, q' <= 50 it checks that the product
mul(P, P') passes the CRT check is_coprime_product and equals the product
of the nine basis products, taken with the generators dropped, and for
each q <= 50 that ring_maps(F, q) lists the same ring maps O -> F_q as a
search over all of F_q^2.
Prints each disagreement and exits 1 if there was any.

    python scripts/splitting_survey.py --max-d 200 --max-q 200
"""

import argparse
import sys
from itertools import product

from sympy import primerange

from purecubic.cubicfield import brute_split, classify, ring_maps, split_in_gamma
from purecubic.ideals import IdealHNF, is_coprime_product, mul, primes_above

COPRIME_MAX_Q = 50  # the largest q for the product and the ring_maps checks


def cube_free(d):
    try:
        classify(d)
        return True
    except ValueError:
        return False


def searched_ring_maps(F, q):
    """The (s, t) in F_q^2 for which w0 -> 1, w1 -> s, w2 -> t respects
    every product w_i * w_j of the integral basis."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    products = [(i, j, F.mul_coords(basis[i], basis[j])) for i in range(3) for j in range(i, 3)]
    out = []
    for s, t in product(range(q), repeat=2):
        im = (1, s, t)
        if all((c0 + c1 * s + c2 * t - im[i] * im[j]) % q == 0 for i, j, (c0, c1, c2) in products):
            out.append((s, t))
    return out


def ideals_mismatch(F, q):
    """(why primes_above(F, q) disagrees with the splitting law, or has a
    prime its generators do not generate, or None; the primes it found,
    none on a disagreement)."""
    try:
        primes = [P for P, _, _ in primes_above(F, q)]
    except ArithmeticError as e:
        return str(e), []
    for P in primes:
        if P.gens is not None and IdealHNF.from_generators(F, [(P.gens[0], 0, 0), P.gens[1]]) != P:
            return f"the generators {P.gens} do not generate {P.basis}", []
    return None, primes


def bare(P):
    """P without its generators, so that `mul` takes the nine basis products."""
    return IdealHNF(P.field, P.basis)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-d", type=int, default=50)
    ap.add_argument("--max-q", type=int, default=500)
    args = ap.parse_args()

    total = bad = 0
    for d in range(2, args.max_d):
        if not cube_free(d):
            continue
        F = classify(d)
        small = []
        for q in primerange(2, args.max_q):
            if (3 * F.b) % q:
                total += 1
                if split_in_gamma(F, q) != brute_split(F, q):
                    bad += 1
                    print(f"MISMATCH d={d} q={q}: split_in_gamma vs brute_split")
            total += 1
            why, primes = ideals_mismatch(F, q)
            if why is not None:
                bad += 1
                print(f"MISMATCH d={d} q={q}: primes_above: {why}")
            if q <= COPRIME_MAX_Q:
                small += [(q, P) for P in primes]
                total += 1
                try:
                    maps = sorted(ring_maps(F, q))
                except ArithmeticError as e:
                    maps = str(e)
                if maps != searched_ring_maps(F, q):
                    bad += 1
                    print(f"MISMATCH d={d} q={q}: ring_maps vs the F_q^2 search")
        for i, (q, P) in enumerate(small):
            for q2, P2 in small[i + 1:]:
                if q2 != q:
                    total += 2
                    PP2 = mul(P, P2)
                    if not is_coprime_product(PP2, [P, P2]):
                        bad += 1
                        print(f"MISMATCH d={d} q={q} q'={q2}: is_coprime_product vs mul")
                    if PP2 != mul(bare(P), bare(P2)):
                        bad += 1
                        print(f"MISMATCH d={d} q={q} q'={q2}: mul by generators vs the nine products")
    print(f"{total} checks, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
