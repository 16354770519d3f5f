"""Desk-scale class groups of pure cubic fields and 3-class structure decisions.

The class group is presented on the factor base of all prime ideals of
norm below the Minkowski bound.  Relations are principal ideals (alpha),
alpha a coordinate triple over the integral basis, factored over the
base, each checked by reassembling (alpha) from its factors.  A norm is
tested for smoothness by gcds with the product of the base's rational
primes before any trial division.  The primes above one q multiply into
a q-part, built once per factor base; the q-parts have coprime norms, so
the HNF of (alpha) is checked against their CRT congruences rather than
rebuilt from them.  The relation lattice is kept
in Hermite normal form as rows arrive, and once the search stabilizes
the cokernel is read off the Smith normal form of the basis block whose
pivots exceed 1.
Stabilization is heuristic, so for small bounds the result is certified
against an independent brute-force enumeration of ideal classes.  The
enumeration tests each ideal first against the representatives that the
relation lattice puts in its class (equal exponent vectors modulo the
lattice), so most tests hit.  A merge across two relation classes is a
relation the search missed: its witness is checked to generate the
quotient ideal, the relation is inserted, and the cokernel is read again.

The sextic-closure structure decision takes the unit index u as an
*input*: computing u would need the unit group of a degree-6 field,
which is out of scope, so callers supply it with provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd, isqrt, prod
from typing import Dict, Iterator, List, Optional, Tuple

from sympy import isprime, primerange

from .cubicfield import PureCubicField
from .ideals import (
    IdealHNF,
    class_inverse_representative,
    ideal_of_element,
    is_coprime_product,
    is_principal_bounded,
    mul,
    primes_above,
)
from .zlinalg import HNFLattice

STABLE_WINDOW = 32  # full-rank rows in a row that leave the lattice unchanged
ORACLE_BOUND_LIMIT = 100  # the largest Minkowski bound the oracle certifies
ORACLE_SEARCH_BOUND = 12  # the oracle's principality-test box radius


class BudgetExhausted(RuntimeError):
    """Raised when class_group cannot stabilize within its time budget.

    It says how far the relation search got: `rows` relations found, their
    lattice of rank `rank` out of the factor-base size `n`, and the
    lattice's determinant `det` once the rank is full (None before).
    """

    def __init__(self, d: int, rows: int, rank: int, n: int, det: Optional[int] = None):
        self.d, self.rows, self.rank, self.n, self.det = d, rows, rank, n, det
        msg = (
            f"class group for d={d} did not stabilize in budget: "
            f"{rows} relation rows, lattice rank {rank} of {n}"
        )
        if det is not None:
            msg += f", determinant {det}"
        super().__init__(msg)


@dataclass(frozen=True)
class FactorBasePrime:
    """A prime ideal P of norm q^f, with the powers of P built so far.

    `power(k)` extends the list of powers on demand, so each is built once
    per factor base and freed with it.
    """

    q: int
    ideal: IdealHNF
    f: int
    norm: int
    _powers: List[IdealHNF] = field(default_factory=list, init=False, repr=False, compare=False)

    def power(self, k: int) -> IdealHNF:
        """P^k for k >= 1."""
        powers = self._powers
        if not powers:
            powers.append(self.ideal)
        while len(powers) < k:
            powers.append(mul(powers[-1], self.ideal))
        return powers[k - 1]


@dataclass(frozen=True)
class FactorBase:
    """The primes of norm up to `bound`, with the products of their powers
    above one q built so far.

    `q_part` keeps each product it builds, so that each is built once per
    factor base and freed with it.
    """

    bound: int
    primes: Tuple[FactorBasePrime, ...]
    #: q -> positions in `primes` of the primes above q, for each rational
    #: prime q below the base, ascending
    columns: Dict[int, Tuple[int, ...]]
    #: the product of the keys of `columns`
    product: int
    _q_parts: Dict[Tuple[int, Tuple[int, ...]], IdealHNF] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def q_part(self, q: int, exponents: Tuple[int, ...]) -> IdealHNF:
        """The product of P^k over the primes P above q, k read from
        `exponents` in the order of `columns[q]`, not all zero."""
        key = (q, exponents)
        part = self._q_parts.get(key)
        if part is None:
            powers = [self.primes[j].power(k) for j, k in zip(self.columns[q], exponents) if k]
            part = self._q_parts[key] = reduce(mul, powers)
        return part


@dataclass(frozen=True)
class ClassGroupStructure:
    field_d: int
    divisors: Tuple[int, ...]  # nontrivial elementary divisors of Cl
    h: int
    h3: int
    p3_type: Tuple[int, ...]
    certified: bool  # True when the brute-force oracle confirmed h


@dataclass(frozen=True)
class KStructureReport:
    h_k3: int
    k_type: str
    #: status of h = h_k/27; only its 3-part is decidable from h_k3
    h_over_27: str


def minkowski_bound(F: PureCubicField) -> Fraction:
    """(4/pi) * (3!/3^3) * sqrt(|disc|), as an exact rational upper bound."""
    adisc = abs(F.disc)
    # sqrt upper bound to 4 decimal digits
    s = isqrt(adisc * 10 ** 8) + 1
    sqrt_up = Fraction(s, 10 ** 4)
    four_over_pi_up = Fraction(400000, 314159)  # 3.14159 < pi
    return four_over_pi_up * Fraction(6, 27) * sqrt_up


def build_factor_base(F: PureCubicField) -> FactorBase:
    bound = minkowski_bound(F)
    top = int(bound) + (0 if bound.denominator == 1 else 1)
    primes: List[FactorBasePrime] = []
    columns: Dict[int, Tuple[int, ...]] = {}
    for q in primerange(2, top + 1):
        for P, _, f in primes_above(F, q):
            if q ** f <= top:
                columns[q] = columns.get(q, ()) + (len(primes),)
                primes.append(FactorBasePrime(q, P, f, q ** f))
    return FactorBase(top, tuple(primes), columns, prod(columns))


def _smooth_exponents(n: int, fb: FactorBase) -> Optional[Dict[int, int]]:
    """Exponents of n over the rational primes keyed in `fb.columns`
    (ascending), or None if n is not smooth over them."""
    n = abs(n)
    # strip the base's primes from n by gcds with their product, which is
    # squarefree, so the first gcd holds every base prime of n and later
    # ones need only be taken with it: what is left is 1 exactly when n is
    # smooth
    r, g = n, gcd(n, fb.product)
    while g > 1:
        r //= g
        g = gcd(r, g)
    if r > 1:
        return None
    columns = fb.columns
    out: Dict[int, int] = {}
    for q in columns:
        if q * q > n:
            # every prime factor of n that is a key is at least q, so n > 1
            # is smooth only when it is a key itself
            break
        if n % q == 0:
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            out[q] = k
    if n > 1:
        if n not in columns:
            return None
        out[n] = 1
    return out


def relation_row(
    F: PureCubicField, fb: FactorBase, alpha: Tuple[int, int, int]
) -> Optional[List[int]]:
    """Exponent vector of (alpha) over fb, verified by exact reassembly."""
    n = F.element_norm(alpha)
    if n == 0:
        return None
    sm = _smooth_exponents(n, fb)
    if sm is None:
        return None
    row = [0] * len(fb.primes)
    parts = []
    for q, m in sm.items():
        exponents = []
        for j in fb.columns[q]:
            p = fb.primes[j]
            # P^k contains alpha exactly for k <= v_P(alpha), and the norms
            # of the primes above q split v_q(N(alpha)), so v_P is at most
            # what the earlier ones left of it, over f
            k, top = 0, m // p.f
            while k < top and p.power(k + 1).contains_vector(alpha):
                k += 1
            row[j] = k
            m -= k * p.f
            exponents.append(k)
        if m:
            return None  # some prime above q has norm beyond the bound
        parts.append(fb.q_part(q, tuple(exponents)))
    # exact reassembly check, never sampled: the q-parts have coprime norms,
    # so (alpha) is their product when its HNF is their CRT lift
    if not is_coprime_product(ideal_of_element(F, alpha), parts):
        raise ArithmeticError(f"relation for {alpha} does not reassemble")
    return row


def _element_stream() -> Iterator[Tuple[int, int, int]]:
    """Deterministic expanding-box enumeration of nonzero elements, one of
    each pair +-alpha."""
    for r in count(1):
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if max(abs(x), abs(y)) < r:
                    # inside the old box: only the face z = r is new
                    yield (x, y, r)
                    continue
                for z in range(r + 1):
                    if z == 0 and (y < 0 or (y == 0 and x <= 0)):
                        continue  # skip sign duplicates and zero
                    yield (x, y, z)


def _three_part(n: int) -> int:
    h3 = 1
    while n % 3 == 0:
        n //= 3
        h3 *= 3
    return h3


def class_group(F: PureCubicField, budget_seconds: float = 600.0) -> ClassGroupStructure:
    """Class group structure by relation search + SNF, oracle-certified when feasible."""
    deadline = time.monotonic() + budget_seconds
    fb = build_factor_base(F)
    n = len(fb.primes)

    # Below full rank the cokernel is infinite.  At full rank the lattice
    # changes exactly when its determinant h drops, so the search stops after
    # STABLE_WINDOW rows without a change and reads the cokernel once.
    lattice = HNFLattice(n)
    rows = 0
    stable = 0
    for alpha in _element_stream():
        if time.monotonic() >= deadline:  # so a zero budget stops before any row
            raise BudgetExhausted(F.d, rows, lattice.rank, n, lattice.determinant())
        row = relation_row(F, fb, alpha)
        if row is None:
            continue
        rows += 1
        changed = lattice.insert(row)
        if lattice.rank == n:
            stable = 0 if changed else stable + 1
            if stable >= STABLE_WINDOW:
                break
    # read here, where perfbench's tracer ends the relation phase (at the
    # last snf), and again only if the oracle adds relations
    divisors = lattice.elementary_divisors()
    h = prod(divisors)

    certified = False
    if fb.bound <= ORACLE_BOUND_LIMIT:
        oracle_h = _oracle_class_number(
            F, fb, lattice, search_bound=ORACLE_SEARCH_BOUND, deadline=deadline
        )
        if lattice.determinant() != h:
            # the oracle inserted true relations that the search had missed
            divisors = lattice.elementary_divisors()
            h = prod(divisors)
        certified = oracle_h == h
        # the oracle count only errs upward (a missed principality test splits
        # one class in two), so oracle > h is inconclusive; oracle < h proves
        # the relation matrix is missing relations
        if oracle_h is not None and oracle_h < h:
            raise ArithmeticError(
                f"enumeration oracle shows at most {oracle_h} classes for d={F.d}, "
                f"relation method stopped at h={h}"
            )
    h3 = _three_part(h)
    p3 = tuple(sorted(_three_part(x) for x in divisors if x % 3 == 0))
    return ClassGroupStructure(F.d, divisors, h, h3, p3, certified)


def _all_ideals_up_to(
    F: PureCubicField, fb: FactorBase
) -> List[Tuple[IdealHNF, Tuple[int, ...]]]:
    """Every integral ideal of norm <= fb.bound (products of factor-base
    primes), each with its exponent vector over fb."""
    items = [(IdealHNF.unit_ideal(F), 1, ())]
    for p in fb.primes:
        new = []
        for I, nI, e in items:
            acc, nacc, k = I, nI, 0
            while True:
                new.append((acc, nacc, e + (k,)))
                nacc *= p.norm
                if nacc > fb.bound:
                    break
                acc, k = mul(acc, p.ideal), k + 1
        items = new
    return [(I, e) for I, nI, e in items if nI <= fb.bound]


def _oracle_class_number(
    F: PureCubicField, fb: FactorBase, lattice: HNFLattice, search_bound: int, deadline: float
) -> Optional[int]:
    """Independent class number: enumerate ideals below the bound and merge
    them into classes by bounded principality tests.  Returns None when the
    deadline cuts the enumeration short.

    An ideal is tested first against the representatives in its class of
    Z^n/lattice (equal `lattice.residue` of the exponent vectors), then
    against the rest, each group in order of creation.  The order changes
    only how many tests miss: an ideal is placed exactly when some
    representative tests principal.  A merge of I with a representative R
    of another relation class is a relation the lattice lacks: the
    witness is checked to generate the quotient ideal tested, and
    e(I) - e(R) is inserted into `lattice`.

    N(I)/I is built only when a test reads it, for the second quotient
    R*(N(I)/I), or when I becomes a representative: a first quotient
    that tests principal never needs it.
    """
    reps: List[Tuple[IdealHNF, IdealHNF, Tuple[int, ...]]] = []  # R, N(R)/R, e(R)
    keys: List[Tuple[int, ...]] = []
    for I, e in _all_ideals_up_to(F, fb):
        if time.monotonic() > deadline:
            return None
        I_inv: Optional[IdealHNF] = None
        key = lattice.residue(e)
        # a stable sort: the representatives with the ideal's key first
        for i in sorted(range(len(reps)), key=lambda i: keys[i] != key):
            R, R_inv, e_R = reps[i]
            # generators can be short in either direction, try both quotients
            J = mul(I, R_inv)
            alpha = is_principal_bounded(J, search_bound)
            if alpha is None:
                if I_inv is None:
                    I_inv = class_inverse_representative(I)
                J = mul(R, I_inv)
                alpha = is_principal_bounded(J, search_bound)
            if alpha is None:
                continue
            if keys[i] != key:
                if ideal_of_element(F, alpha) != J:
                    raise ArithmeticError(f"oracle witness {alpha} does not generate its ideal")
                # (alpha) is I/R or R/I times a rational integer
                lattice.insert([x - y for x, y in zip(e, e_R)])
                keys = [lattice.residue(r[2]) for r in reps]
            break
        else:
            if I_inv is None:
                I_inv = class_inverse_representative(I)
            reps.append((I, I_inv, e))
            keys.append(key)
    return len(reps)


def decide_k_structure(cg: ClassGroupStructure, u: int) -> KStructureReport:
    """Structure of the 3-class group of the sextic closure from (h_{Gamma,3}, u).

    h_{k,3} = (u/3) * h_{Gamma,3}^2 always; the type is only classified for
    the two cases pinned down by the 3-Sylow of the cubic field with u = 1.
    """
    if u not in (1, 3):
        raise ValueError("u must be 1 or 3")
    p = cg.field_d
    if p % 9 != 1 or not isprime(p):
        raise ValueError("structure decision requires Q(cbrt p) with p prime, p = 1 mod 9")
    h3 = cg.h3
    h_k3 = Fraction(u, 3) * h3 * h3
    if h_k3.denominator != 1:
        raise ArithmeticError("h_{k,3} came out non-integral")
    h_k3 = int(h_k3)
    if cg.p3_type == (9,) and u == 1:
        k_type = "(9,3)"
    elif cg.p3_type == (3, 3) and u == 1:
        k_type = "(3,3,3)"
    else:
        k_type = "outside classified cases"
    h_over_27 = "3 does not divide h" if h_k3 == 27 else "undetermined"
    return KStructureReport(h_k3, k_type, h_over_27)
