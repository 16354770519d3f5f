"""Exact integer linear algebra: HNF, SNF, determinants and small-lattice reduction.

Everything here works on plain Python integers, so no precision is ever
lost during the reductions.  A class group's relation lattice is kept in
Hermite normal form one row at a time (`HNFLattice`, up to a few hundred
columns for the catalogued fields, with sparse rows), and `snf` runs only
on the block of its basis whose pivots exceed 1, a few rows at most; the
other matrices are tiny.  There is no integer-kernel routine: the
congruence system for an inverse-class representative N(J)*J^-1 is
solved through the dual of a triangular lattice in `ideals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0])
        flat = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(rows, cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_lists(), other.to_lists()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(out)


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    a = M.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _hnf_inplace(a: List[List[int]], u: List[List[int]]) -> None:
    """Row-reduce `a` to HNF, accumulating the row operations in `u`."""
    rows, cols = len(a), len(a[0])
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        # eliminate below the pivot row; smallest pivot first to limit growth
        while True:
            pivot = None
            best = None
            for i in range(pr, rows):
                v = abs(a[i][pc])
                if v != 0 and (best is None or v < best):
                    best, pivot = v, i
            if pivot is None:
                break
            if pivot != pr:
                a[pr], a[pivot] = a[pivot], a[pr]
                u[pr], u[pivot] = u[pivot], u[pr]
            done = True
            for i in range(pr + 1, rows):
                if a[i][pc] != 0:
                    q = a[i][pc] // a[pr][pc]
                    for j in range(cols):
                        a[i][j] -= q * a[pr][j]
                    for j in range(len(u[0])):
                        u[i][j] -= q * u[pr][j]
                    if a[i][pc] != 0:
                        done = False
            if done:
                break
        if a[pr][pc] == 0:
            continue
        if a[pr][pc] < 0:
            a[pr] = [-x for x in a[pr]]
            u[pr] = [-x for x in u[pr]]
        # reduce the entries above the pivot
        for i in range(pr):
            q = a[i][pc] // a[pr][pc]
            if q:
                for j in range(cols):
                    a[i][j] -= q * a[pr][j]
                for j in range(len(u[0])):
                    u[i][j] -= q * u[pr][j]
        pr += 1


def hnf(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Hermite normal form H = U*M with U unimodular.

    H is upper triangular (echelon) with positive pivots; entries above
    each pivot are reduced modulo the pivot.  Zero rows sink to the
    bottom when M is rank deficient.
    """
    a = M.to_lists()
    u = IntMatrix.identity(M.rows).to_lists()
    _hnf_inplace(a, u)
    return IntMatrix.from_rows(a), IntMatrix.from_rows(u)


def snf(M: IntMatrix) -> List[int]:
    """Elementary divisors of M: the diagonal d of its Smith normal form.

    d has min(rows, cols) entries, d_i | d_{i+1}, and the zeros at the end
    count the rank deficit.  Only the divisors are computed; the unimodular
    transforms are not.
    """
    rows, cols = M.rows, M.cols
    a = M.to_lists()

    def smallest(t):
        # first nonzero entry of least absolute value in the trailing block
        best, pos = 0, None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                w = abs(row[j])
                if w and (pos is None or w < best):
                    best, pos = w, (i, j)
                    if w == 1:
                        return pos
        return pos

    d: List[int] = []
    n = min(rows, cols)
    for t in range(n):
        pivot = smallest(t)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    dirty = dirty or a[t][j] != 0
            # the pivot must divide every remaining entry
            if not dirty:
                if abs(p) == 1:
                    break
                offender = next(
                    (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1 :])), None
                )
                if offender is None:
                    break
                # fold the offending row into the pivot row
                a[t] = [x + y for x, y in zip(a[t], a[offender])]
            pivot = smallest(t)
        d.append(abs(a[t][t]))
    return d + [0] * (n - len(d))


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


class HNFLattice:
    """A sublattice of Z^ncols kept in reduced Hermite normal form as rows arrive.

    The basis is keyed by pivot column: the row for pivot column c is zero
    before c, has a positive entry at c, and every other basis row has an
    entry in [0, pivot) at c.  That basis is unique, so two lattices are
    equal exactly when their bases are.  Relation rows have a handful of
    nonzero entries, and so do the basis rows, so each row is a
    {column: value} dict of its nonzero entries.  `insert` adds one row by
    extended-gcd elimination (Hafner--McCurley; Cohen, GTM 138, 2.4.3).
    """

    def __init__(self, ncols: int):
        if ncols <= 0:
            raise ValueError("lattice dimension must be positive")
        self.ncols = ncols
        self._basis: Dict[int, Dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._basis)

    def determinant(self) -> Optional[int]:
        """Index of the lattice in Z^ncols (product of pivots); None below full rank."""
        if self.rank < self.ncols:
            return None
        out = 1
        for c, row in self._basis.items():
            out *= row[c]
        return out

    def matrix(self) -> IntMatrix:
        """The basis rows in pivot order, as a rank x ncols matrix."""
        if not self._basis:
            raise ValueError("the zero lattice has no basis rows")
        n = self.ncols
        entries = []
        for c in sorted(self._basis):
            dense = [0] * n
            for k, x in self._basis[c].items():
                dense[k] = x
            entries.extend(dense)
        return IntMatrix(self.rank, n, tuple(entries))

    def elementary_divisors(self) -> Tuple[int, ...]:
        """The nontrivial elementary divisors of Z^ncols / lattice, ascending.

        At full rank a pivot-1 column has a single nonzero entry, the 1 in
        its own row, since every other row is reduced to [0, 1) there.  So
        the quotient is the cokernel of the block of rows and columns whose
        pivots exceed 1, and `snf` runs on that block alone.
        """
        if self.rank < self.ncols:
            raise ValueError("the quotient is infinite below full rank")
        big = sorted(c for c, row in self._basis.items() if row[c] > 1)
        if not big:
            return ()
        block = [[self._basis[c].get(k, 0) for k in big] for c in big]
        return tuple(x for x in snf(IntMatrix.from_rows(block)) if x > 1)

    def residue(self, v: Sequence[int]) -> Tuple[int, ...]:
        """v reduced by the basis rows in ascending pivot column, so that
        0 <= entry < pivot at every pivot column.

        Two vectors have the same residue exactly when their difference
        lies in the lattice: a nonzero lattice vector leads with a nonzero
        multiple of the pivot in that column, and the difference of two
        residues is smaller than the pivot in size at every pivot column.
        """
        if len(v) != self.ncols:
            raise ValueError("vector length does not match the lattice dimension")
        r = {j: int(v[j]) for j in compress(range(self.ncols), v)}
        self._reduce_row(r, 0)
        return tuple(r.get(j, 0) for j in range(self.ncols))

    def insert(self, row: Sequence[int]) -> bool:
        """Add `row` to the lattice; return whether the lattice changed."""
        if len(row) != self.ncols:
            raise ValueError("row length does not match the lattice dimension")
        basis = self._basis
        v = {j: int(row[j]) for j in compress(range(self.ncols), row)}
        changed: List[int] = []
        while v:
            j = min(v)
            x = v[j]
            h = basis.get(j)
            if h is None:
                # v leads in a column with no pivot yet: it becomes one
                basis[j] = v if x > 0 else {k: -y for k, y in v.items()}
                changed.append(j)
                break
            p = h[j]
            if x % p == 0:
                _axpy(v, -(x // p), h)
                continue
            # unimodular [[s, t], [-x/g, p/g]] on (h, v): new pivot g, v gets 0 at j
            g, s, t = _xgcd(p, x)
            a, b = p // g, x // g
            new_h: Dict[int, int] = {}
            new_v: Dict[int, int] = {}
            for k in h.keys() | v.keys():
                y, z = h.get(k, 0), v.get(k, 0)
                hk, vk = s * y + t * z, a * z - b * y
                if hk:
                    new_h[k] = hk
                if vk:
                    new_v[k] = vk
            basis[j], v = new_h, new_v
            changed.append(j)
        if changed:
            self._reduce(changed)
        return bool(changed)

    def _reduce(self, changed: List[int]) -> None:
        """Restore 0 <= entry < pivot above every pivot after the rows in `changed`
        (ascending pivot columns) moved.

        A changed row is reduced in full.  An unchanged row was reduced
        before, so only an entry at a changed pivot column can have left
        [0, pivot); a row with no entry there is skipped.
        """
        basis = self._basis
        moved = set(changed)
        for c, r in basis.items():
            if moved.isdisjoint(r):
                continue  # a changed row always has its own pivot column
            if c in moved:
                self._reduce_row(r, c + 1)
                continue
            start = next(
                (k for k in changed if k > c and k in r and not 0 <= r[k] < basis[k][k]), None
            )
            if start is not None:
                self._reduce_row(r, start)

    def _reduce_row(self, r: Dict[int, int], start: int) -> None:
        """Reduce the entries of r at pivot columns from `start` on, in
        ascending column order, fill-in included."""
        basis = self._basis
        todo = [k for k in r if k >= start and k in basis]
        heapify(todo)
        last = -1
        while todo:
            k = heappop(todo)
            if k == last:
                continue  # fill-in pushed a column that was already queued
            last = k
            h = basis[k]
            q = r.get(k, 0) // h[k]
            if q:
                for c in _axpy(r, -q, h):
                    if c in basis:
                        heappush(todo, c)


def _axpy(v: Dict[int, int], q: int, h: Dict[int, int]) -> List[int]:
    """v += q*h on sparse rows, dropping the zeros; return the columns filled in."""
    fill = []
    for k, y in h.items():
        z = v.get(k)
        if z is None:
            v[k] = q * y
            fill.append(k)
        else:
            z += q * y
            if z:
                v[k] = z
            else:
                del v[k]
    return fill


def lll_reduce(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL-reduce a basis of linearly independent row vectors (standard inner
    product, delta=3/4).

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): with d_0 = 1 and d_{i+1} the
    Gram determinant of rows 0..i, it keeps d_i and lam_ij = d_{j+1}*mu_ij
    as integers, so every step is exact without a fraction.  Row k is
    size-reduced against rows k-1, ..., 0 with mu rounded half to even, the
    Lovasz test reads 4*d_{k+1}*d_{k-1} >= 3*d_k^2 - 4*lam^2, and a swap
    updates d_k and the lam exactly.  These are the steps of the rational
    algorithm (Alg. 2.6.3) in the same order, so the output is the same
    basis.  Intended for the tiny (3-dimensional) ideal lattices, where it
    keeps generator searches over small boxes.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise ValueError("basis rows are linearly dependent")

    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            break  # safety net; reduction quality only affects search speed
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            l = lk[j]
            if 2 * abs(l) <= dj:
                continue  # |mu| <= 1/2 rounds to 0 (a tie goes to the even 0)
            q, r = divmod(l, dj)
            if 2 * r > dj or (2 * r == dj and q & 1):
                q += 1
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lk[j] = l - q * dj
            lj = lam[j]
            for i in range(j):
                lk[i] -= q * lj[i]
        m = lk[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            B = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(k - 1, 1)
    return b
