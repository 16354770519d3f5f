"""Helpers for tests of the relation search.

`BUDGET_SECONDS` is the budget the tests pass to `class_group` in place
of its 600 s default: each field they run finishes in seconds, so a
search that stalls fails promptly as `BudgetExhausted`.

`spied_search` runs `class_group` with a lattice that records each row
it takes.  `reference_search` is the relation search that computes every
element: `relation_row` on each element of the stream, each row inserted,
and a stop after STABLE_WINDOW full-rank rows that leave the lattice
unchanged.  `class_group` reads a non-primitive element off earlier rows
instead, and must count the same elements as rows, in the same order,
with the same effect on the lattice, and end on the same basis.
"""

from unittest import mock

from purecubic import classgroup
from purecubic.classgroup import (
    STABLE_WINDOW,
    _element_stream,
    _lattice_row,
    build_factor_base,
    relation_row,
)
from purecubic.zlinalg import HNFLattice

BUDGET_SECONDS = 60.0


def spied_search(F):
    """class_group(F) with the oracle off (it runs after the search and may
    add relations), and the lattice it searched, whose `flags` hold
    (changed, full rank) and whose `rows` hold (the element met last, the
    row) after each insert."""
    made, met = [], [None]

    class Spy(HNFLattice):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.flags = []
            self.rows = []
            made.append(self)

        def insert(self, row):
            changed = super().insert(row)
            self.flags.append((changed, self.rank == self.ncols))
            self.rows.append((met[0], row))
            return changed

    def stream():
        for alpha in _element_stream():
            met[0] = alpha
            yield alpha

    with mock.patch.multiple(
        classgroup, HNFLattice=Spy, _element_stream=stream, ORACLE_BOUND_LIMIT=0
    ):
        cg = classgroup.class_group(F, budget_seconds=BUDGET_SECONDS)
    (lattice,) = made
    return cg, lattice


def reference_search(F):
    """(alpha, changed, full rank) for each element alpha that gave a row,
    with the lattice's state after its insert, and the final lattice."""
    fb = build_factor_base(F)
    n = len(fb.primes)
    lattice = HNFLattice(n)
    rows = []
    stable = 0
    for alpha in _element_stream():
        row = relation_row(F, fb, alpha)
        if row is None:
            continue
        changed = lattice.insert(_lattice_row(row, n))
        rows.append((alpha, changed, lattice.rank == n))
        if lattice.rank == n:
            stable = 0 if changed else stable + 1
            if stable >= STABLE_WINDOW:
                break
    return rows, lattice
