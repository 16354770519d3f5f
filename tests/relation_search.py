"""Helpers for tests of the relation search.

`BUDGET_SECONDS` is the budget the tests pass to `class_group` in place
of its 600 s default: each field they run finishes in seconds, so a
search that stalls fails promptly as `BudgetExhausted`.

`spied_search` drains `class_group`'s relation search and keeps each
insert it yields.  `ascending_base` renumbers a factor base by ascending
q, the order that `build_factor_base` collects it in.
`reference_search` is the relation search that
computes every element: `relation_row` on each element of the stream,
each row inserted, and a stop after STABLE_WINDOW full-rank rows that
leave the lattice unchanged.  `class_group` reads a non-primitive element
off earlier rows instead, and must count the same elements as rows, in
the same order, with the same effect on the lattice, and end on the same
basis.
"""

import time

from purecubic.classgroup import (
    STABLE_WINDOW,
    FactorBase,
    _element_stream,
    _relation_search,
    build_factor_base,
    relation_row,
)
from purecubic.zlinalg import HNFLattice

BUDGET_SECONDS = 60.0


def spied_search(F):
    """(alpha, its row, changed, full rank) after each
    insert of class_group(F)'s relation search, and the lattice it
    searched, before any oracle relation."""
    fb = build_factor_base(F)
    lattice = HNFLattice(len(fb.primes))
    search = _relation_search(F, fb, lattice, time.monotonic() + BUDGET_SECONDS)
    inserts = [(alpha, row, changed, lattice.rank == lattice.ncols) for alpha, row, changed in search]
    return inserts, lattice


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
        changed = lattice.insert(row)
        rows.append((alpha, changed, lattice.rank == n))
        if lattice.rank == n:
            stable = 0 if changed else stable + 1
            if stable >= STABLE_WINDOW:
                break
    return rows, lattice


def ascending_base(fb):
    """fb numbered by ascending q: its prime j becomes prime n - 1 - j,
    and `columns` keeps its keys and each q's order of primes."""
    n = len(fb.primes)
    columns = {q: tuple(n - 1 - j for j in js) for q, js in fb.columns.items()}
    return FactorBase(fb.bound, fb.primes[::-1], columns, fb.product)
