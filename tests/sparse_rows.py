"""Conversions between the dense list rows the tests write and the sparse
{column: entry} rows that `relation_row` returns and `HNFLattice` takes."""


def sparse(v):
    """The nonzero entries of the list v, keyed by position."""
    return {j: x for j, x in enumerate(v) if x}


def dense(row, n):
    """The sparse row as a tuple of length n, zeros filled in; None stays None."""
    if row is None:
        return None
    return tuple(row.get(j, 0) for j in range(n))
