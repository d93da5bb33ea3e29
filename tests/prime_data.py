"""Row-wise prime data for building small test systems, and row views of
the column tables the systems keep."""
from dataclasses import dataclass

import numpy as np

from partialzeta.core import ExplicitSystem, PrimeTable
from partialzeta.errors import InvalidConfigError


@dataclass(frozen=True, order=True)
class PrimeDatum:
    """One abstract prime: a norm and a Frobenius conjugacy-class label."""

    norm: float
    id: int
    frob_class: int = 0
    frob_order: int = 1

    def __post_init__(self):
        if not self.norm > 1:
            raise InvalidConfigError(f"prime norm must exceed 1, got {self.norm}")
        if self.frob_order < 1:
            raise InvalidConfigError("frob_order must be a positive integer")


def explicit_system(primes: list[PrimeDatum], group_order: int) -> ExplicitSystem:
    """The ExplicitSystem of a list of rows."""
    return ExplicitSystem([p.norm for p in primes],
                          [p.frob_class for p in primes],
                          [p.frob_order for p in primes], group_order,
                          id=[p.id for p in primes])


def table_rows(table: PrimeTable) -> list[tuple]:
    """(norm, id, frob_class, frob_order) per prime, as the rows of the
    CSV dump; the id of a table without an id column is its norm."""
    ids = table.norm.astype(np.int64) if table.id is None else table.id
    return list(zip(table.norm.tolist(), ids.tolist(),
                    table.frob_class.tolist(), table.frob_order.tolist()))
