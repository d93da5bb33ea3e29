"""Hand-specified systems and row-wise prime data for building small test
systems, and row views of the column tables the systems keep."""
from dataclasses import dataclass

import numpy as np

from partialzeta.core import PrimeTable, ZetaSystem, class_dtype
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


class ExplicitSystem(ZetaSystem):
    """Hand-specified prime columns, classes taken mod #G and ids defaulting
    to positions; used for synthetic test systems."""

    backend = "explicit"

    def __init__(self, norm, frob_class, frob_order, group_order: int,
                 id=None):
        super().__init__(group_order)
        norm = np.asarray(norm, dtype=float)
        classes, orders, ids = (np.asarray(c, dtype=np.int64) for c in (
            frob_class, frob_order, np.arange(len(norm)) if id is None else id))
        if (norm.ndim != 1 or {c.shape for c in (classes, orders, ids)} != {norm.shape}
                or not np.all((norm > 1) & (orders >= 1)
                              & (group_order % np.maximum(orders, 1) == 0))):
            raise InvalidConfigError(f"prime columns need one length, norms > 1 "
                                     f"and frob_orders dividing #G={group_order}")
        dt = class_dtype(group_order)
        self._table = PrimeTable(norm, (classes % group_order).astype(dt),
                                 orders.astype(dt), ids)

    def _enumerate(self, X):
        return self._table[np.flatnonzero(self._table.norm <= X)]

    def count_coeff(self):
        return max(1.0, float(len(self._table)))


def explicit_system(primes: list[PrimeDatum], group_order: int) -> ExplicitSystem:
    """The ExplicitSystem of a list of rows."""
    return ExplicitSystem([p.norm for p in primes],
                          [p.frob_class for p in primes],
                          [p.frob_order for p in primes], group_order,
                          id=[p.id for p in primes])


def order6_system() -> ExplicitSystem:
    """Synthetic #G = 6 system of six primes, one with each Frobenius order
    and each class of Z/6."""
    return ExplicitSystem([2, 3, 5, 7, 11, 13], [0, 3, 2, 1, 4, 5],
                          [1, 2, 3, 6, 3, 6], group_order=6)


def table_rows(table: PrimeTable) -> list[tuple]:
    """(norm, id, frob_class, frob_order) per prime, as the rows of the
    CSV dump; the id of a table without an id column is its norm."""
    ids = table.norm.astype(np.int64) if table.id is None else table.id
    return list(zip(table.norm.tolist(), ids.tolist(),
                    table.frob_class.tolist(), table.frob_order.tolist()))
