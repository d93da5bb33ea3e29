"""Exact-series and cyclotomic operations only the tests use, kept out of
the package."""
from partialzeta.series import Cyclotomic, ExactSeries


def derivative(f: ExactSeries) -> ExactSeries:
    """d/du of a series in u, one order shorter."""
    cs = [f.coeffs[k] * k for k in range(1, len(f.coeffs))]
    order = None if f.order is None else max(f.order - 1, 0)
    return ExactSeries(cs, order)


def conjugate_map(a: Cyclotomic, t: int) -> Cyclotomic:
    """Galois action zeta -> zeta^t."""
    acc = Cyclotomic(a.q, [])
    for j, c in enumerate(a.vec):
        acc = acc + Cyclotomic.root_power(a.q, j * t) * c
    return acc
