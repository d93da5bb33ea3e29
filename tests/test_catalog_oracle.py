"""g's singularity catalogs against independent mpmath evaluations.

g = zeta^{q-1} (ramified) / prod_j L(s, chi^j), so in the critical strip a
zero of g is a zeta zero of order q - 1 and a pole is a zero of some
L(s, chi^j).  The sha256 pins only prove that a catalog did not change;
this test checks that each cataloged point is where its factor vanishes,
with mpmath as the oracle, and that no zeta zero is missing.
"""
import mpmath
import pytest

from partialzeta.lfunctions import dirichlet_L, prime_order_character
from partialzeta.numberfield import (cyclic_system, find_zeros, g_closed_form,
                                     kronecker_system)

HEIGHT = 30.0
FACTOR_TOL = 1e-9  # |factor| at a cataloged point, evaluated with mpmath
LOCATION_TOL = 1e-9  # distance from a zeta zero to its catalog point

_SYSTEMS = {
    "d5": lambda: kronecker_system(5),
    # L(s, chi_-568) hides two line zeros between samples of Hardy's Z at
    # theta steps of pi/4; resampling at pi/8 finds them
    "d-142": lambda: kronecker_system(-142),
    "char7,3,3": lambda: cyclic_system(prime_order_character(7, 3, 3)),
    "char11,5": lambda: cyclic_system(prime_order_character(11, 5)),
}


def _mp_L(chi, s: complex):
    """L(s, chi) by mpmath's Hurwitz-zeta sum, at 20 digits."""
    table = [chi.value(n) for n in range(chi.modulus)]
    with mpmath.workdps(20):
        return complex(mpmath.dirichlet(mpmath.mpc(s.real, s.imag), table))


def _zeta_zeros_below(height: float) -> list[complex]:
    zeros, k = [], 1
    while True:
        with mpmath.workdps(20):
            z = complex(mpmath.zetazero(k))
        if z.imag >= height:
            return zeros
        zeros.append(z)
        k += 1


@pytest.fixture(scope="module")
def zeta_zeros():
    return _zeta_zeros_below(HEIGHT)


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_catalog_against_mpmath(name, zeta_zeros):
    sys_obj = _SYSTEMS[name]()
    q = sys_obj.group_order
    chis = [sys_obj.chi.power(j) for j in range(1, q)]
    cat = find_zeros(g_closed_form(sys_obj), HEIGHT)
    for p in cat.points:
        s = p.location
        if p.order > 0:
            # only zeta has a positive exponent in g
            assert p.order == q - 1, f"zero of order {p.order} at {s}"
            with mpmath.workdps(20):
                zeta = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            assert abs(zeta) < FACTOR_TOL, f"zeta does not vanish at {s}"
        else:
            # the owning L(s, chi^j), picked by the package's values and
            # checked with mpmath; coincident L zeros would add their orders
            vanishing = [chi for chi in chis
                         if abs(dirichlet_L(s, chi)) < FACTOR_TOL]
            assert p.order == -len(vanishing), f"pole at {s}"
            assert abs(_mp_L(vanishing[0], s)) < FACTOR_TOL, \
                f"L(s, chi^j) does not vanish at {s}"
    for z in zeta_zeros:
        near = [p for p in cat.points if abs(p.location - z) < LOCATION_TOL]
        assert [p.order for p in near] == [q - 1], f"zeta zero {z}"
