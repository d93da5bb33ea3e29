"""Zeta functions from partial Euler products over primes of prescribed
Frobenius order: truncated products with tail bounds, functional-equation
verification, recursive analytic continuation, natural-boundary diagnostics,
Dirichlet L-functions, and exact Ihara zeta computations on voltage covers.
"""

__version__ = "0.1.0"

from .continuation import (GEvaluator, PartialZetaEvaluator,
                           SingularityCatalog, SingularPoint, boundary_report,
                           continue_f_power, counting_functions, feq_residual,
                           lambda_q_betas, mq_classes)
from .core import (PrimeTable, TruncationPolicy, ZetaSystem, truncated_zeta_P,
                   truncated_zeta_Pn)
from .errors import (BudgetExceededError, DomainError, InsufficientDataError,
                     InvalidConfigError, PartialZetaError, PoleAtOneError,
                     SingularLocalFactorError, UnresolvedBoxError)
from .frobenius import (Character, CyclicGroup, truncated_Z,
                        zp_factorization_residual)
from .graphs import (GraphZetaSystem, MultiGraph, VoltageGraph, build_cover,
                     graph_L, graph_Ls, graph_singularities_in_s, ihara_det,
                     ihara_edge, parse_graph_file, partial_zeta_series,
                     primitive_cycles)
from .lfunctions import (DirichletCharacter, dirichlet_L,
                         fundamental_discriminant, hurwitz_zeta,
                         kronecker_character, kronecker_symbol,
                         prime_order_character)
from .numberfield import (AbelianSystem, cyclic_system, find_zeros,
                          g_closed_form, kronecker_system)
from .series import Cyclotomic, ExactSeries

__all__ = [name for name in dir() if not name.startswith("_")]
