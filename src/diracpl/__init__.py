"""Series solutions of the radial Dirac equation with a power-law odd potential
at rest-mass energy, built on tridiagonal basis representations."""

__version__ = "0.1.0"

from .basis import (BasisParams, PhysicalParams, Rep, derived_params, kinetic_balance_apply,
                    phi_minus, phi_plus, select_representation)
from .quadrature import QuadratureRule, RadialMeasure, gauss_laguerre
from .recursion import (ThreeTermRecursion, build_recursion, closed_form_sequence,
                        coefficient_sequence, rescale, solve_forward)
from .solution import (SeriesSolution, SpinorSample, assemble, default_r_grid,
                       diagonal_special_case, dirac_grid, dirac_residual, evaluate,
                       map_params, negative_energy_solution, second_order_residual,
                       solve, swap_energy, weak_form_boundary_check, weak_form_residual)
from .wave_operator import build_operator, matrix_element_analytic, matrix_element_numeric

__all__ = [
    "__version__",
    "PhysicalParams", "BasisParams", "Rep", "select_representation",
    "phi_plus", "phi_minus", "kinetic_balance_apply",
    "QuadratureRule", "RadialMeasure", "gauss_laguerre",
    "derived_params",
    "matrix_element_analytic", "matrix_element_numeric", "build_operator",
    "ThreeTermRecursion", "build_recursion",
    "solve_forward", "coefficient_sequence", "closed_form_sequence", "rescale",
    "SeriesSolution", "SpinorSample", "assemble", "solve", "evaluate",
    "default_r_grid", "dirac_grid", "dirac_residual", "second_order_residual",
    "weak_form_residual", "weak_form_boundary_check", "diagonal_special_case",
    "map_params", "swap_energy", "negative_energy_solution",
]
