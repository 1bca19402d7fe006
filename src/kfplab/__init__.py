"""Desk-scale numerical laboratory for kinetic Fokker-Planck equations.

The package bundles the Galilean geometry of kinetic equations, the
Kolmogorov fundamental solution, a finite volume solver for rough
bounded-measurable coefficients, and a family of estimate checkers that
measure classical regularity inequalities (energy, gain of
integrability, Harnack, Hoelder) on solver output.
"""

from .geometry import (
    PhasePoint,
    as_point,
    compose,
    inverse,
    scale,
    Cylinder,
    make_cylinder,
    translate_cylinder,
    scale_cylinder,
    VitaliReport,
    vitali_inclusion_check,
)
from .kernel import kolmogorov_g, kernel_mass, convolve_representation
from .solver.coefficients import (
    CoefficientField,
    constant_coefficients,
    make_rough_coefficients,
)
from .solver.grid import Box, GridFunction, load_grid_function
from .solver.march import solve
from .solver.weak import weak_residual
from .estimates.checks import (
    check_energy_estimate,
    check_gain_integrability,
    check_harnack,
    check_ivl,
    check_kolm_lp_bound,
    check_linfty_bound,
    check_measure_to_pointwise,
    check_oscillation_decay,
    check_sobolev_gain,
    check_weak_harnack,
    check_weak_poincare,
)
from .estimates.constants import ExplicitConstants, explicit_constants
from .reports import EstimateReport
from .calibration import grid_tolerance, load_calibration, pass_bound

__version__ = "0.1.0"
