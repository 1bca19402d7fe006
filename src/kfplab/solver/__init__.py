"""Finite-volume / semi-Lagrangian laboratory for the kinetic equation."""

from .coefficients import (CoefficientField, constant_coefficients,
                           make_rough_coefficients)
from .grid import (Box, GridFunction, SafeRegionError, centered_axis,
                   load_grid_function, sample_function)
from .march import (CFLViolationError, SolverDivergenceError, fit_order,
                    solve, transport_weights)
from .weak import (HingeProfile, TestBump, WeakResidualReport,
                   default_hinges, default_test_basis, indicator_subsolution,
                   translated_kernel_solution, weak_basis, weak_residual)

__all__ = [
    "CoefficientField", "constant_coefficients", "make_rough_coefficients",
    "Box", "GridFunction", "SafeRegionError", "centered_axis",
    "load_grid_function", "sample_function",
    "CFLViolationError", "SolverDivergenceError", "fit_order", "solve",
    "transport_weights",
    "HingeProfile", "TestBump", "WeakResidualReport", "default_hinges",
    "default_test_basis", "indicator_subsolution",
    "translated_kernel_solution", "weak_basis", "weak_residual",
]
