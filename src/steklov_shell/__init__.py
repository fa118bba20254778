"""Steklov spectra of spherical shells.

Exact concentric-shell spectra in any dimension, Rayleigh upper bounds for
eccentric shells to the quadrature tolerance (both the pure spectral and the
mixed inner-Dirichlet problem), and an independent planar eigensolver in a
conformal frame, all cross-validating the fact that the first nonzero eigenvalue
is maximized by the concentric placement.
"""

from .errors import NonConvergenceError
from .geometry import ShellConfig, arc_factor, phi_weight, psi_weight, radius, radius_deriv
from .quadrature import QuadratureRule, QuadResult, gauss_legendre_rule, integrate
from .rayleigh import (
    RayleighBreakdown,
    ds_bound,
    ds_boundary_mass,
    ds_energy,
    g_comparator,
    h_comparator,
    steklov_bound,
    test_function_orthogonality,
    v1,
    v2,
    v3,
    w1,
    w2,
    w3,
)
from .solver import (
    EigResult,
    TrefftzBasis,
    assemble_steklov,
    boundary_residual,
    group_eigenvalues,
    solve_dirichlet_steklov,
    solve_steklov,
)
from .special import (
    WallisTable,
    catalan_series,
    harmonic_dim,
    log_series_identity,
    sphere_area,
    wallis,
    wallis_even_series,
    wallis_table,
)
from .shell_spectrum import (
    QuadraticCoeffs,
    SpectrumEntry,
    delta0,
    delta_pair,
    eigenfunction_radial,
    mu_sigma,
    optimal_eps,
    quadratic_coeffs,
    radial_coefficient,
    scale_invariant,
    sigma1_closed_form,
    spectrum,
    spectrum_complete_below,
    tau1_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "NonConvergenceError",
    "ShellConfig",
    "arc_factor",
    "phi_weight",
    "psi_weight",
    "radius",
    "radius_deriv",
    "QuadratureRule",
    "QuadResult",
    "gauss_legendre_rule",
    "integrate",
    "RayleighBreakdown",
    "ds_bound",
    "ds_boundary_mass",
    "ds_energy",
    "g_comparator",
    "h_comparator",
    "steklov_bound",
    "test_function_orthogonality",
    "v1",
    "v2",
    "v3",
    "w1",
    "w2",
    "w3",
    "EigResult",
    "TrefftzBasis",
    "assemble_steklov",
    "boundary_residual",
    "group_eigenvalues",
    "solve_dirichlet_steklov",
    "solve_steklov",
    "WallisTable",
    "catalan_series",
    "harmonic_dim",
    "log_series_identity",
    "sphere_area",
    "wallis",
    "wallis_even_series",
    "wallis_table",
    "QuadraticCoeffs",
    "SpectrumEntry",
    "delta0",
    "delta_pair",
    "eigenfunction_radial",
    "mu_sigma",
    "optimal_eps",
    "quadratic_coeffs",
    "radial_coefficient",
    "scale_invariant",
    "sigma1_closed_form",
    "spectrum",
    "spectrum_complete_below",
    "tau1_closed_form",
    "__version__",
]
