"""In-process spans around the package's public functions, for the traced run.

Each wrapped function becomes a span named ``<layer>.<function>``.  Spans
nest on a stack; a span's self time is its duration minus the time its child
spans cover.  Spans are aggregated in memory as (calls, inclusive seconds,
self seconds) per name -- the hot geometry spans number in the hundreds of
thousands per pass, too many to keep one record each.

A function is wrapped at every name its callers look up: the module
attribute (``geometry.radius``, used as ``geometry.radius(...)`` by
``verify``) and every ``from .x import f`` alias of it (``rayleigh.radius``,
``verify.integrate``, ...), so the traced run executes the same code paths
as the untraced one.  ``verify.FAST_CHECKS`` is left alone: ``run_checks``
dispatches the fault hook on the identity of its entries.  Per-check times
come instead from ``verify._worst``, which every check calls exactly once, as
it returns.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy
import scipy.linalg

from steklov_shell import cli, geometry, quadrature, rayleigh, shell_spectrum, solver, special, verify

# (layer, module, public functions) -- every module of the package but errors.
LAYERS = (
    ("quadrature", quadrature, ("integrate",)),
    ("geometry", geometry, ("radius", "radius_deriv", "arc_factor", "phi_weight", "psi_weight")),
    ("special", special, ("wallis_table", "wallis", "harmonic_dim", "sphere_area", "catalan_series",
                          "wallis_even_series", "log_series_identity")),
    ("shell_spectrum", shell_spectrum, ("quadratic_coeffs", "delta_pair", "delta0", "sigma1_closed_form",
                                        "mu_sigma", "radial_coefficient", "spectrum", "spectrum_complete_below",
                                        "eigenfunction_radial", "scale_invariant", "optimal_eps")),
    ("rayleigh", rayleigh, ("steklov_angular_constant", "ds_angular_constant", "w1", "w2", "w3", "v1", "v2",
                            "v3", "g_comparator", "h_comparator", "inner_boundary_mass", "steklov_bound",
                            "ds_energy", "ds_boundary_mass", "ds_bound", "test_function_orthogonality")),
    ("solver", solver, ("boundary_points", "validate_problem_size", "assemble_steklov", "solve_steklov",
                        "solve_dirichlet_steklov", "boundary_residual", "solve_with_order_fallback",
                        "group_eigenvalues")),
    ("cli", cli, ("main",)),
    ("verify", verify, ("run_checks", "format_report")),
)
SOLVE_FUNCTIONS = ("solve_steklov", "solve_dirichlet_steklov")


class Tracer:
    """Aggregated spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._child_s: list[float] = []  # time covered by children, per open span
        self.panels = 0  # sum of QuadResult.subdivisions
        self.solves = 0
        self.solver_orders: list[int] = []
        self.check_s: dict[str, float] = {}
        self._check_start = 0.0

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(result) runs when fn returns normally."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                self.calls[name] += 1
                self.incl_s[name] += dt
                self.self_s[name] += dt - child
                if self._child_s:
                    self._child_s[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _count_panels(self, result):
        self.panels += result.subdivisions

    def _count_solve(self, result):
        self.solves += 1
        self.solver_orders.append(result.basis.max_order)

    def _wrap_worst(self, fn):
        @functools.wraps(fn)
        def worst(name, *args, **kwargs):
            result = fn(name, *args, **kwargs)
            now = time.perf_counter()
            self.check_s[name] = self.check_s.get(name, 0.0) + now - self._check_start
            self._check_start = now
            return result

        return worst

    def install(self) -> None:
        """Patch every public function of the package; call once, in a traced process only."""
        replaced = {}
        for layer, module, names in LAYERS:
            for name in names:
                fn = getattr(module, name)
                target, hook = fn, None
                if module is quadrature:
                    hook = self._count_panels
                elif module is solver and name in SOLVE_FUNCTIONS:
                    hook = self._count_solve
                elif module is verify and name == "run_checks":
                    target = self._timed_checks(fn)
                replaced[id(fn)] = self.wrap(f"{layer}.{name}", target, hook)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "steklov_shell" or mod_name.startswith("steklov_shell."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])
        verify._worst = self._wrap_worst(verify._worst)
        basis = solver.TrefftzBasis
        basis.evaluate = self.wrap("solver.TrefftzBasis.evaluate", basis.evaluate)
        basis.normal_derivative = self.wrap("solver.TrefftzBasis.normal_derivative", basis.normal_derivative)
        scipy.linalg.cholesky = self.wrap("lapack.cholesky", scipy.linalg.cholesky)
        scipy.linalg.eigh = self.wrap("lapack.eigh", scipy.linalg.eigh)
        numpy.linalg.cond = self.wrap("lapack.cond", numpy.linalg.cond)

    def _timed_checks(self, run_checks):
        @functools.wraps(run_checks)
        def timed(*args, **kwargs):
            self._check_start = time.perf_counter()
            return run_checks(*args, **kwargs)

        return timed

    # ------------------------------------------------------------------

    def _layer_sum(self, table, layer: str):
        return sum((v for k, v in table.items() if k.startswith(layer + ".")), table.default_factory())

    def _ms_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.incl_s[name] / calls if calls else 0.0

    def metrics(self) -> dict:
        """Per-layer values, keyed by the benchmark's per-layer metric names."""
        attempts = sum(self.calls.get(f"solver.{f}", 0) for f in SOLVE_FUNCTIONS)
        out = {
            "quadrature.integrate.calls": self.calls.get("quadrature.integrate", 0),
            "quadrature.integrate.panels": self.panels,
            "quadrature.integrate.self_s": self.self_s.get("quadrature.integrate", 0.0),
            "rayleigh.steklov_bound.ms_per_call": self._ms_per_call("rayleigh.steklov_bound"),
            "rayleigh.ds_bound.ms_per_call": self._ms_per_call("rayleigh.ds_bound"),
            "solver.attempts": attempts,
            "solver.solves": self.solves,
            "solver.useful_ratio": self.solves / attempts if attempts else 1.0,
            "solver.min_order": min(self.solver_orders, default=0),
            "solver.basis_eval.self_s": self.self_s.get("solver.TrefftzBasis.evaluate", 0.0)
            + self.self_s.get("solver.TrefftzBasis.normal_derivative", 0.0),
            "solver.assemble.self_s": self.self_s.get("solver.assemble_steklov", 0.0),
            "solver.boundary_residual.s": self.incl_s.get("solver.boundary_residual", 0.0),
            "solver.lapack.cholesky_s": self.incl_s.get("lapack.cholesky", 0.0),
            "solver.lapack.cond_s": self.incl_s.get("lapack.cond", 0.0),
            "solver.lapack.eigh_s": self.incl_s.get("lapack.eigh", 0.0),
            "cli.self_s": self.self_s.get("cli.main", 0.0),
        }
        for layer in ("geometry", "special", "shell_spectrum"):
            out[f"{layer}.calls"] = self._layer_sum(self.calls, layer)
            out[f"{layer}.self_s"] = self._layer_sum(self.self_s, layer)
        for layer in ("rayleigh", "solver"):
            out[f"{layer}.self_s"] = self._layer_sum(self.self_s, layer)
        for check, seconds in self.check_s.items():
            out[f"verify.{check}_s"] = seconds
        return out
