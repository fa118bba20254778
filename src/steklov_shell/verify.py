"""Self-contained verification suite: every module invariant as a named check.

Each check computes a worst-case measured value and compares it against a
fixed tolerance; the report is one line per check and is byte-identical
across runs (no timings, no timestamps).  The "full" level adds the solver
convergence studies on top of the "fast" set.  Each check is a function named
``check_<report name>``; FAST_CHECKS and FULL_CHECKS are the only definition
of each invariant, and the test suite runs them as they are and asserts that
every check function is registered exactly once.  The fast set is pinned to
the 52 checks whose timings the benchmark (BENCHMARK.json) names, and its
output check expects 52 report lines, so a new check goes in at the full
level unless a benchmark change comes with it.

The fault-injection hook deliberately mis-evaluates one integral so the
harness itself can be shown to catch a broken identity.

Within one run_checks call the planar-solver checks share their solves: each
(problem, a, d) is solved once (see _solve).  A check called on its own
solves everything itself.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, rayleigh, shell_spectrum, solver, special
from .geometry import ShellConfig
from .problems import PROBLEMS
from .quadrature import gauss_legendre_rule, integrate, integrate_batch

FAULTS = ("w2-sign",)

# Shared parameter grids.
NA_GRID = [(n, round(0.05 * j, 2)) for n in range(2, 7) for j in range(1, 20)]
SOLVER_RADII = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} measured={self.measured:.17g} tolerance={self.tolerance:.17g}"


def _quad(f, lo, hi):
    return integrate(f, lo, hi).value


def _worst(
    name: str, tol: float, measured: float, larger_fails: bool = True, strict: bool = False
) -> CheckResult:
    """The result of check `name`; every check returns through here exactly once.

    A strict check asserts a strict inequality, so a measured value equal to
    the tolerance (a tie) fails.
    """
    if not larger_fails:
        ok = measured >= tol
    elif strict:
        ok = measured < tol
    else:
        ok = measured <= tol
    return CheckResult(name=name, passed=bool(ok), measured=float(measured), tolerance=float(tol))


# ----------------------------------------------------------------------
# special functions


def check_wallis_recursion_consistency() -> CheckResult:
    worst = 0.0
    for p in range(61):
        lhs = special.wallis(p + 2) * (p + 2)
        rhs = special.wallis(p) * (p + 1)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return _worst("wallis_recursion_consistency", 1e-13, worst)


def check_wallis_vs_quadrature() -> CheckResult:
    worst = 0.0
    for p in range(31):
        q = _quad(lambda t, p=p: np.sin(t) ** p, 0.0, math.pi)
        worst = max(worst, abs(special.wallis(p) - q))
    return _worst("wallis_vs_quadrature", 1e-11, worst)


def check_wallis_table_monotone_positive() -> CheckResult:
    tab = special.wallis_table(80)
    worst = abs(tab.values[0] - math.pi) + abs(tab.values[1] - 2.0)
    diffs = np.diff(tab.values)
    worst = max(worst, 0.0 if np.all(diffs < 0) and np.all(np.asarray(tab.values) > 0) else 1.0)
    return _worst("wallis_table_monotone_positive", 1e-15, worst)


def check_harmonic_dim_planar_pairs() -> CheckResult:
    worst = max(abs(special.harmonic_dim(2, k) - 2) for k in range(1, 51))
    return _worst("harmonic_dim_planar_pairs", 0.0, float(worst))


def check_catalan_series_closed_form() -> CheckResult:
    worst = 0.0
    for x in np.linspace(-0.24, 0.24, 20):
        closed = 2.0 * math.log(2.0 / (1.0 + math.sqrt(1.0 - 4.0 * x)))
        worst = max(worst, abs(special.catalan_series(float(x)) - closed))
    return _worst("catalan_series_closed_form", 1e-10, worst)


def check_wallis_even_series_closed_form() -> CheckResult:
    worst = 0.0
    for x in np.linspace(-0.9, 0.9, 20):
        closed = math.pi / math.sqrt(1.0 - x * x)
        worst = max(worst, abs(special.wallis_even_series(float(x)) - closed))
    return _worst("wallis_even_series_closed_form", 1e-10, worst)


def check_log_series_closed_form() -> CheckResult:
    worst = 0.0
    for d in np.linspace(0.0, 0.95, 20):
        closed = 2.0 * math.pi * math.log(1.0 + d * d)
        worst = max(worst, abs(special.log_series_identity(float(d)) - closed))
    return _worst("log_series_closed_form", 1e-10, worst)


# ----------------------------------------------------------------------
# geometry


def _dt_grid():
    return np.linspace(0.0, 0.99, 100), np.linspace(0.0, math.pi, 100)


def check_law_of_cosines_residual() -> CheckResult:
    ds, ts = _dt_grid()
    worst = 0.0
    for d in ds:
        R = geometry.radius(float(d), ts)
        res = np.abs(1.0 - d * d - R * R + 2.0 * d * R * np.cos(ts))
        worst = max(worst, float(res.max()))
    return _worst("law_of_cosines_residual", 1e-12, worst)


def check_arc_factor_identity() -> CheckResult:
    ds, ts = _dt_grid()
    worst = 0.0
    for d in ds:
        lhs = geometry.arc_factor(float(d), ts)
        R = geometry.radius(float(d), ts)
        Rp = geometry.radius_deriv(float(d), ts)
        worst = max(worst, float(np.abs(lhs - np.sqrt(R * R + Rp * Rp)).max()))
    return _worst("arc_factor_identity", 1e-12, worst)


def check_radius_deriv_finite_difference() -> CheckResult:
    worst = 0.0
    h = 1e-6
    for d in (0.1, 0.3, 0.5, 0.8):
        for t in np.linspace(0.01, math.pi - 0.01, 25):
            fd = (geometry.radius(d, t + h) - geometry.radius(d, t - h)) / (2 * h)
            worst = max(worst, abs(geometry.radius_deriv(d, t) - fd))
    return _worst("radius_deriv_finite_difference", 1e-8, worst)


def check_phi_weight_symmetry() -> CheckResult:
    ts = np.linspace(0.0, math.pi, 101)
    worst = 0.0
    for n in range(2, 9):
        worst = max(
            worst,
            float(np.abs(geometry.phi_weight(n, ts) - geometry.phi_weight(n, math.pi - ts)).max()),
        )
    return _worst("phi_weight_symmetry", 1e-14, worst)


def check_phi_weight_integral_zero() -> CheckResult:
    worst = max(
        abs(_quad(lambda t, n=n: geometry.phi_weight(n, t), 0.0, math.pi))
        for n in range(2, 9)
    )
    return _worst("phi_weight_integral_zero", 1e-10, worst)


def check_psi_weight_nonnegative() -> CheckResult:
    ts = np.linspace(0.0, math.pi, 501)
    worst = min(float(geometry.psi_weight(n, ts).min()) for n in range(2, 9))
    return _worst("psi_weight_nonnegative", 0.0, worst, larger_fails=False)


def check_radius_strictly_decreasing() -> CheckResult:
    ts = np.linspace(0.0, math.pi, 200)
    worst = -1.0
    for d in (0.1, 0.4, 0.7, 0.95):
        worst = max(worst, float(np.diff(geometry.radius(d, ts)).max()))
    return _worst("radius_strictly_decreasing", 0.0, worst, strict=True)


# ----------------------------------------------------------------------
# quadrature


def check_quadrature_monomial_exactness() -> CheckResult:
    rule = gauss_legendre_rule(16)
    worst = 0.0
    for j in range(32):
        exact = 0.0 if j % 2 else 2.0 / (j + 1)
        got = rule.apply(lambda x, j=j: x**j, -1.0, 1.0)
        worst = max(worst, abs(got - exact))
    return _worst("quadrature_monomial_exactness", 1e-13, worst)


def check_quadrature_rule_invariants() -> CheckResult:
    worst = 0.0
    for order in (8, 16):
        rule = gauss_legendre_rule(order)
        worst = max(worst, abs(sum(rule.weights) - 2.0))
        nodes = np.asarray(rule.nodes)
        worst = max(worst, float(np.abs(nodes + nodes[::-1]).max()))
    return _worst("quadrature_rule_invariants", 1e-13, worst)


def check_quadrature_interval_additivity() -> CheckResult:
    f = lambda t: np.exp(np.cos(3.0 * t))
    whole = _quad(f, 0.0, 2.0)
    split = _quad(f, 0.0, 0.7) + _quad(f, 0.7, 2.0)
    return _worst("quadrature_interval_additivity", 1e-11, abs(whole - split))


def check_quadrature_determinism() -> CheckResult:
    f = lambda t: np.log(1.0 + 0.81 + 1.8 * np.cos(t))
    a = integrate(f, 0.0, 2.0 * math.pi)
    b = integrate(f, 0.0, 2.0 * math.pi)
    same = a.value == b.value and a.error_estimate == b.error_estimate
    return _worst("quadrature_determinism", 0.0, 0.0 if same else 1.0)


# ----------------------------------------------------------------------
# concentric spectrum


def check_closed_form_vs_quadratic_root() -> CheckResult:
    worst = 0.0
    for n, a in NA_GRID:
        s1 = shell_spectrum.sigma1_closed_form(n, a)
        lower, _ = shell_spectrum.delta_pair(n, a, 1)
        worst = max(worst, abs(s1 - lower) / s1)
    return _worst("closed_form_vs_quadratic_root", 1e-12, worst)


def check_lower_branch_strictly_increasing() -> CheckResult:
    worst = -1.0
    for n, a in NA_GRID:
        prev = 0.0
        for k in range(1, 51):
            cur = shell_spectrum.delta_pair(n, a, k)[0]
            worst = max(worst, prev - cur)
            prev = cur
    return _worst("lower_branch_strictly_increasing", 0.0, worst, strict=True)


def check_sigma1_below_delta0() -> CheckResult:
    worst = -1.0
    for n, a in NA_GRID:
        worst = max(worst, shell_spectrum.sigma1_closed_form(n, a) - shell_spectrum.delta0(n, a))
    return _worst("sigma1_below_delta0", 0.0, worst, strict=True)


def check_discriminant_dominates_square() -> CheckResult:
    worst = -1.0
    for n, a in NA_GRID:
        for k in range(1, 21):
            q = shell_spectrum.quadratic_coeffs(n, a, k)
            worst = max(worst, ((k + n - 2) - k * a) ** 2 - q.discriminant)
    return _worst("discriminant_dominates_square", 1e-9, worst)


def check_vieta_identities() -> CheckResult:
    worst = 0.0
    for n, a in NA_GRID:
        for k in (1, 2, 5, 20):
            q = shell_spectrum.quadratic_coeffs(n, a, k)
            lo, hi = shell_spectrum.delta_pair(n, a, k)
            worst = max(worst, abs(lo + hi + q.B / q.A) / abs(q.B / q.A))
            worst = max(worst, abs(lo * hi - q.C / q.A) / abs(q.C / q.A))
    return _worst("vieta_identities", 1e-11, worst)


def _radial_deriv(n: int, a: float, k: int, branch: str, r: float) -> float:
    if branch == "zero":
        return 0.0
    if branch == "radial0":
        d0 = shell_spectrum.delta0(n, a)
        if n == 2:
            return d0 / r
        return d0 * (2 - n) * r ** (1 - n)
    c = shell_spectrum.radial_coefficient(n, a, k, branch)
    return k * r ** (k - 1) - (k + n - 2) * c * r ** (-(k + n - 1))


def _branch_value(n: int, a: float, k: int, branch: str) -> float:
    if branch == "zero":
        return 0.0
    if branch == "radial0":
        return shell_spectrum.delta0(n, a)
    lower, upper = shell_spectrum.delta_pair(n, a, k)
    return lower if branch == "lower" else upper


def check_eigenfunction_bc_residual() -> CheckResult:
    worst = 0.0
    for n, a in [(2, 0.1), (2, 0.5), (3, 0.5), (4, 0.9), (6, 0.3)]:
        cases = [(0, "radial0"), (0, "zero")] + [
            (k, b) for k in range(1, 21) for b in ("lower", "upper")
        ]
        for k, branch in cases:
            delta = _branch_value(n, a, k, branch)
            for r, sign in ((1.0, 1.0), (a, -1.0)):
                val = shell_spectrum.eigenfunction_radial(n, a, k, branch, r)
                der = _radial_deriv(n, a, k, branch, r)
                res = abs(der - sign * delta * val) / (abs(der) + abs(delta * val) + 1.0)
                worst = max(worst, res)
    return _worst("eigenfunction_bc_residual", 1e-10, worst)


def check_expansion_slope_normalized() -> CheckResult:
    worst = 0.0
    for n, eps, rel_tol in [(3, 1e-2, 0.05), (3, 1e-3, 0.005), (4, 1e-2, 0.05), (4, 1e-3, 0.005)]:
        f0 = shell_spectrum.scale_invariant(n, 0.0)
        feps = shell_spectrum.scale_invariant(n, eps)
        slope = (feps - f0) / (f0 * eps ** (n - 1))
        target = 1.0 / (n - 1)
        worst = max(worst, abs(slope - target) / target / rel_tol)
    return _worst("expansion_slope_normalized", 1.0, worst)


def check_optimal_eps_interior() -> CheckResult:
    worst = 0.0
    for n in (2, 3, 4):
        eps_star, value = shell_spectrum.optimal_eps(n)
        if not (0.0 < eps_star < 1.0):
            return _worst("optimal_eps_interior", 1e-4, math.inf)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        # optimal_eps validated n; the scan takes the unchecked core, on the whole grid at once.
        vals = shell_spectrum._scale_invariant(n, grid)
        eps_grid = float(grid[int(np.argmax(vals))])
        if not (value > shell_spectrum.scale_invariant(n, 0.0) and value > vals[-1]):
            return _worst("optimal_eps_interior", 1e-4, math.inf)
        worst = max(worst, abs(eps_star - eps_grid))
    return _worst("optimal_eps_interior", 1e-4, worst)


# ----------------------------------------------------------------------
# variational integrals and bounds


RAYLEIGH_GRID = [(n, a) for n in (2, 3, 4) for a in (0.3, 0.5, 0.7)]


def _d_grid(a: float, count: int = 10):
    return np.linspace(0.0, 0.95 * (1.0 - a), count)


def _w2_faulty(cfg: ShellConfig) -> float:
    # Deliberately broken angular weight (second term sign flipped).
    n, a, d = cfg.n, cfg.a, cfg.d
    return _quad(
        lambda t: (-n * np.sin(t) ** n - (n - 1) * np.sin(t) ** (n - 2))
        * np.log(geometry.radius(d, t) / a),
        0.0,
        math.pi,
    )


def _vanishes(name: str, integral) -> CheckResult:
    worst = 0.0
    for n, a in RAYLEIGH_GRID:
        for d in _d_grid(a):
            worst = max(worst, abs(integral(ShellConfig(n, a, float(d)))))
    return _worst(name, 1e-10, worst)


def _translation_invariant(name: str, integral) -> CheckResult:
    worst = 0.0
    for n, a in RAYLEIGH_GRID:
        base = integral(ShellConfig(n, a, 0.0))
        for d in _d_grid(a):
            worst = max(worst, abs(integral(ShellConfig(n, a, float(d))) - base))
    return _worst(name, 1e-10, worst)


def _strictly_increasing(name: str, integral) -> CheckResult:
    worst = math.inf
    for n, a in RAYLEIGH_GRID:
        ds = _d_grid(a)
        inc = np.diff([integral(ShellConfig(n, a, float(d))) for d in ds])
        if inc.min() <= 0:
            return _worst(name, 1e-8, -1.0, larger_fails=False)
        late = inc[ds[1:] > 0.1 * (1.0 - a)]
        worst = min(worst, float(late.min()))
    return _worst(name, 1e-8, worst, larger_fails=False)


def check_w2_vanishes(inject_fault: str | None = None) -> CheckResult:
    return _vanishes("w2_vanishes", _w2_faulty if inject_fault == "w2-sign" else rayleigh.w2)


def check_v2_vanishes() -> CheckResult:
    return _vanishes("v2_vanishes", rayleigh.v2)


def check_w1_translation_invariant() -> CheckResult:
    return _translation_invariant("w1_translation_invariant", rayleigh.w1)


def check_v1_translation_invariant() -> CheckResult:
    return _translation_invariant("v1_translation_invariant", rayleigh.v1)


def check_w3_strictly_increasing() -> CheckResult:
    return _strictly_increasing("w3_strictly_increasing", rayleigh.w3)


def check_v3_strictly_increasing() -> CheckResult:
    return _strictly_increasing("v3_strictly_increasing", rayleigh.v3)


def check_comparator_sandwich() -> CheckResult:
    worst = 0.0
    for n, a in RAYLEIGH_GRID:
        g_prev = h_prev = -math.inf
        for d in _d_grid(a, 6):
            cfg = ShellConfig(n, a, float(d))
            g, h = rayleigh.g_comparator(cfg), rayleigh.h_comparator(cfg)
            worst = max(worst, g - rayleigh.w3(cfg), h - rayleigh.v3(cfg))
            worst = max(worst, g_prev - g, h_prev - h)
            g_prev, h_prev = g, h
        cfg0 = ShellConfig(n, a, 0.0)
        worst = max(worst, abs(rayleigh.g_comparator(cfg0) - rayleigh.w3(cfg0)))
        worst = max(worst, abs(rayleigh.h_comparator(cfg0) - rayleigh.v3(cfg0)))
    return _worst("comparator_sandwich", 1e-9, worst)


def energy_direct_2d(cfg: ShellConfig) -> float:
    """Gradient energy of the coordinate test function by iterated quadrature.

    Independent of the 1D assembly: the squared gradient is integrated in r
    inside an adaptive polar quadrature, with every angular constant itself
    computed by quadrature.  Each call of the polar integrand integrates the
    radial integrals of all its abscissae in one integrate_batch call, so the
    radial integrand is called once per level of the radial bisection, not
    once per level and abscissa.  Each abscissa's sine, cosine and
    sin^(n-2) are taken in scalar arithmetic, which numpy's array functions
    need not match to the last bit, so each radial value has the bits of one
    integrate call at that abscissa.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    mu = shell_spectrum.mu_sigma(n, a)

    if n == 2:
        ca, cb = 2.0, 0.0
    elif n == 3:
        ca = _quad(lambda t: np.cos(t) ** 2, 0.0, 2.0 * math.pi)
        cb = _quad(lambda t: np.sin(t) ** 2, 0.0, 2.0 * math.pi)
    else:
        rest = _quad(lambda t: np.ones_like(t), 0.0, 2.0 * math.pi)
        for j in range(3, n - 1):
            rest *= _quad(lambda t, p=n - 1 - j: np.sin(t) ** p, 0.0, math.pi)
        ca = rest * _quad(lambda t: np.cos(t) ** 2 * np.sin(t) ** (n - 3), 0.0, math.pi)
        cb = rest * _quad(lambda t: np.sin(t) ** (n - 1), 0.0, math.pi)

    def outer(thetas):
        angles = thetas.tolist()
        sines = [math.sin(th) for th in angles]
        s, c = np.array(sines), np.array([math.cos(th) for th in angles])
        weight = np.array([si ** (n - 2) for si in sines])

        def radial(r, i):
            A = 1.0 - (n - 1) * mu / r**n
            B = 1.0 + mu / r**n
            si, ci = s[i], c[i]
            return (
                r ** (n - 1) * weight[i] * (ca * (si * si * A * A + ci * ci * B * B) + cb * B * B)
            )

        bounds = [(a, R) for R in geometry.radius(d, thetas).tolist()]
        return np.array([res.value for res in integrate_batch(radial, bounds, tol=1e-13)])

    return integrate(outer, 0.0, math.pi).value


ENERGY_TRIPLES = [
    (n, a, d) for n in (2, 3) for a in (0.3, 0.5) for d in (0.0, 0.2, None)
]


def check_energy_decomposition_2d() -> CheckResult:
    worst = 0.0
    for n, a, d in ENERGY_TRIPLES:
        dd = 0.4 * (1.0 - a) if d is None else d
        cfg = ShellConfig(n, a, dd)
        assembled = rayleigh.steklov_bound(cfg).energy
        direct = energy_direct_2d(cfg)
        worst = max(worst, abs(assembled - direct))
    return _worst("energy_decomposition_2d", 1e-8, worst)


BOUND_ANCHOR_PAIRS = [(n, a) for n in (2, 3, 4, 5, 6) for a in (0.25, 0.5, 0.75)]
# The mixed bound's anchor also covers thin shells, where an expanded
# boundary-mass integrand would cancel to a few digits.
DS_BOUND_ANCHOR_PAIRS = BOUND_ANCHOR_PAIRS + [
    (n, a) for n in (2, 3, 4, 5, 6) for a in (0.9, 0.99)
]


def _bound_anchor(name: str, problem: str, tol: float, pairs) -> CheckResult:
    worst = 0.0
    for n, a in pairs:
        bound = PROBLEMS[problem].bound(ShellConfig(n, a, 0.0))
        worst = max(worst, abs(bound - PROBLEMS[problem].closed_form(n, a)))
    return _worst(name, tol, worst)


def _bound_strictly_decreasing(name: str, problem: str, pairs) -> CheckResult:
    worst = -1.0
    for n, a in pairs:
        vals = [PROBLEMS[problem].bound(ShellConfig(n, a, float(d))) for d in _d_grid(a, 21)]
        worst = max(worst, float(np.diff(vals).max()))
    return _worst(name, 0.0, worst, strict=True)


def check_bound_anchor_concentric() -> CheckResult:
    return _bound_anchor("bound_anchor_concentric", "steklov", 1e-9, BOUND_ANCHOR_PAIRS)


def check_bound_strictly_decreasing() -> CheckResult:
    return _bound_strictly_decreasing(
        "bound_strictly_decreasing", "steklov", [(2, 0.5), (3, 0.3), (4, 0.7)]
    )


def check_ds_bound_anchor_concentric() -> CheckResult:
    return _bound_anchor(
        "ds_bound_anchor_concentric", "dirichlet-steklov", 1e-10, DS_BOUND_ANCHOR_PAIRS
    )


def check_ds_bound_strictly_decreasing() -> CheckResult:
    pairs = [(2, 0.5), (3, 0.5), (4, 0.3), (5, 0.5)]
    return _bound_strictly_decreasing("ds_bound_strictly_decreasing", "dirichlet-steklov", pairs)


def check_test_function_orthogonality() -> CheckResult:
    worst = 0.0
    cases = [(2, 0.5, 0.3, 1), (3, 0.4, 0.25, 1), (3, 0.4, 0.25, 2), (4, 0.3, 0.3, 3)]
    for n, a, d, i in cases:
        worst = max(worst, abs(rayleigh.test_function_orthogonality(ShellConfig(n, a, d), i)))
    return _worst("test_function_orthogonality", 1e-10, worst)


def check_offset_axis_integral_nonzero() -> CheckResult:
    val = abs(rayleigh.test_function_orthogonality(ShellConfig(3, 0.4, 0.4), 3))
    return _worst("offset_axis_integral_nonzero", 1e-6, val, larger_fails=False)


def check_planar_log_integral_zero() -> CheckResult:
    worst = 0.0
    for d in np.linspace(0.1, 0.9, 9):
        val = _quad(lambda t, d=d: np.log1p(d * d + 2.0 * d * np.cos(t)), 0.0, 2.0 * math.pi)
        worst = max(worst, abs(val))
    return _worst("planar_log_integral_zero", 1e-10, worst)


# ----------------------------------------------------------------------
# planar solver

# Solver results shared by the checks of one run_checks call, keyed by
# (problem, a, d); None outside run_checks.
_solves: contextvars.ContextVar[dict | None] = contextvars.ContextVar("solves", default=None)


def _solve(problem: str, cfg: ShellConfig) -> solver.EigResult:
    """The gated solve of cfg, shared by the checks of one run_checks call.

    The problem table looks the solve up on ``solver`` at call time, so a
    patched or traced solver sees every real solve.  Outside run_checks
    every call solves.
    """
    solve = PROBLEMS[problem].solve
    shared = _solves.get()
    if shared is None:
        return solve(cfg)
    key = (problem, cfg.a, cfg.d)
    if key not in shared:
        shared[key] = solve(cfg)
    return shared[key]


def _solver_concentric(name: str, problem: str) -> CheckResult:
    worst = 0.0
    for a in SOLVER_RADII:
        res = _solve(problem, ShellConfig(2, a, 0.0))
        worst = max(worst, abs(res.principal - PROBLEMS[problem].closed_form(2, a)))
    return _worst(name, 1e-8, worst)


def check_solver_concentric_oracle() -> CheckResult:
    return _solver_concentric("solver_concentric_oracle", "steklov")


def check_solver_spectrum_below_delta0() -> CheckResult:
    worst = 0.0
    for a in SOLVER_RADII:
        res = _solve("steklov", ShellConfig(2, a, 0.0))
        d0 = shell_spectrum.delta0(2, a)
        exact = [e for e in shell_spectrum.spectrum(2, a, 24) if e.value < d0 - 1e-9]
        got = [v for v in res.eigenvalues if v < d0 - 1e-9]
        expanded: list[float] = []
        for e in exact:
            expanded.extend([e.value] * e.multiplicity)
        expanded.sort()
        if len(got) != len(expanded):
            return _worst("solver_spectrum_below_delta0", 1e-7, math.inf)
        worst = max(worst, float(np.abs(np.asarray(got) - np.asarray(expanded)).max()))
    return _worst("solver_spectrum_below_delta0", 1e-7, worst)


def check_solver_first_mode_double() -> CheckResult:
    worst = 0.0
    for a in SOLVER_RADII:
        res = _solve("steklov", ShellConfig(2, a, 0.0))
        vals = res.eigenvalues
        first = res.principal
        close = [v for v in vals if abs(v - first) <= 1e-8 * max(1.0, abs(first))]
        worst = max(worst, abs(len(close) - 2))
    return _worst("solver_first_mode_double", 0.0, worst)


def check_solver_zero_mode() -> CheckResult:
    worst = 0.0
    for a in SOLVER_RADII:
        res = _solve("steklov", ShellConfig(2, a, 0.0))
        worst = max(worst, abs(float(res.eigenvalues[0])))
    return _worst("solver_zero_mode", 1e-9, worst)


def check_assembly_symmetry_defect() -> CheckResult:
    band = solver.assemble_steklov(ShellConfig(2, 0.5, 0.3), N=20)
    h = len(band) // 2  # band[h + i - j, j] = A[i, j]: compare A[i, i + j] with A[i + j, i]
    defect = max(float(np.abs(band[h - j, j:] - band[h + j, :-j]).max()) for j in range(1, h + 1))
    return _worst("assembly_symmetry_defect", 1e-9, defect)


def _solver_strictly_decreasing(name: str, problem: str) -> CheckResult:
    worst = -1.0
    for a in SOLVER_RADII:
        cfgs = [ShellConfig(2, a, float(d)) for d in _d_grid(a, 20)]
        vals = [_solve(problem, cfg).principal for cfg in cfgs]
        worst = max(worst, float(np.diff(vals).max()))
    return _worst(name, 0.0, worst, strict=True)


def _solver_below_bound(name: str, problem: str, count: int) -> CheckResult:
    worst = -math.inf
    for a in SOLVER_RADII:
        for d in _d_grid(a, count):
            cfg = ShellConfig(2, a, float(d))
            res = _solve(problem, cfg)
            worst = max(worst, res.principal - PROBLEMS[problem].bound(cfg))
    return _worst(name, 1e-8, worst)


def check_solver_sigma_strictly_decreasing() -> CheckResult:
    return _solver_strictly_decreasing("solver_sigma_strictly_decreasing", "steklov")


def check_solver_below_rayleigh_bound() -> CheckResult:
    return _solver_below_bound("solver_below_rayleigh_bound", "steklov", 20)


def check_solver_tau_concentric() -> CheckResult:
    return _solver_concentric("solver_tau_concentric", "dirichlet-steklov")


def check_solver_tau_strictly_decreasing() -> CheckResult:
    return _solver_strictly_decreasing("solver_tau_strictly_decreasing", "dirichlet-steklov")


def check_tau_below_ds_bound() -> CheckResult:
    return _solver_below_bound("tau_below_ds_bound", "dirichlet-steklov", 10)


def check_solver_residual_moderate_offset() -> CheckResult:
    res = _solve("steklov", ShellConfig(2, 0.5, 0.3))
    return _worst("solver_residual_moderate_offset", 1e-6, res.residual)


# full level only ------------------------------------------------------


def check_solver_spectral_convergence() -> CheckResult:
    worst = 0.0
    for d in (0.1, 0.2):
        cfg = ShellConfig(2, 0.5, d)
        s8, s16, s32 = (solver._solve_at_order(cfg, N, "steklov").principal for N in (8, 16, 32))
        e8, e16 = abs(s8 - s16), abs(s16 - s32)
        if e8 < 1e-12:
            continue  # already converged to rounding at the coarse order
        worst = max(worst, e16 * 10.0 / e8)
    return _worst("solver_spectral_convergence", 1.0, worst)


def check_solver_monotone_in_order() -> CheckResult:
    """At a fixed order every value bounds the true one from above, so none rises with the order.

    The measured value is the largest relative rise of the principal value
    from one order to the next over N = 16, 32, 64, 128, for both problems.
    """
    worst = -math.inf
    for a, d in ((0.15, 0.8075), (0.2, 0.76), (0.5, 0.3)):
        for kind in ("steklov", "dirichlet"):
            vals = [solver._solve_at_order(ShellConfig(2, a, d), N, kind).principal
                    for N in (16, 32, 64, 128)]
            worst = max(worst, float(np.max(np.diff(vals) / vals[1:])))
    return _worst("solver_monotone_in_order", 1e-12, worst)


def _first_odd(res: solver.EigResult) -> float:
    """The first eigenvalue above ZERO_MODE_TOL whose mode is in the odd family (inf if none)."""
    return next(
        (float(v) for i, v in enumerate(res.eigenvalues)
         if v > solver.ZERO_MODE_TOL and res.odd[i]),
        math.inf,
    )


def check_bound_dominates_odd_family() -> CheckResult:
    """steklov_bound > the first odd-family eigenvalue for d > 0.

    The bound is the Rayleigh quotient of a test function odd under the
    mirror y -> -y, so it bounds the odd family's first eigenvalue, which is
    sharper than solver_below_rayleigh_bound whenever sigma_1 is even.  At
    d = 0 the two are the concentric sigma_1 and may differ only by the
    solver tolerance 1e-8; a larger difference there fails the check.
    """
    worst = -math.inf
    for a in SOLVER_RADII:
        for d in _d_grid(a, 20):
            cfg = ShellConfig(2, a, float(d))
            gap = _first_odd(_solve("steklov", cfg)) - PROBLEMS["steklov"].bound(cfg)
            if d > 0.0:
                worst = max(worst, gap)
            elif abs(gap) > 1e-8:
                worst = math.inf
    return _worst("bound_dominates_odd_family", 0.0, worst, strict=True)


def check_surface_bound_matches_breakdown() -> CheckResult:
    """The sweep's surface-form bounds against the paper's adaptive W/V breakdown.

    Both problems on RAYLEIGH_GRID at six offsets each; the measured value is
    the largest relative difference.  Each adaptive integral meets 1e-12, so
    the two routes may differ by a few parts in 1e12.
    """
    worst = 0.0
    for n, a in RAYLEIGH_GRID:
        for d in _d_grid(a, 6):
            cfg = ShellConfig(n, a, float(d))
            for problem in PROBLEMS.values():
                breakdown = problem.breakdown(cfg)[-1][1]
                worst = max(worst, abs(problem.bound(cfg) - breakdown) / abs(breakdown))
    return _worst("surface_bound_matches_breakdown", 1e-11, worst)


def check_solver_residual_improves() -> CheckResult:
    cfg = ShellConfig(2, 0.5, 0.3)
    r8, r24 = (solver._solve_at_order(cfg, N, "steklov").residual for N in (8, 24))
    return _worst("solver_residual_improves", 0.0, r24 - r8, strict=True)


# ----------------------------------------------------------------------

FAST_CHECKS = [
    check_wallis_recursion_consistency,
    check_wallis_vs_quadrature,
    check_wallis_table_monotone_positive,
    check_harmonic_dim_planar_pairs,
    check_catalan_series_closed_form,
    check_wallis_even_series_closed_form,
    check_log_series_closed_form,
    check_law_of_cosines_residual,
    check_arc_factor_identity,
    check_radius_deriv_finite_difference,
    check_phi_weight_symmetry,
    check_phi_weight_integral_zero,
    check_psi_weight_nonnegative,
    check_radius_strictly_decreasing,
    check_quadrature_monomial_exactness,
    check_quadrature_rule_invariants,
    check_quadrature_interval_additivity,
    check_quadrature_determinism,
    check_closed_form_vs_quadratic_root,
    check_lower_branch_strictly_increasing,
    check_sigma1_below_delta0,
    check_discriminant_dominates_square,
    check_vieta_identities,
    check_eigenfunction_bc_residual,
    check_expansion_slope_normalized,
    check_optimal_eps_interior,
    check_w2_vanishes,
    check_v2_vanishes,
    check_w1_translation_invariant,
    check_v1_translation_invariant,
    check_w3_strictly_increasing,
    check_v3_strictly_increasing,
    check_comparator_sandwich,
    check_energy_decomposition_2d,
    check_bound_anchor_concentric,
    check_bound_strictly_decreasing,
    check_ds_bound_anchor_concentric,
    check_ds_bound_strictly_decreasing,
    check_test_function_orthogonality,
    check_offset_axis_integral_nonzero,
    check_planar_log_integral_zero,
    check_solver_concentric_oracle,
    check_solver_spectrum_below_delta0,
    check_solver_first_mode_double,
    check_solver_zero_mode,
    check_assembly_symmetry_defect,
    check_solver_sigma_strictly_decreasing,
    check_solver_below_rayleigh_bound,
    check_solver_tau_concentric,
    check_solver_tau_strictly_decreasing,
    check_tau_below_ds_bound,
    check_solver_residual_moderate_offset,
]

FULL_CHECKS = FAST_CHECKS + [
    check_solver_spectral_convergence,
    check_solver_monotone_in_order,
    check_solver_residual_improves,
    check_bound_dominates_odd_family,
    check_surface_bound_matches_breakdown,
]


def check_name(check) -> str:
    """The report name of a registry check: its function name without ``check_``."""
    return check.__name__.removeprefix("check_")


def run_checks(
    level: str = "fast",
    inject_fault: str | None = None,
    name_filter: str | None = None,
) -> list[CheckResult]:
    """Run the named invariant suite; returns one result per check.

    name_filter keeps only checks whose report name contains the given
    substring (development aid; the default runs everything at the chosen
    level).  A filter that matches no check is an error.  The checks share
    their gated solves for the duration of the call (see _solve).
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; available: {FAULTS}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    if name_filter is not None:
        checks = [c for c in checks if name_filter in check_name(c)]
        if not checks:
            raise ValueError(f"no {level} check name contains {name_filter!r}")
    results = []
    token = _solves.set({})
    try:
        for check in checks:
            if check is check_w2_vanishes:
                results.append(check(inject_fault))
            else:
                results.append(check())
    finally:
        _solves.reset(token)
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"checks={len(results)} failures={n_fail}")
    return "\n".join(lines) + "\n"
