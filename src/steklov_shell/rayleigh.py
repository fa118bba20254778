"""Eccentric-shell integrals and Rayleigh upper bounds, to the quadrature tolerance.

The fixed test function is the first concentric eigenfunction
f(x) = x_i (1 + mu/|x|^n) with i the last in-plane axis, which remains
admissible for every offset d by antipodal symmetry.  Its energy over the
eccentric shell decomposes into three 1D integrals (w1, w2, w3) and its outer
boundary mass into three more (v1, v2, v3); translation invariance kills the
d-dependence of w1/v1, symmetry kills w2/v2, and the monotone growth of
w3/v3 drives the bound strictly down as the hole moves off center.

The analogous machinery for the mixed problem (zero trace on the inner
sphere, spectral condition outside) uses the radial profile log(r/a) in the
plane and a^(2-n) - r^(2-n) otherwise.

``surface_bound`` takes the same two quotients in surface form, on one
cached Gauss-Jacobi rule with a closed-form error radius; the sweep's bound
column and verify's bound checks read it through ``problems.PROBLEMS``, while
the ``bound`` command prints the adaptive breakdown above.

The integrands call geometry's unchecked formulas (``_radius``,
``_arc_factor``, ``_phi_weight``, ``_psi_weight``): every quadrature node lies
in [0, pi] and ShellConfig bounds d, so the range checks stay at the public
geometry functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .geometry import ShellConfig, _arc_factor, _phi_weight, _psi_weight, _radius
from .quadrature import QUAD_TOL, integrate
from .special import _wallis_run, wallis
from .shell_spectrum import mu_sigma

EPS = float(np.finfo(float).eps)
# Gauss-Jacobi node counts surface_bound tries, in order, before the adaptive fallback.
NODE_LADDER = tuple(16 * 2**j for j in range(8))  # 16 .. 2048


@dataclass(frozen=True)
class RayleighBreakdown:
    """Every intermediate integral behind one Steklov upper bound.

    energy and boundary_mass are the true integrals (angular constants
    included); bound = energy / boundary_mass.  inner_mass is the
    d-independent contribution of the inner sphere to boundary_mass.
    """

    mu: float
    W1: float
    W2: float
    W3: float
    V1: float
    V2: float
    V3: float
    In: float
    inner_mass: float
    energy: float
    boundary_mass: float
    bound: float


def _quad(f, lo: float, hi: float, tol: float) -> float:
    return integrate(f, lo, hi, tol).value


def quotient(energy: float, mass: float) -> float:
    """energy / mass, or FloatingPointError where the mass is 0.

    The angular constants underflow to 0 from n of a few hundred, and with
    them both integrals wherever nothing overflows first.
    """
    if mass == 0.0:
        raise FloatingPointError("the test function's boundary mass underflows to 0")
    return energy / mass


def steklov_angular_constant(n: int) -> float:
    """Shared angular factor (2/(n-1)) * I_0 * ... * I_{n-3} of the assemblies."""
    return math.prod(_wallis_run(n - 2), start=2.0 / (n - 1))


def ds_angular_constant(n: int) -> float:
    """Angular factor 2 * I_0 * ... * I_{n-3} for the radial test function."""
    return math.prod(_wallis_run(n - 2), start=2.0)


def w1(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of sin^(n-2) * (R^n - a^n); translation-invariant in d."""
    n, a, d = cfg.n, cfg.a, cfg.d
    return _quad(lambda t: np.sin(t) ** (n - 2) * (_radius(d, t) ** n - a**n), 0.0, math.pi, tol)


def w2(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of phi_weight * log(R/a); vanishes identically."""
    n, a, d = cfg.n, cfg.a, cfg.d
    return _quad(lambda t: _phi_weight(n, t) * np.log(_radius(d, t) / a), 0.0, math.pi, tol)


def w3(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of psi_weight * (R^-n - a^-n); nondecreasing in d."""
    n, a, d = cfg.n, cfg.a, cfg.d
    return _quad(
        lambda t: _psi_weight(n, t) * (_radius(d, t) ** (-n) - a ** (-n)), 0.0, math.pi, tol
    )


def v1(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of sin^n * R^n * arc factor; translation-invariant in d."""
    n, d = cfg.n, cfg.d
    return _quad(
        lambda t: np.sin(t) ** n * _radius(d, t) ** n * _arc_factor(d, t), 0.0, math.pi, tol
    )


def v2(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of sin^n * d cos / sqrt(1 - d^2 sin^2); vanishes identically."""
    n, d = cfg.n, cfg.d
    return _quad(
        lambda t: np.sin(t) ** n * d * np.cos(t) / np.sqrt(1.0 - d * d * np.sin(t) ** 2),
        0.0,
        math.pi,
        tol,
    )


def v3(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Integral of sin^n / (R^(n-1) sqrt(1 - d^2 sin^2)); nondecreasing in d."""
    n, d = cfg.n, cfg.d
    return _quad(
        lambda t: np.sin(t) ** n
        / (_radius(d, t) ** (n - 1) * np.sqrt(1.0 - d * d * np.sin(t) ** 2)),
        0.0,
        math.pi,
        tol,
    )


def g_comparator(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Monotone minorant of w3: psi_weight against (1 + d cos)^-n - a^-n.

    Coincides with w3 at d = 0 and increases strictly with d.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    return _quad(
        lambda t: _psi_weight(n, t) * ((1.0 + d * np.cos(t)) ** (-n) - a ** (-n)),
        0.0,
        math.pi,
        tol,
    )


def h_comparator(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Monotone minorant of v3: sin^n against (1 + d cos)^-(n-1).

    Coincides with v3 at d = 0 and increases strictly with d.
    """
    n, d = cfg.n, cfg.d
    return _quad(
        lambda t: np.sin(t) ** n * (1.0 + d * np.cos(t)) ** (-(n - 1)), 0.0, math.pi, tol
    )


def inner_boundary_mass(cfg: ShellConfig) -> float:
    """Mass of the test function on the inner sphere: exact and d-independent.

    (a + mu a^(1-n))^2 * a^(n-1) * I_n times the shared angular constant.
    """
    n, a = cfg.n, cfg.a
    mu = mu_sigma(n, a)
    return (
        (a + mu * a ** (1 - n)) ** 2
        * a ** (n - 1)
        * wallis(n)
        * steklov_angular_constant(n)
    )


def steklov_bound(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> RayleighBreakdown:
    """Rayleigh upper bound, to the quadrature tolerance, on the first nonzero Steklov eigenvalue.

    bound = energy / boundary_mass for the fixed concentric eigenfunction;
    equals the concentric eigenvalue at d = 0 and decreases strictly in d.
    """
    n, a = cfg.n, cfg.a
    mu = mu_sigma(n, a)
    const = steklov_angular_constant(n)
    In = wallis(n)

    W1, W2, W3 = w1(cfg, tol=tol), w2(cfg, tol=tol), w3(cfg, tol=tol)
    V1, V2, V3 = v1(cfg, tol=tol), v2(cfg, tol=tol), v3(cfg, tol=tol)

    energy = const * ((n - 1) / n * W1 + 2.0 * mu * W2 - mu * mu / n * W3)
    inner = inner_boundary_mass(cfg)
    boundary_mass = const * (V1 + 2.0 * mu * (In + V2) + mu * mu * V3) + inner
    return RayleighBreakdown(
        mu=mu,
        W1=W1,
        W2=W2,
        W3=W3,
        V1=V1,
        V2=V2,
        V3=V3,
        In=In,
        inner_mass=inner,
        energy=energy,
        boundary_mass=boundary_mass,
        bound=quotient(energy, boundary_mass),
    )


def ds_energy(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Energy of the radial mixed-problem test function over the eccentric shell.

    The gradient is radial, so the r-integral is analytic and only the polar
    quadrature remains.  Maximal at d = 0.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    if n == 2:
        return 2.0 * _quad(lambda t: np.log(_radius(d, t) / a), 0.0, math.pi, tol)
    const = (n - 2) * ds_angular_constant(n)
    return const * _quad(
        lambda t: np.sin(t) ** (n - 2) * (a ** (2 - n) - _radius(d, t) ** (2 - n)),
        0.0,
        math.pi,
        tol,
    )


def ds_boundary_mass(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Mass of the radial test function on the shifted outer sphere.

    Minimal at d = 0.  In the plane the outer circle is parameterized by its
    own angle t, where |point|^2 = 1 + d^2 + 2 d cos t and the cross term
    integrates to zero.  For n >= 3 the squared profile is integrated over
    the polar graph as one integrand: expanded into the v-integrals at
    superscript n - 2, its three terms nearly cancel when a is close to 1.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    if n == 2:
        log_a = math.log(a)
        return 2.0 * _quad(
            lambda t: (0.5 * np.log1p(d * d + 2.0 * d * np.cos(t)) - log_a) ** 2,
            0.0,
            math.pi,
            tol,
        )
    m = n - 2

    def mass(t):
        R = _radius(d, t)
        return np.sin(t) ** m * R**m * _arc_factor(d, t) * (a ** (-m) - R ** (-m)) ** 2

    return ds_angular_constant(n) * _quad(mass, 0.0, math.pi, tol)


def ds_bound(cfg: ShellConfig, *, tol: float = QUAD_TOL) -> float:
    """Upper bound on the first mixed (inner Dirichlet) eigenvalue.

    Equals 1/log(1/a) (n = 2) or (n-2)/(a^(2-n) - 1) (n >= 3) at d = 0 and
    decreases strictly in d.
    """
    return quotient(ds_energy(cfg, tol=tol), ds_boundary_mass(cfg, tol=tol))


@dataclass(frozen=True)
class SurfaceBound:
    """A Rayleigh bound in surface form, with its error radius.

    value is the bound and radius estimates its distance from the exact
    Rayleigh quotient: the a-priori truncation error of the rule plus a
    rounding allowance.  It is an estimate, not a bound, because it leaves
    out the rule's own weight errors: computed at rounded nodes, the weights
    err by up to 1e-13 relative at 64 to 256 nodes and 1e-11 at 512 to 2048,
    at the extreme nodes, where a bound's integrand peaks near contact
    (their summed error stays below 3e-15 of the total weight).  nodes is
    the Gauss-Jacobi node count; 0 marks the adaptive quotient taken past
    the node ladder, which states no radius (inf).
    """

    value: float
    radius: float
    nodes: int


def _weight_integral(alpha: float) -> float:
    """mu0, the integral of (1 - t^2)^alpha over [-1, 1]: B(1/2, alpha + 1)."""
    return math.sqrt(math.pi) * math.exp(math.lgamma(alpha + 1.0) - math.lgamma(alpha + 1.5))


@lru_cache(maxsize=None)
def _jacobi_rule(alpha: float, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """m-node Gauss-Jacobi nodes and weights for (1 - t^2)^alpha, computed once.

    The nodes are scipy's.  Its weights lose up to 1e-10 relative at 256
    nodes, which a peaked integrand turns into 1e-12 of a bound, so each
    weight is recomputed as 1 / sum_k phat_k(t)^2 over the orthonormal
    polynomials of the weight, by their three-term recurrence (Gautschi,
    Orthogonal Polynomials, Oxford 2004, sec. 1.4).  None where the rule is
    not finite (large alpha at many nodes).
    """
    with np.errstate(all="ignore"):
        nodes = roots_jacobi(m, alpha, alpha)[0]
        # Monic recurrence coefficients beta_k of the symmetric Jacobi weight.
        beta = [1.0 / (3.0 + 2.0 * alpha)] + [
            k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha) ** 2 - 1.0) for k in range(2, m)]
        prev, cur = np.zeros(m), np.full(m, 1.0 / math.sqrt(_weight_integral(alpha)))
        total = cur * cur
        for b_prev, b in zip([0.0] + beta[:-1], beta):
            prev, cur = cur, (nodes * cur - math.sqrt(b_prev) * prev) / math.sqrt(b)
            total += cur * cur
        weights = 1.0 / total
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        return None
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _steklov_terms(n: int, d: float, mu: float, t: np.ndarray):
    """Outer-sphere integrands of the Steklov quotient, and what their rounding scales with.

    With s = |x|^2 = 1 + d^2 + 2 d t and p = 1 + mu s^(-n/2), the energy
    integrand u du/dn / omega_n^2 is p^2 - flux, with
    flux = n mu s^(-n/2 - 1) (1 + d t) p, and the mass integrand is p^2.
    (1 + d t) / s is written (1 + (1 - d^2)/s) / 2.  Returns the two
    integrands, the energy's summed terms p^2 + flux, and each integrand's
    sensitivity to a node's relative rounding: s moves by 2 d |t| / s of it
    relatively, and p^2 and flux by at most n and n + 2 times that.
    """
    s = (1.0 + d * d) + (2.0 * d) * t
    q = mu * s ** (-0.5 * n)
    p = 1.0 + q
    flux = (0.5 * n) * q * (1.0 + (1.0 - d * d) / s) * p
    mass = p * p
    terms = mass + flux
    shift = (2.0 * d) * np.abs(t) / s
    return mass - flux, mass, terms, (n + 2.0) * shift * terms, n * shift * mass


def _mixed_terms(n: int, a: float, d: float, t: np.ndarray):
    """Outer-sphere integrands of the mixed quotient (profile over a^(2-n)), as _steklov_terms.

    v = 1 - (a^2/s)^k, k = (n-2)/2, or log(sqrt(s)/a) in the plane, and
    dv/dn = (n - 2) (a^2/s)^k (1 + d t) / s, or (1 + d t) / s.  Both
    integrands are positive, so the energy is its own magnitude.  A relative
    move e of s moves v by k (a^2/s)^k e (e/2 in the plane) and dv/dn by at
    most (k + 2) e (2 e) relatively.  exp(y) errs by |y| eps relatively, so
    (a^2/s)^k is a^(n-2) s^-k while a^(n-2) is a normal float (exp(x) of
    the whole exponent erred by 1.7e-14 at n = 20, a = 1e-12, d = 0); the
    exponent's size is added to the energy's sensitivity.
    """
    excess = d * (d + 2.0 * t)  # s - 1
    log_s = np.log1p(excess)
    slope = 0.5 + (0.5 - 0.5 * d * d) / (1.0 + excess)
    shift = (2.0 * d) * np.abs(t) / (1.0 + excess)
    if n == 2:
        v = 0.5 * log_s - math.log(a)
        energy_sens = shift * slope * (0.5 + 2.0 * v)
        mass_sens = v
    else:
        k = 0.5 * (n - 2)
        x = k * (2.0 * math.log(a) - log_s)
        v = -np.expm1(x)
        hole = a ** (n - 2)
        y, power = (-k * log_s, hole) if hole >= np.finfo(float).tiny else (x, 1.0)
        slope *= (n - 2) * power * np.exp(y)
        # k r + (k + 2) v <= k + 2, since r + v = 1
        energy_sens = (shift * (k + 2.0) + np.abs(y) * v) * slope
        mass_sens = (2.0 * k) * v
    energy = v * slope
    return energy, v * v, energy, energy_sens, shift * mass_sens


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)), without overflow."""
    top = max(x, y)
    return top if top == -math.inf else top + math.log1p(math.exp(min(x, y) - top))


def _truncation_radii(kind: str, n: int, a: float, d: float, mu: float, mu0: float,
                      m: int) -> tuple[float, float]:
    """A-priori errors of m-node rules for the energy and mass integrals.

    The integrands are analytic inside the Bernstein ellipse E_rho for every
    rho < 1/d, where s = (1 + d z)(1 + d/z), |z| = rho, so |s| lies between
    (1 - d rho)(1 - d/rho) and (1 + d rho)(1 + d/rho), and |1 + d t| is at
    most 1 + d (rho + 1/rho)/2.  With M the resulting closed-form bound on
    |F| there, an m-node rule with positive weights summing to mu0 errs by
    at most 4 mu0 M rho^(1 - 2m) / (rho - 1) (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, ch. 8 and 19).  Any such
    rho gives a bound; the one taken, 1 - d rho = k / (2m + k) with
    k = n/2 + 1, minimises rho^(-2m) (1 - d rho)^(-k), the growth of the
    flux terms near the singularity.  Computed in logarithms, so no bound
    overflows; d = 0 has constant integrands and no truncation error.
    """
    if d == 0.0:
        return 0.0, 0.0
    k = 0.5 * n + 1.0
    gap = min(k / (2.0 * m + k), 0.5 * (1.0 - d))  # 1 - d rho, kept below 1 - d so rho > 1
    rho = (1.0 - gap) / d
    d_over_rho = d / rho
    log_s_lo = math.log(gap) + math.log1p(-d_over_rho)
    log_c_hi = math.log1p(0.5 * (1.0 - gap + d_over_rho))
    if kind == "steklov":
        log_q = (math.log(mu) if mu > 0.0 else -math.inf) - 0.5 * n * log_s_lo
        log_p = _logaddexp(0.0, log_q)
        log_flux = math.log(n) + log_q - log_s_lo + log_c_hi + log_p
        log_f = (_logaddexp(2.0 * log_p, log_flux), 2.0 * log_p)
    else:
        log_slope = log_c_hi - log_s_lo
        if n == 2:
            log_s_hi = math.log(2.0 - gap) + math.log1p(d_over_rho)
            log_v = math.log(0.5 * (max(-log_s_lo, log_s_hi) + math.pi) - math.log(a))
        else:
            log_x = 0.5 * (n - 2) * (2.0 * math.log(a) - log_s_lo)
            log_v = _logaddexp(0.0, log_x)
            log_slope += math.log(n - 2) + log_x
        log_f = (log_v + log_slope, 2.0 * log_v)
    base = math.log(4.0 * mu0) + (1.0 - 2.0 * m) * math.log(rho) - math.log((1.0 - gap - d) / d)
    return math.exp(min(base + log_f[0], 709.0)), math.exp(min(base + log_f[1], 709.0))


def _quotient_radius(energy: float, mass: float, e_energy: float, e_mass: float) -> float:
    """Radius of energy/mass given radii of both, or inf where the mass may vanish."""
    if not mass > e_mass:
        return math.inf
    return (e_energy + abs(energy / mass) * e_mass) / (mass - e_mass)


def _passes(energy: float, mass: float, e_energy: float, e_mass: float, tol: float) -> bool:
    """Whether energy/mass has a radius of at most tol times its size (never for mass 0)."""
    radius = _quotient_radius(energy, mass, e_energy, e_mass)
    return mass > e_mass and radius <= tol * abs(energy / mass)


def surface_bound(cfg: ShellConfig, kind: str, *, tol: float = QUAD_TOL) -> SurfaceBound:
    """steklov_bound's (kind "steklov") or ds_bound's ("dirichlet") quotient, in surface form.

    Both test functions are harmonic, so the energy is the boundary integral
    of u du/dn.  Steklov: the inner sphere, concentric with the test
    function, contributes closed forms; mixed problem: v vanishes there.  On
    the outer sphere x = d e_1 + omega, and with t = omega_1 each integral is
    one integral over [-1, 1] against (1 - t^2)^((n-1)/2) (Steklov, times
    |S^(n-2)|/(n - 1)) or (1 - t^2)^((n-3)/2) (mixed, whose constants
    cancel), taken by Gauss-Jacobi rules up NODE_LADDER.  The first node
    count whose radius (see _truncation_radii, plus m eps times the summed
    magnitudes, carried through the quotient) is at most tol |value| is
    returned.  A count whose radius fails when predicted from the last
    evaluated count (its values and rounding sums, with this count's
    truncation radius) is skipped, and its rule never built.  Past 2048 nodes (within
    about 1% of contact, or a tol near eps) the value is the adaptive
    quotient of steklov_bound or ds_bound, with radius inf and nodes 0.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    if kind == "steklov":
        mu = mu_sigma(n, a)
        g = mu * a ** (-n)  # the radial factor's second term at the hole, mu a^-n
        const = steklov_angular_constant(n)
        inner = const * wallis(n) * a**n * (1.0 + g)  # |S^(n-1)|/n a^n (1 + g)
        inner_energy, inner_mass = -inner * (1.0 - (n - 1) * g), inner * a * (1.0 + g)
        alpha = 0.5 * (n - 1)
        terms = lambda t: _steklov_terms(n, d, mu, t)
    elif kind == "dirichlet":
        mu, const, inner_energy, inner_mass = 0.0, 1.0, 0.0, 0.0
        alpha = 0.5 * (n - 3)
        terms = lambda t: _mixed_terms(n, a, d, t)
    else:
        raise ValueError("kind must be 'steklov' or 'dirichlet'")
    mu0 = _weight_integral(alpha)
    estimate = None
    for m in NODE_LADDER:
        t_energy, t_mass = (const * r for r in _truncation_radii(kind, n, a, d, mu, mu0, m))
        if estimate is not None:
            energy, mass, per_node, fixed = estimate
            if not _passes(energy, mass, t_energy + m * per_node[0] + fixed[0],
                           t_mass + m * per_node[1] + fixed[1], tol):
                continue
        rule = _jacobi_rule(alpha, m)
        if rule is None:
            break
        nodes, weights = rule
        f_energy, f_mass, size_energy, sens_energy, sens_mass = terms(nodes)
        outer_energy = const * float(weights @ f_energy)
        outer_mass = const * float(weights @ f_mass)
        energy, mass = outer_energy + inner_energy, outer_mass + inner_mass
        # Rounding: eps of the summed magnitudes per node, four node roundings
        # through each integrand's sensitivity, and four of the inner and outer
        # parts.  Only the first grows with m, so a later count's rounding is
        # predicted from this one's.
        per_node = (EPS * const * float(weights @ size_energy), EPS * const * float(weights @ f_mass))
        fixed = (EPS * (const * float(weights @ (4.0 * sens_energy))
                        + 4.0 * (abs(outer_energy) + abs(inner_energy))),
                 EPS * (const * float(weights @ (4.0 * sens_mass)) + 4.0 * (outer_mass + inner_mass)))
        e_energy = t_energy + m * per_node[0] + fixed[0]
        e_mass = t_mass + m * per_node[1] + fixed[1]
        if _passes(energy, mass, e_energy, e_mass, tol):
            return SurfaceBound(value=energy / mass, nodes=m,
                                radius=_quotient_radius(energy, mass, e_energy, e_mass))
        estimate = (energy, mass, per_node, fixed)
    value = steklov_bound(cfg, tol=tol).bound if kind == "steklov" else ds_bound(cfg, tol=tol)
    return SurfaceBound(value=value, radius=math.inf, nodes=0)


def _axis_factors(n: int, i: int) -> list:
    """Angular factors s_j(theta_j) of the coordinate x_i, for j = 1..n-1.

    x_i = r * prod_j s_j(theta_j): all sines for i = 1, otherwise sines up to
    j = n - i followed by one cosine.
    """
    if i == 1:
        return [np.sin] * (n - 1)
    factors: list = [np.sin] * (n - i)
    factors.append(np.cos)
    factors.extend([lambda t: np.ones_like(t)] * (i - 2))
    return factors


def test_function_orthogonality(cfg: ShellConfig, i: int, *, tol: float = QUAD_TOL) -> float:
    """Boundary integral of the coordinate eigenfunction x_i (1 + mu/|x|^n).

    Zero (within quadrature tolerance) for every in-plane axis i <= n - 1,
    which is what makes those eigenfunctions admissible test functions on the
    eccentric shell.  i = n is accepted as a diagnostic: the integral is
    generally nonzero for d > 0, documenting why the offset axis is excluded.
    Every angular factor is evaluated by quadrature; no symmetry shortcuts.
    """
    n, a, d = cfg.n, cfg.a, cfg.d
    if not 1 <= i <= n:
        raise ValueError("axis index must satisfy 1 <= i <= n")
    mu = mu_sigma(n, a)
    factors = _axis_factors(n, i)
    s1 = factors[0]

    def outer_polar(t):
        R = _radius(d, t)
        return (
            s1(t)
            * (R + mu * R ** (1 - n))
            * R ** (n - 2)
            * _arc_factor(d, t)
            * np.sin(t) ** (n - 2)
        )

    def inner_polar(t):
        return s1(t) * np.sin(t) ** (n - 2)

    if n == 2:
        # Full-circle quadrature; the polar radius folds across theta = pi.
        def full(f):
            def g(t):
                tf = np.where(t > math.pi, 2.0 * math.pi - t, t)
                return f(tf) * np.where(t > math.pi, _axis_sign(i), 1.0)

            return _quad(g, 0.0, math.pi, tol) + _quad(g, math.pi, 2.0 * math.pi, tol)

        def _axis_sign(axis: int) -> float:
            # x_1 = r sin(theta) flips sign across the fold; x_2 = r cos does not.
            return -1.0 if axis == 1 else 1.0

        outer = full(outer_polar)
        inner = full(inner_polar) * (a + mu / a) * a
        return outer + inner

    rest = 1.0
    for j in range(2, n):
        sj = factors[j - 1]
        power = n - 1 - j
        if j <= n - 2:
            rest *= _quad(lambda t, sj=sj, p=power: sj(t) * np.sin(t) ** p, 0.0, math.pi, tol)
        else:
            rest *= _quad(lambda t, sj=sj: sj(t), 0.0, 2.0 * math.pi, tol)
    outer = _quad(outer_polar, 0.0, math.pi, tol) * rest
    inner = _quad(inner_polar, 0.0, math.pi, tol) * (a + mu * a ** (1 - n)) * a ** (n - 1) * rest
    return outer + inner
