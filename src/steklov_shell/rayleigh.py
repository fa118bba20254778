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

The integrands call geometry's unchecked formulas (``_radius``,
``_arc_factor``, ``_phi_weight``, ``_psi_weight``): every quadrature node lies
in [0, pi] and ShellConfig bounds d, so the range checks stay at the public
geometry functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ShellConfig, _arc_factor, _phi_weight, _psi_weight, _radius
from .quadrature import QUAD_TOL, integrate
from .special import wallis
from .shell_spectrum import mu_sigma


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


def steklov_angular_constant(n: int) -> float:
    """Shared angular factor (2/(n-1)) * I_0 * ... * I_{n-3} of the assemblies."""
    out = 2.0 / (n - 1)
    for k in range(n - 2):
        out *= wallis(k)
    return out


def ds_angular_constant(n: int) -> float:
    """Angular factor 2 * I_0 * ... * I_{n-3} for the radial test function."""
    out = 2.0
    for k in range(n - 2):
        out *= wallis(k)
    return out


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
        bound=energy / boundary_mass,
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
    return ds_energy(cfg, tol=tol) / ds_boundary_mass(cfg, tol=tol)


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
