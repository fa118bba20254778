"""Eccentric-shell boundary geometry.

The domain is the unit ball shifted by d along the polar axis, minus the
closed concentric ball of radius a.  theta is the polar angle measured at the
origin (the inner center) from the offset axis; the outer boundary is then
the polar graph r = radius(d, theta).

The public functions validate their arguments.  Each of radius, arc_factor,
phi_weight and psi_weight evaluates an underscored formula with the same
arithmetic and no checks, which the quadrature integrands of ``rayleigh``
call directly: their nodes lie in [0, pi] by construction, and ShellConfig
already bounds d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShellConfig:
    """Eccentric shell: dimension n, inner radius a, center offset d.

    Requires 0 < a < 1 and 0 <= d < 1 - a, so the closed inner ball stays
    strictly inside the shifted unit ball.
    """

    n: int
    a: float
    d: float = 0.0

    def __post_init__(self):
        _check_n(self.n)
        if not 0.0 < self.a < 1.0:
            raise ValueError("inner radius must lie in (0,1)")
        if not 0.0 <= self.d < 1.0 - self.a:
            raise ValueError("offset must lie in [0, 1 - a)")


def _check_theta(theta):
    t = np.asarray(theta, dtype=float)
    # Written as "not inside" so that NaN, which compares false, is refused.
    if not np.all((t >= 0.0) & (t <= np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    return t


def _check_d(d: float) -> float:
    if not 0.0 <= d < 1.0:
        raise ValueError("offset d must lie in [0, 1)")
    return float(d)


def _check_n(n: int) -> int:
    if int(n) != n or n < 2:
        raise ValueError("dimension must be an integer >= 2")
    return n


def radius(d: float, theta):
    """Distance from the origin to the shifted unit sphere in direction theta.

    R_d(theta) = d*cos(theta) + sqrt(1 - d^2 sin^2(theta)), the positive root
    of the law-of-cosines relation 1 = d^2 + R^2 - 2 d R cos(theta).
    """
    return _radius(_check_d(d), _check_theta(theta))


def _radius(d: float, t):
    return d * np.cos(t) + np.sqrt(1.0 - d * d * np.sin(t) ** 2)


def radius_deriv(d: float, theta):
    """Derivative of radius with respect to theta."""
    d = _check_d(d)
    t = _check_theta(theta)
    s, c = np.sin(t), np.cos(t)
    root = np.sqrt(1.0 - d * d * s * s)
    return -d * s - d * d * s * c / root


def arc_factor(d: float, theta):
    """Boundary measure density sqrt(R^2 + R'^2) of the polar graph.

    Simplifies to R_d(theta) / sqrt(1 - d^2 sin^2(theta)).
    """
    return _arc_factor(_check_d(d), _check_theta(theta))


def _arc_factor(d: float, t):
    root = np.sqrt(1.0 - d * d * np.sin(t) ** 2)
    return (d * np.cos(t) + root) / root


def phi_weight(n: int, theta):
    """Angular weight -n*sin^n + (n-1)*sin^(n-2) of the log energy term.

    Symmetric about pi/2 and integrates to zero over [0, pi].  The power
    sin^0 is taken as 1 everywhere, including the endpoints.
    """
    return _phi_weight(_check_n(n), _check_theta(theta))


def _phi_weight(n: int, t):
    s = np.sin(t)
    return -n * s**n + (n - 1) * s ** (n - 2)


def psi_weight(n: int, theta):
    """Angular weight n(n-2)*sin^n + (n-1)*sin^(n-2); non-negative on [0, pi]."""
    return _psi_weight(_check_n(n), _check_theta(theta))


def _psi_weight(n: int, t):
    s = np.sin(t)
    return n * (n - 2) * s**n + (n - 1) * s ** (n - 2)
