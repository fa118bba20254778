"""Planar eigensolver for eccentric annuli: a banded eigenproblem in a conformal frame.

The hole is |z| < a and the outer circle |z - d| = 1.  The Moebius map
w = lam (z - x1) / (1 - y z), with x1 = a^2 y in the hole and 1/y beyond the
outer circle the real pair of points symmetric in both circles, sends the
annulus onto rho < |w| < 1 (the identity at d = 0).  There du/dn = sigma u
becomes (1/g) dU/dn_w = sigma U with g = |z'(w)|, and on |w| = r the weight
1/g = (1 + c^2 r^2 - 2 c r cos t) / kappa is a trigonometric polynomial of
degree one (Kac, Murdock & Szego, J. Rational Mech. Anal. 2, 1953): a
tridiagonal matrix T in the orthonormal Fourier modes of each circle.  The
annulus' Dirichlet-to-Neumann map D is diagonal in the mode order k, so both
problems are T D U = sigma U on the Fourier traces U, with closed-form
entries and no quadrature.  Mixed problem (zero trace on the hole): D is
k coth(k L) on the outer circle (1/L at k = 0, L = -log rho), and tau are the
eigenvalues of the tridiagonal D^1/2 T D^1/2.  Steklov problem: with
R = diag(1, rho), the w-arclength, S = R D is a symmetric semidefinite 2 x 2
block per mode coupling the circles (the constant spans its kernel), and
sigma are the eigenvalues of S^1/2 (T R^-1) S^1/2, a band of half-width 3
with the circles' traces of each mode interleaved.  The map commutes with
the mirror y -> -y, so the cos k t (k >= 0, "even") and sin k t (k >= 1,
"odd") families are separate problems.  Their factors agree past mode 0,
so each order builds the even family's once, on the modes 0..N+1, and both
families' order-N problems (modes 0..N and 1..N) and the tail residual
(mode N + 1) read that build.  The even family is solved; one banded
Cholesky factorization per order certifies that the odd one lies above the
even family's first value, and the odd family is solved only where that
certificate fails (at the concentric Steklov tie) or where its values are read.

On the modes k <= N each value lies at or above the true one and falls as N
grows, since (P T P)^-1 <= P T^-1 P for SPD T.  LAPACK's banded values are
accurate to about eps times the matrix norm, near N / a.  So the constants'
zero is set exactly, and each family's first mode takes the Rayleigh
quotient rho = (S^1/2 y)^T (T R^-1) (S^1/2 y) of its unit vector y from
banded inverse iteration, accurate to its own size; a solve whose rounding
is not below ROUNDING_RTOL times the principal value (a < 1e-13) raises
instead.  The band is block tridiagonal in k, so with y padded by zeros the
infinite operator's residual A y - rho y lies in mode N + 1 alone, and its
norm eta = |beta| |root_N+1 root_N y_N| costs O(1) (Kato 1949, Temple 1928).
``solve_steklov`` and ``solve_dirichlet_steklov`` double N from FIRST_ORDER
until the principal mode passes either of two tests: eta is at most
GATE_RTOL times rho, or rho agrees with the previous order's to GATE_RTOL.
They raise NonConvergenceError rather than pass MAX_ORDER.  The first order
seeds inverse iteration with ``eig_banded``'s value; every later order seeds
a family with its quotient at order N / 2, which bounds the order-N value
from above.  A seeded quotient rho is certified by a banded Cholesky
factorization: with s = rho - 4 eps |A|_1, M - s S^-1, a band in the
circles' sum/difference frame, must be positive definite once the
constants' zero is dropped, so no value of the family lies at or below s
but that zero and the family's first order-N value lies in (s, rho], as
near rho as the unseeded solve's rounding.  That certifies the finite
section at order N only; bounds on the untruncated operator are ROADMAP
item 1.  A factorization that fails, or a non-finite factor, solves the
order again from ``eig_banded``.  The odd family's certificate is the same,
at s = rho + 4 eps |A|_1 with rho the even family's quotient: no odd value
at or below s puts the odd family's first quotient above rho, and the even
mode is principal.  So a gated solve calls ``eig_banded`` once, on the even
family at its first order, and later only where a certificate fails; the
result computes the odd family's chain and its low spectrum at the order it
returns on first read.  The result also carries the Kato-Temple width
eta^2 / (nu - rho), with nu the family's next value at the same order: an
estimate, because that nu is an upper bound.
The boundary residual checks a mode in the physical plane, independently of
T and D: ``TrefftzBasis`` evaluates the fields whose traces are the Fourier
modes, with 1/g from the map's derivative at the boundary points.  No call
sets a BLAS thread count: the banded LAPACK calls make no level-3 BLAS call,
and ``tests/test_cli.py`` compares output bytes across OpenBLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError
from .geometry import ShellConfig

FIRST_ORDER = 32  # mode order N of the gate's first solve
MAX_ORDER = 2048  # the gate raises rather than solve past this order
GATE_RTOL = 1e-10  # the gate's relative tail residual, or successive orders' relative agreement
KEPT = 24  # lowest eigenvalues computed per mirror family
ZERO_MODE_TOL = 1e-6
RESIDUAL_POINTS = 2048  # points per circle of the residual sample
GROUP_RTOL = 1e-8  # relative gap below which eigenvalues form one group
_SHIFT_RTOL = 1e-10  # inverse iteration's offset below the value, and its settling tolerance
_PASSES = 4  # most inverse-iteration passes, each shifted to the last one's quotient
ROUNDING_RTOL = 0.1  # banded values' rounding a solve accepts, relative to the principal value
_CHUNK = 1 << 16  # field values per block of the residual's evaluation


class _Frame(NamedTuple):
    """The map w = lam (z - x1) / (1 - y z) and the constants of T."""
    x1: float
    y: float
    lam: float
    rho: float  # radius of the hole's image
    c: float  # 1/c is the image of infinity
    kappa: float  # c |x1 - 1/y|


def _frame(a: float, d: float) -> _Frame:
    """The conformal frame of the annulus with hole radius a at offset d.

    x1 and x2 = 1/y are the roots of x^2 - s x + a^2 with s = (a^2 + d^2 - 1)/d.
    y is computed from t = -1/s, whose square cannot overflow, so the frame
    is exact to rounding down to d = 0, where it is the identity.
    """
    t = d / (1.0 - a * a - d * d)
    y = -2.0 * t / (1.0 + math.sqrt(1.0 - (2.0 * a * t) ** 2))
    x1 = a * a * y
    lam = (1.0 - (1.0 + d) * y) / (1.0 + d - x1)
    rho = lam * (a - x1) / (1.0 - a * y)
    return _Frame(x1, y, lam, rho, -y / lam, (1.0 - x1 * y) / lam)


@dataclass(frozen=True)
class TrefftzBasis:
    """Harmonic fields whose traces are the orthonormal Fourier modes of the w-circles.

    Columns: the even family (1/sqrt(2 pi), cos k t / sqrt(pi), k <= max_order),
    then the odd one (sin k t / sqrt(pi)); per mode, the field with that trace
    on |w| = 1 and none on |w| = rho, then (kind "steklov") the reverse.  Kind
    "dirichlet" keeps the outer fields, which vanish on the hole.  frame
    (computed, not passed) is the map of a and d.
    """

    max_order: int
    a: float
    d: float
    kind: str
    frame: _Frame = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("steklov", "dirichlet"):
            raise ValueError("basis kind must be 'steklov' or 'dirichlet'")
        object.__setattr__(self, "frame", _frame(self.a, self.d))

    @property
    def circles(self) -> int:  # fields per mode
        return 2 if self.kind == "steklov" else 1

    @property
    def size(self) -> int:
        return self.circles * (2 * self.max_order + 1)

    def modes(self, odd: bool) -> np.ndarray:
        """The mode orders k of the odd or the even family."""
        return np.arange(1 if odd else 0, self.max_order + 1)

    @property
    def odd(self) -> np.ndarray:
        """Mask of the fields odd under the mirror y -> -y (the sin k t ones)."""
        return np.arange(self.size) >= self.circles * (self.max_order + 1)

    def _fields(self, pts: np.ndarray, normals: np.ndarray | None, odd: bool):
        """One family's values at pts and, unless normals is None, their outward normal derivatives.

        Each field is f(r) g(t) in w = r e^(it).  For real u(w), u_x - i u_y =
        e^(-it) (u_r - i u_t / r) in the w-plane, and grad(u).n in the z-plane
        is Re((u_x - i u_y) w'(z) n).
        """
        fr = self.frame
        z = pts[:, 0] + 1j * pts[:, 1]
        w = fr.lam * (z - fr.x1) / (1.0 - fr.y * z)
        r, t = np.abs(w), np.angle(w)
        k = self.modes(odd).astype(float)
        L = -math.log(fr.rho)
        log_r = np.log(r)[:, None]
        # With q = rho^k, the outer field's radial factor is (r^k - q (rho/r)^k)
        # / (1 - q^2) and the inner one's ((rho/r)^k - q r^k) / (1 - q^2): no
        # power exceeds 1 on rho <= r <= 1.  Shaped (points, modes, circles); rdf = r df/dr.
        up, down = np.exp(k * log_r), np.exp(-k * (log_r + L))
        q = np.exp(-k * L)
        den = np.where(k > 0, -np.expm1(-2.0 * k * L), 1.0)
        f, rdf = np.empty(up.shape + (self.circles,)), np.empty(up.shape + (self.circles,))
        f[..., 0], rdf[..., 0] = (up - q * down) / den, k * (up + q * down) / den
        if self.circles == 2:
            f[..., 1], rdf[..., 1] = (down - q * up) / den, -k * (down + q * up) / den
        if not odd:  # k = 0: the log fields (L + log r) / L outside, -log r / L inside
            f[:, 0, 0], rdf[:, 0, 0] = 1.0 + log_r[:, 0] / L, 1.0 / L
            f[:, 0, 1:], rdf[:, 0, 1:] = -log_r / L, -1.0 / L
        # e^(ikt) by repeated multiplication, normalized on the circle; g and dg/dt.
        e = np.empty(up.shape, dtype=complex)
        e[:, 0], e[:, 1:] = np.exp(1j * k[0] * t), np.exp(1j * t)[:, None]
        e = (np.cumprod(e, axis=1) * (np.where(k > 0, 1.0, 0.5 ** 0.5) / math.pi ** 0.5))[..., None]
        g, dg = (e.imag, k[:, None] * e.real) if odd else (e.real, -k[:, None] * e.imag)
        u = (f * g).reshape(len(pts), -1)
        if normals is None:
            return u, None
        dw = fr.lam * (1.0 - fr.x1 * fr.y) / (1.0 - fr.y * z) ** 2
        factor = (np.exp(-1j * t) * dw * (normals[:, 0] + 1j * normals[:, 1]) / r)[:, None, None]
        return u, (rdf * g * factor.real + f * dg * factor.imag).reshape(len(pts), -1)

    def evaluate(self, pts: np.ndarray, odd: bool | None = None) -> np.ndarray:
        """Field values at pts (npts x 2), one column per field (of family odd only, if given)."""
        families = (False, True) if odd is None else (odd,)
        return np.hstack([self._fields(pts, None, fam)[0] for fam in families])

    def normal_derivative(self, pts: np.ndarray, normals: np.ndarray,
                          odd: bool | None = None) -> np.ndarray:
        """Outward normal derivatives at pts, shaped as evaluate's values."""
        families = (False, True) if odd is None else (odd,)
        return np.hstack([self._fields(pts, normals, fam)[1] for fam in families])


def _factors(basis: TrefftzBasis):
    """The even family's problem as root M root on the modes 0..N+1, N basis' order: (root, m, beta).

    root holds the symmetric per-mode blocks of S^1/2 (2 x 2, kind
    "steklov") or D^1/2 (1 x 1, kind "dirichlet"); M = T R^-1 (T) has the
    diagonal m on each circle and beta between consecutive modes.
    """
    f0 = basis.frame
    k = np.arange(basis.max_order + 2, dtype=float)
    L = -math.log(f0.rho)
    if basis.kind == "steklov":
        # S_k has eigenvalues k tanh(k L/2) on (1, 1) and k coth(k L/2) on (1, -1).
        half = np.tanh(0.5 * L * k)
        low = np.sqrt(k * half)
        high = np.sqrt(np.divide(k, half, out=np.full_like(k, 2.0 / L), where=k > 0))
        p, q = 0.5 * (low + high), 0.5 * (low - high)
        root = np.stack((np.stack((p, q), axis=-1), np.stack((q, p), axis=-1)), axis=1)
        m = np.array([1.0 + f0.c ** 2, (1.0 + (f0.c * f0.rho) ** 2) / f0.rho]) / f0.kappa
    else:
        dtn = np.divide(k, np.tanh(L * k), out=np.full_like(k, 1.0 / L), where=k > 0)
        root = np.sqrt(dtn)[:, None, None]
        m = np.array([(1.0 + f0.c ** 2) / f0.kappa])
    beta = np.full(len(k) - 1, -f0.c / f0.kappa)
    beta[0] *= math.sqrt(2.0)  # cos t times the constant mode
    return root, m, beta


def _order_n(factors, odd: bool):
    """One family's order-N factors, its modes 0..N (even) or 1..N (odd) of ``_factors``' build."""
    root, m, beta = factors
    return root[int(odd):-1], m, beta[int(odd):-1]


def _band(root: np.ndarray, m: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """root M root in general band storage: band[h + i - j, j] = A[i, j], h = 2b - 1.

    Both off-diagonal blocks are computed from the factors, neither copied from the other.
    """
    J, b, _ = root.shape
    h = 2 * b - 1
    diag = np.einsum("jrt,t,jts->jrs", root, m, root)
    upper = beta[:, None, None] * np.einsum("jrt,jts->jrs", root[:-1], root[1:])
    lower = beta[:, None, None] * np.einsum("jrt,jts->jrs", root[1:], root[:-1])
    band = np.zeros((2 * h + 1, b * J))
    for r in range(b):
        for s in range(b):
            band[h + r - s, s::b] = diag[:, r, s]
            band[h + r - s - b, b + s::b] = upper[:, r, s]
            band[h + r - s + b, s:b * (J - 1):b] = lower[:, r, s]
    return band


def _refine(band: np.ndarray, root, m, beta, value: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Rayleigh quotient (root y)^T M (root y), unit eigenvector y nearest value, and M root y.

    y is from passes of two inverse-iteration steps, each pass on one LU factorization of the
    band shifted just below the last quotient (first, value), never exactly singular, until a
    quotient settles within _SHIFT_RTOL of its shift.  M root y is one row per mode.
    """
    h, n = len(band) // 2, band.shape[1]
    y = np.ones(n)
    for _ in range(_PASSES):
        shift = value
        lu = np.zeros((3 * h + 1, n), order="F")  # gbtrf's h rows of fill-in above the band
        lu[h:] = band
        lu[2 * h] -= shift - _SHIFT_RTOL * max(1.0, abs(shift))
        lu, piv, info = scipy.linalg.lapack.dgbtrf(lu, h, h, overwrite_ab=True)
        if info:
            raise scipy.linalg.LinAlgError(f"shifted band singular or invalid (gbtrf info {info})")
        for _ in range(2):
            y = scipy.linalg.lapack.dgbtrs(lu, h, h, y, piv)[0]
            y /= np.linalg.norm(y)
        v = np.einsum("jrs,js->jr", root, y.reshape(len(root), -1))
        Mv = m * v
        Mv[:-1] += beta[:, None] * v[1:]
        Mv[1:] += beta[:, None] * v[:-1]
        value = float(np.sum(v * Mv))
        if abs(value - shift) <= _SHIFT_RTOL * max(1.0, abs(value)):
            break
    return value, y, Mv


def _positive_definite(root: np.ndarray, m: np.ndarray, beta: np.ndarray, s: float,
                       kernel: bool) -> bool:
    """Whether M - s S^-1 is positive definite: root M root has no eigenvalue at or below s > 0
    but, with kernel, the constants' zero.

    In each mode's sum/difference frame of the circles S^-1 is diagonal, M's
    block is [[h, g], [g, h]] and the coupling to the next mode is beta on
    each component, so with the modes' components interleaved M - s S^-1 is
    a band of half-width 2 (1 for the mixed problem's D^-1).  kernel drops
    the constant's direction, the sum at k = 0, which root does not reach:
    the band starts one column later, and that entry is never computed.
    LAPACK's banded Cholesky decides.  The band is stored lower, so that its
    rank-one updates run on contiguous columns: upper storage makes them
    strided, and OpenBLAS threads strided updates, which restarts its thread
    server in a forked sweep row.  A zero or negative pivot stops the
    factorization, but a NaN or +inf one does not, so the factor's diagonal
    must also be finite.
    """
    b, start = root.shape[1], int(kernel)
    band = np.zeros((b + 1, b * len(root)))
    if b == 1:
        band[0] = m[0] - s / (root[:, 0, 0] * root[:, 0, 0])
    else:
        h = float(m[0] + m[1]) / 2.0
        p, q = root[:, 0, 0], root[:, 0, 1]  # root's eigenvalues are p + q (sum) and p - q (difference)
        band[0, 2 * start::2] = h - s / (p + q)[start:] ** 2
        band[0, 1::2] = h - s / (p - q) ** 2
        band[1, ::2] = float(m[0] - m[1]) / 2.0
    band[b, :-b] = np.repeat(beta, b)
    factor, info = scipy.linalg.lapack.dpbtrf(band[:, start:], lower=1)
    return info == 0 and bool(np.isfinite(factor[0]).all())


def _tail_residual(factors, y: np.ndarray) -> float:
    """|A y - rho y| in the infinite operator, y either family's order-N unit vector padded with zeros.

    factors are ``_factors``' build on the modes 0..N+1.  With rho the quotient of
    y, the order-N band's rows of A y - rho y vanish (to the vector's
    rounding), and the rest lies in mode N + 1: beta root_N+1 root_N y_N.
    """
    root, _, beta = factors
    return abs(beta[-1]) * float(np.linalg.norm(root[-1] @ root[-2] @ y[-root.shape[1]:]))


def _low_spectrum(band: np.ndarray) -> np.ndarray:
    """The lowest KEPT eigenvalues of a band (LAPACK).

    All values, then the lowest KEPT: at these sizes faster than bisecting for some.
    """
    return scipy.linalg.eig_banded(band[len(band) // 2:], lower=True, eigvals_only=True)[:KEPT]


@dataclass(frozen=True)
class EigResult:
    """Solver output: the principal mode, both families' first modes, and the basis of the order solved.

    even_value is the even family's first-mode Rayleigh quotient rho (after
    the constants' zero in the Steklov problem).  odd_value is the odd
    family's, where the solve computed it, else None: then a banded Cholesky
    certificate showed the odd family above even_value by more than its
    rounding.
    first_values holds both, the odd one computed on first read by
    ``_odd_mode``, seeded as the gate seeds it from the result at half this
    order (none at an unseeded order), which the result keeps privately with
    its band's rounding for that replay.  principal, sigma_1 or
    tau_1, is the lower, the even one on a tie.  tail_residual is its
    closed-form residual eta in the untruncated operator (``_tail_residual``).

    The low spectrum is computed once, on first read, by ``eig_banded`` at the
    order solved.  eigenvalues merges the lowest KEPT values of both mirror
    families in ascending order (even first on ties), cut at the smaller
    family maximum so none below the last is missing, with each family's
    first mode valued by its quotient and the constants' zero exact; odd
    marks the odd family's, and mode indexes the principal one.  width is
    the principal's Kato-Temple width eta^2 / (nu - rho), nu the family's
    next value at this order: an estimate, since that nu bounds the true next
    value from above, not below.
    """

    basis: TrefftzBasis = field(repr=False)
    even_value: float
    tail_residual: float
    odd_value: float | None = None
    # For the odd family's replay on read: the result at half this order and the band's rounding.
    _below: EigResult | None = field(default=None, repr=False, compare=False)
    _band_rounding: float = field(default=math.nan, repr=False, compare=False)

    @property
    def principal(self) -> float:
        """Eigenvalue of the principal mode."""
        return self.even_value if self.odd_value is None else min(self.even_value, self.odd_value)

    @property
    def family(self) -> str:
        """Mirror family of the principal mode, "even" or "odd"."""
        return "odd" if self.odd_value is not None and self.odd_value < self.even_value else "even"

    @cached_property
    def first_values(self) -> tuple[float, float]:
        """The even then the odd family's first-mode quotients."""
        if self.odd_value is not None:
            return self.even_value, self.odd_value
        return self.even_value, _odd_mode(_factors(self.basis), self._below, self._band_rounding)[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        """(eigenvalues, odd, mode, width) at the order solved."""
        first = (int(self.basis.kind == "steklov"), 0)
        try:
            factors = _factors(self.basis)
            spectra = [_low_spectrum(_band(*_order_n(factors, odd))) for odd in (False, True)]
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergenceError(
                f"banded eigensolve failed at order {self.basis.max_order}: {exc}") from exc
        if self.basis.kind == "steklov":  # exact: the constant's two columns of the band are opposite
            spectra[0][0] = 0.0
        for f in (0, 1):
            spectra[f][first[f]] = self.first_values[f]
        p = int(self.family == "odd")
        vals = np.concatenate(spectra)
        order = np.argsort(vals, kind="stable")
        order = order[vals[order] <= min(s[-1] for s in spectra)]
        mode = int(np.flatnonzero(order == p * len(spectra[0]) + first[p])[0])
        odd = np.repeat([False, True], [len(s) for s in spectra])[order]
        width = self.tail_residual ** 2 / (spectra[p][first[p] + 1] - self.principal)
        return vals[order], odd, mode, width

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def odd(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def mode(self) -> int:
        return self._spectrum[2]

    @property
    def width(self) -> float:
        return self._spectrum[3]

    @property
    def residual(self) -> float:
        """boundary_residual of the principal mode."""
        return boundary_residual(self, self.mode)


def boundary_points(geom: ShellConfig | TrefftzBasis, m: int):
    """Trapezoid sample of both boundary circles: (pts, normals, weights, is_outer).

    geom, a solve's configuration or its result's basis, places them by its a and d.
    """
    t = 2.0 * math.pi * np.arange(m) / m
    unit = np.column_stack((np.cos(t), np.sin(t)))
    pts = np.vstack((unit + [geom.d, 0.0], geom.a * unit))
    normals = np.vstack((unit, -unit))
    weights = np.repeat([2.0 * math.pi / m, 2.0 * math.pi * geom.a / m], m)
    is_outer = np.arange(2 * m) < m
    return pts, normals, weights, is_outer


def validate_problem_size(cfg: ShellConfig, N: int) -> None:
    if cfg.n != 2:
        raise ValueError("the conformal-frame solver is planar: dimension must be 2")
    if N < 4:
        raise ValueError("mode order must be at least 4")


def assemble_steklov(cfg: ShellConfig, N: int) -> np.ndarray:
    """The Steklov matrix S^1/2 (T R^-1) S^1/2 at order N, in general band storage.

    band[3 + i - j, j] = A[i, j]; the even family's 2N + 2 columns come
    first, then the odd family's 2N.  No entry couples the two families.
    """
    validate_problem_size(cfg, N)
    factors = _factors(TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind="steklov"))
    return np.hstack([_band(*_order_n(factors, odd)) for odd in (False, True)])


def _rounding(band: np.ndarray) -> float:
    """eps |A|_1 of the even family's band, which bounds the odd one's.

    Each odd column holds the entries of the even column of its mode, but for
    the coupling to the constant at k = 1, so its sum is at most the even one.
    """
    return np.finfo(float).eps * np.abs(band).sum(axis=0).max()


def _first_mode(factors, band: np.ndarray, first: int, rounding: float, N: int,
                seed: float | None) -> tuple[float, np.ndarray]:
    """One family's first-mode quotient rho and unit vector y at order N (``_refine``).

    factors and band are the family's at order N (``_order_n``), first the
    mode's index (1 after the Steklov constants' zero).  Inverse iteration
    starts from seed, or without one from the mode's ``eig_banded`` value.
    A seeded rho stands only once ``_positive_definite`` finds no value of
    the family at or below rho less four times the banded rounding (which is
    at least eps rho), but the constants' zero: then the family's first mode
    at order N lies in that interval, as near rho as an unseeded solve's.
    Otherwise the order is solved again without the seed.  Raises
    NonConvergenceError when LAPACK fails or its rounding is too near the
    start value.
    """
    try:
        # Inverse iteration finds the first mode only from a value nearer it than its
        # neighbours, about as far as the value itself at small a (0, sigma1, 2, ...).
        start = seed if seed is not None else _low_spectrum(band)[first]
        if not rounding <= ROUNDING_RTOL * start:
            raise NonConvergenceError(f"the banded eigenvalues' rounding, {rounding:.3g} at order {N}, "
                                      "nears the principal value: the hole is too small")
        rho, y, _ = _refine(band, *factors, start)
    except (scipy.linalg.LinAlgError, ValueError) as exc:  # ValueError: a band entry overflowed
        raise NonConvergenceError(f"banded eigensolve failed at order {N}: {exc}") from exc
    if seed is not None and not _positive_definite(*factors, rho - 4.0 * rounding, bool(first)):
        return _first_mode(factors, band, first, rounding, N, None)
    return rho, y


def _odd_mode(factors, below: EigResult | None, rounding: float) -> tuple[float, np.ndarray]:
    """The odd family's first mode (rho, y) as the gate reaches it, from ``_factors``' build.

    Seeded with the odd value of below, the result at half the order (which
    computes it there on read in turn), or without below from ``eig_banded``;
    certified with rounding, the even band's, as the even family is.
    """
    odd = _order_n(factors, True)
    seed = None if below is None else below.first_values[1]
    return _first_mode(odd, _band(*odd), 0, rounding, len(odd[0]), seed)  # one block per mode 1..N


def _solve_at_order(cfg: ShellConfig, N: int, kind: str,
                    below: EigResult | None = None) -> EigResult:
    """The solve on the modes k <= N of kind "steklov" or "dirichlet".

    One ``_factors`` build on the modes 0..N+1 serves both families and the
    tail residual.  The even family's first mode is ``_first_mode``'s,
    seeded with below's even value, below being the result at order N / 2
    (none at an unseeded order).  Then one ``_positive_definite`` certificate
    on the odd family's factors at s = rho + 4 rounding.  If it holds, the
    odd family's first value exceeds s, and its quotient, within about the
    rounding of that value, still lies above rho: the even mode is
    principal, as a solve of both families finds.  Otherwise (at the
    concentric Steklov tie, or where the factorization is not certain) the
    odd family is solved as well, by ``_odd_mode``.
    """
    validate_problem_size(cfg, N)
    basis = TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
    factors = _factors(basis)
    even = _order_n(factors, False)
    band = _band(*even)
    rounding = _rounding(band)
    value, y = _first_mode(even, band, int(kind == "steklov"), rounding, N,
                           None if below is None else below.even_value)
    odd = None
    if not _positive_definite(*_order_n(factors, True), value + 4.0 * rounding, False):
        odd, y_odd = _odd_mode(factors, below, rounding)
        if odd < value:  # the principal family, the even one on a tie
            y = y_odd
    return EigResult(basis=basis, even_value=value, odd_value=odd,
                     tail_residual=_tail_residual(factors, y),
                     _below=below, _band_rounding=rounding)


def _solve(cfg: ShellConfig, kind: str) -> EigResult:
    """The order gate: double N from FIRST_ORDER until the principal value passes either test.

    A solve passes when its tail residual is at most GATE_RTOL times its value,
    or when its value agrees with the previous order's to GATE_RTOL relative;
    the gate returns the first that passes.  Every order after the first is
    seeded from the result of the order below, whose first-mode values bound
    its own from above.  An order past MAX_ORDER is never solved, and
    NonConvergenceError names the last result's value and its seed's.
    """
    N, below = FIRST_ORDER, None
    while N <= MAX_ORDER:
        result = _solve_at_order(cfg, N, kind, below)
        value = result.principal
        if (result.tail_residual <= GATE_RTOL * value
                or below is not None and abs(value - below.principal) <= GATE_RTOL * abs(value)):
            return result
        N, below = 2 * N, result
    label = "sigma1" if kind == "steklov" else "tau1"
    last = ", ".join(f"{run.principal:.17g} at N={run.basis.max_order}"
                     for run in (below._below, below) if run is not None)
    raise NonConvergenceError(f"{label} did not converge to {GATE_RTOL:g} relative by the "
                              f"order cap {MAX_ORDER}: {last}")


def solve_steklov(cfg: ShellConfig) -> EigResult:
    """Spectrum with the spectral condition on both circles (constants' zero first), gated in N."""
    return _solve(cfg, "steklov")


def solve_dirichlet_steklov(cfg: ShellConfig) -> EigResult:
    """Spectrum with zero trace on the hole and the spectral condition outside, gated in N."""
    return _solve(cfg, "dirichlet")


def boundary_residual(result: EigResult, mode: int) -> float:
    """Max pointwise spectral-condition defect of one mode, RESIDUAL_POINTS per circle.

    |du/dn - sigma u|, sigma the mode's Rayleigh quotient, over both circles
    (the outer one for the mixed problem, with |u| on the inner one folded
    in), over the boundary sup of |u|; u extends the mode's trace by the
    basis fields, differentiated in the physical plane.
    """
    if not 0 <= mode < len(result.eigenvalues):
        raise ValueError("mode index out of range")
    basis, odd = result.basis, bool(result.odd[mode])
    factors = _order_n(_factors(basis), odd)
    sigma, y, Mv = _refine(_band(*factors), *factors, result.eigenvalues[mode])
    trace = Mv.ravel() if sigma > ZERO_MODE_TOL else y  # the zero mode's M root y vanishes
    pts, normals, _, is_outer = boundary_points(basis, RESIDUAL_POINTS)
    step = max(1, _CHUNK // len(trace))  # points per block, to bound the memory at high order
    u, dn = np.empty(len(pts)), np.empty(len(pts))
    for i in range(0, len(pts), step):
        fields = basis._fields(pts[i:i + step], normals[i:i + step], odd)
        u[i:i + step], dn[i:i + step] = (block @ trace for block in fields)
    spectral = is_outer | (basis.kind == "steklov")
    defect = np.where(spectral, np.abs(dn - sigma * u), np.abs(u))
    return float(np.max(defect)) / (float(np.max(np.abs(u))) + 1e-30)


def solve_with_order_fallback(cfg: ShellConfig, N: int | None = None, m: int | None = None,
                              problem: str = "steklov") -> EigResult:
    """The gated solve of problem ("steklov" or "dirichlet-steklov"), as the CLI makes it.

    An alias for the benchmark (``perfbench/``), which looks it up by name and
    passes the first order N and point count m of the solver this one
    replaced.  Both are unused: the gate starts at FIRST_ORDER, as the CLI's.
    """
    if problem not in ("steklov", "dirichlet-steklov"):
        raise ValueError("problem must be 'steklov' or 'dirichlet-steklov'")
    fn = solve_steklov if problem == "steklov" else solve_dirichlet_steklov
    return fn(cfg)


def group_eigenvalues(values) -> list[tuple[float, int]]:
    """Cluster an ascending eigenvalue list into (value, multiplicity) groups."""
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(v - groups[-1][-1]) <= GROUP_RTOL * max(1.0, abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups]
