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
"odd") families are solved apart.

On the modes k <= N each value lies at or above the true one and falls as N
grows, since (P T P)^-1 <= P T^-1 P for SPD T.  ``solve_steklov`` and
``solve_dirichlet_steklov`` double N from FIRST_ORDER until the principal
value agrees with the previous order's to GATE_RTOL, and raise
NonConvergenceError rather than pass MAX_ORDER.  LAPACK's banded values are
accurate to about eps times the matrix norm, near N / a.  So the constants'
zero is set exactly, and each family's first mode takes the Rayleigh
quotient (S^1/2 y)^T (T R^-1) (S^1/2 y) / y^T y of its vector y from banded
inverse iteration, accurate to its own size; a solve whose rounding is not
below ROUNDING_RTOL times the principal value (a < 1e-13) raises instead.
The boundary residual checks a mode in the physical plane, independently of
T and D: ``TrefftzBasis`` evaluates the fields whose traces are the Fourier
modes, with 1/g from the map's derivative at the boundary points.

Solves and residuals run on one BLAS thread, restored afterwards, so no
value depends on the host's core count.  The count is set only when it is
not 1: OpenBLAS's setter starts the library's thread server whenever it is
down, and in a freshly forked process one set_num_threads(1) per library
(numpy and scipy each bundle one) started a thread that spun for 0.06-0.13 s
of CPU.  A sweep therefore forks inside one single-thread scope
(``cli._fan_out``), so its children inherit a count of 1; a test in
``tests/test_cli.py`` counts a forked child's threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError
from .geometry import ShellConfig

FIRST_ORDER = 32  # mode order N of the gate's first solve
MAX_ORDER = 2048  # the gate raises rather than solve past this order
GATE_RTOL = 1e-10  # relative agreement of successive orders' principal values
KEPT = 24  # lowest eigenvalues computed per mirror family
ZERO_MODE_TOL = 1e-6
RESIDUAL_POINTS = 2048  # points per circle of the residual sample
GROUP_RTOL = 1e-8  # relative gap below which eigenvalues form one group
_SHIFT_RTOL = 1e-10  # inverse iteration's offset below the value, and its settling tolerance
_PASSES = 4  # most inverse-iteration passes, each shifted to the last one's quotient
ROUNDING_RTOL = 0.1  # banded values' rounding a solve accepts, relative to the principal value
_CHUNK = 1 << 16  # field values per block of the residual's evaluation
_MAPS = "/proc/self/maps"


def _thread_setter(lib):
    """lib's thread-count setter, returning the previous count; None if lib has none.

    OpenBLAS exports a get/set pair, named with numpy's and scipy's symbol
    prefix and suffix.  The setter calls set only when the count changes:
    set starts OpenBLAS's thread server when it is down, as it is after a
    fork, even when asked for the count the library already has.
    """
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None

                def swap(count, get=get, put=put):
                    previous = get()
                    if previous != count:
                        put(count)
                    return previous

                return swap
    return None


def _openblas_paths(maps: bytes) -> list:
    """Paths of the OpenBLAS libraries named in a /proc/<pid>/maps listing.

    The path is the sixth field and runs to the end of the line, spaces and
    a " (deleted)" mark included; names that are not valid text keep their
    bytes as surrogate escapes.
    """
    paths = set()
    for line in maps.splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and b"openblas" in fields[5].rsplit(b"/", 1)[-1]:
            paths.add(os.fsdecode(fields[5]))
    return sorted(paths)


@functools.cache
def _openblas_thread_setters() -> tuple:
    """Thread-count setters of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS, so there can be two.
    Empty when no OpenBLAS is loaded or the loaded libraries cannot be listed
    (outside Linux); a library that cannot be reopened by its path (deleted or
    replaced on disk) is left at its own thread count.
    """
    try:
        with open(_MAPS, "rb") as fh:
            paths = _openblas_paths(fh.read())
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            setter = _thread_setter(ctypes.CDLL(path))
        except (OSError, UnicodeDecodeError):
            # ctypes decodes the loader's message as UTF-8, so a failed load
            # of a path that is not valid UTF-8 raises UnicodeDecodeError.
            continue
        if setter is not None:
            setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, restoring each library's count on exit.

    A library already at 1 is left alone, so a nested scope, or any scope in
    a process forked inside one, calls no setter at all.  The count is
    process-wide in OpenBLAS's pthreads builds, so solves run at once from
    several threads of one process can interleave their saves and restores
    and leave the process-wide count at 1.
    """
    setters = _openblas_thread_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


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


def _factors(basis: TrefftzBasis, odd: bool):
    """One family's problem as root M root: (root, m, beta).

    root holds the symmetric per-mode blocks of S^1/2 (2 x 2, kind
    "steklov") or D^1/2 (1 x 1, kind "dirichlet"); M = T R^-1 (T) has the
    diagonal m on each circle and beta between consecutive modes.
    """
    f0 = basis.frame
    k = basis.modes(odd).astype(float)
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
    if not odd:
        beta[0] *= math.sqrt(2.0)  # cos t times the constant mode
    return root, m, beta


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


def _refine(band: np.ndarray, root, m, beta, value: float) -> tuple[float, np.ndarray]:
    """Rayleigh quotient (root y)^T M (root y) / y^T y and trace of the eigenvector y nearest value.

    y is from passes of two inverse-iteration steps, each shifted just below the last quotient
    (first, value), never exactly singular, until a quotient settles within _SHIFT_RTOL of its
    shift.  The trace is M root y, scaled arbitrarily, or y itself for the zero mode.
    """
    h = len(band) // 2
    y = np.ones(band.shape[1])
    for _ in range(_PASSES):
        shift, shifted = value, band.copy()
        shifted[h] -= shift - _SHIFT_RTOL * max(1.0, abs(shift))
        for _ in range(2):
            y = scipy.linalg.solve_banded((h, h), shifted, y)
            y /= np.linalg.norm(y)
        v = np.einsum("jrs,js->jr", root, y.reshape(len(root), -1))
        Mv = m * v
        Mv[:-1] += beta[:, None] * v[1:]
        Mv[1:] += beta[:, None] * v[:-1]
        value = float(np.sum(v * Mv))
        if abs(value - shift) <= _SHIFT_RTOL * max(1.0, abs(value)):
            break
    return value, (Mv.ravel() if value > ZERO_MODE_TOL else y)


@dataclass(frozen=True)
class EigResult:
    """Solver output: the low spectrum, the principal mode, and the basis of the order solved.

    eigenvalues merges the lowest KEPT values of both mirror families in
    ascending order (even first on ties), cut at the smaller family maximum
    so none below the last is missing; odd marks the odd family's.  mode
    indexes sigma_1 or tau_1, the lower of the families' first modes (after
    the constants' zero), each valued by its Rayleigh quotient.
    """

    eigenvalues: np.ndarray
    odd: np.ndarray
    mode: int
    basis: TrefftzBasis = field(repr=False)

    @property
    def principal(self) -> float:
        """Eigenvalue of the principal mode."""
        return float(self.eigenvalues[self.mode])

    @property
    def residual(self) -> float:
        """boundary_residual of the principal mode."""
        return boundary_residual(self, self.mode)

    @property
    def family(self) -> str:
        """Mirror family of the principal mode, "even" or "odd"."""
        return self.family_of(self.mode)

    def family_of(self, mode: int) -> str:
        """"odd" if the mode is in the odd family, else "even"."""
        return "odd" if self.odd[mode] else "even"


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
    basis = TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind="steklov")
    return np.hstack([_band(*_factors(basis, odd)) for odd in (False, True)])


@_one_blas_thread()
def _solve_at_order(cfg: ShellConfig, N: int, kind: str) -> EigResult:
    """The solve on the modes k <= N of kind "steklov" or "dirichlet" (LAPACK).

    Raises NonConvergenceError when LAPACK fails or its rounding is too near the principal value.
    """
    validate_problem_size(cfg, N)
    basis = TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
    factors = [_factors(basis, odd) for odd in (False, True)]
    bands = [_band(*f) for f in factors]
    try:
        # All values, then the lowest KEPT: at these sizes faster than bisecting for some.
        spectra = [scipy.linalg.eig_banded(b[len(b) // 2:], lower=True, eigvals_only=True)[:KEPT]
                   for b in bands]
        first = [int(kind == "steklov"), 0]
        # Inverse iteration finds the principal mode only from a value nearer it than its
        # neighbours, about as far as the value itself at small a (0, sigma1, 2, ...).
        estimate = min(spectra[f][first[f]] for f in (0, 1))
        rounding = np.finfo(float).eps * max(np.abs(band).sum(axis=0).max() for band in bands)
        if not rounding <= ROUNDING_RTOL * estimate:
            raise NonConvergenceError(
                f"the banded eigenvalues' rounding, {rounding:.3g} at order {N}, nears the "
                f"principal value {estimate:.3g}: the hole is too small")
        if kind == "steklov":  # exact: the constant's two columns of the band are opposite
            spectra[0][0] = 0.0
        # Each family's first mode, after the constants' zero in the even
        # Steklov family, takes its Rayleigh quotient for its value.
        for f in (0, 1):
            spectra[f][first[f]] = _refine(bands[f], *factors[f], spectra[f][first[f]])[0]
    except (scipy.linalg.LinAlgError, ValueError) as exc:  # ValueError: a band entry overflowed
        raise NonConvergenceError(f"banded eigensolve failed at order {N}: {exc}") from exc
    vals = np.concatenate(spectra)
    order = np.argsort(vals, kind="stable")
    order = order[vals[order] <= min(s[-1] for s in spectra)]
    # The principal mode is the lower of the two first modes.
    mode = int(np.flatnonzero(np.isin(order, [first[0], len(spectra[0]) + first[1]]))[0])
    odd = np.repeat([False, True], [len(s) for s in spectra])[order]
    return EigResult(eigenvalues=vals[order], odd=odd, mode=mode, basis=basis)


def _solve(cfg: ShellConfig, kind: str) -> EigResult:
    """The order gate: double N from FIRST_ORDER until two successive principal values agree.

    Agreement is to GATE_RTOL relative and returns the later solve; an order past
    MAX_ORDER is never solved, and NonConvergenceError names the last two values.
    """
    history, N = [], FIRST_ORDER
    while N <= MAX_ORDER:
        result = _solve_at_order(cfg, N, kind)
        if history and abs(result.principal - history[-1][1]) <= GATE_RTOL * abs(result.principal):
            return result
        history.append((N, result.principal))
        N *= 2
    label = "sigma1" if kind == "steklov" else "tau1"
    last = ", ".join(f"{value:.17g} at N={order}" for order, value in history[-2:])
    raise NonConvergenceError(f"{label} did not converge to {GATE_RTOL:g} relative by the "
                              f"order cap {MAX_ORDER}: {last}")


def solve_steklov(cfg: ShellConfig) -> EigResult:
    """Spectrum with the spectral condition on both circles (constants' zero first), gated in N."""
    return _solve(cfg, "steklov")


def solve_dirichlet_steklov(cfg: ShellConfig) -> EigResult:
    """Spectrum with zero trace on the hole and the spectral condition outside, gated in N."""
    return _solve(cfg, "dirichlet")


@_one_blas_thread()
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
    factors = _factors(basis, odd)
    sigma, trace = _refine(_band(*factors), *factors, result.eigenvalues[mode])
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
