"""Planar eigensolver for eccentric annuli via a harmonic Laurent basis.

Global trial functions {1, log r} and {r^k, r^-k} x {cos k0, sin k0},
centered at the inner circle's center, are all exactly harmonic on the
annulus, so the energy form reduces to boundary integrals by Green's
identity and only boundary quadrature is needed.  Both circles are sampled
with the periodic trapezoid rule, which is spectrally accurate here.

Fields are rescaled so their sup over the whole boundary is 1; without that
the r^(+-k) dynamic range between the two circles destroys the mass matrix
long before the basis stops improving.  Even so, at large orders or small
holes some combinations of the fields are numerically dependent on the
boundary.  Each solve drops the eigen-directions of the mass matrix below
1/GRAM_CONDITION_CAP of its largest eigenvalue and solves the reduced
standard problem on the rest (Fix & Heiberger, SIAM J. Numer. Anal. 9,
1972), so every order asked for is solved once, on the rank it supports.

Every dense BLAS/LAPACK call here (the assembly products, the two symmetric
eigensolves and the residual products) runs on one BLAS thread, set for the
duration of the solve and restored afterwards.  The matrices are at most
4N+2 wide (98 at the default order), below the size where OpenBLAS gains
from threading.  In a serial planar sweep on 2 vCPUs, where Python work
separates the BLAS calls, one 98 x 98 generalized ``eigh`` averaged 8.3 ms
on two threads and 1.4 ms on one; in the process pool each worker's BLAS
threads also compete with the other workers for the cores.  The printed
values no longer depend on the host's core count either, since a threaded
BLAS sums in an order set by its thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError
from .geometry import ShellConfig

GRAM_CONDITION_CAP = 1e14  # mass-matrix directions below lambda_max / cap are dropped
ZERO_MODE_TOL = 1e-6
DEFAULT_ORDER = 24  # basis order N of every solve
DEFAULT_POINTS = 512  # trapezoid points m per circle
RESIDUAL_POINTS = 2048  # points per circle of the residual sample
GROUP_RTOL = 1e-8  # relative gap below which eigenvalues form one group
_MAPS = "/proc/self/maps"


def _thread_setter(lib):
    """lib's thread-count setter, returning the previous count; None if lib has none.

    OpenBLAS exports a get/set pair, named with numpy's and scipy's symbol
    prefix and suffix.
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

    The count is process-wide in OpenBLAS's pthreads builds, so solves run at
    once from several threads of one process can interleave their saves and
    restores and leave the process-wide count at 1.
    """
    setters = _openblas_thread_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


@dataclass(frozen=True)
class TrefftzBasis:
    """Harmonic trial fields on the annulus, polar about the inner center.

    kind "steklov": 1, log r, and r^(+-k) (cos, sin) for k = 1..max_order,
    4*max_order + 2 fields.  kind "dirichlet": the inner-trace-free
    combinations log(r/a) and r^k - a^(2k) r^-k (cos, sin), 2*max_order + 1
    fields.  scales (computed, not passed) holds the per-field sup normalization.
    """

    max_order: int
    a: float
    d: float
    kind: str
    scales: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("steklov", "dirichlet"):
            raise ValueError("basis kind must be 'steklov' or 'dirichlet'")
        object.__setattr__(self, "scales", self._sup_scales())

    @property
    def size(self) -> int:
        if self.kind == "steklov":
            return 4 * self.max_order + 2
        return 2 * self.max_order + 1

    def _sup_scales(self) -> np.ndarray:
        a, d, N = self.a, self.d, self.max_order
        scales = []
        if self.kind == "steklov":
            scales.append(1.0)               # constant
            scales.append(math.log(1.0 / a))  # log r, extremal on the inner circle
            for k in range(1, N + 1):
                up = (1.0 + d) ** k          # r^k, extremal on the outer circle
                down = a ** (-k)             # r^-k, extremal on the inner circle
                scales.extend((up, up, down, down))
        else:
            scales.append(math.log((1.0 + d) / a))
            for k in range(1, N + 1):
                s = (1.0 + d) ** k + a ** (2 * k) * (1.0 - d) ** (-k)
                scales.extend((s, s))
        return np.asarray(scales)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Field values at pts (npts x 2); returns (npts x size)."""
        z = pts[:, 0] + 1j * pts[:, 1]
        npts = len(z)
        out = np.empty((npts, self.size))
        col = 0
        if self.kind == "steklov":
            out[:, 0] = 1.0
            out[:, 1] = np.log(np.abs(z))
            col = 2
            zp = np.ones_like(z)
            zm = np.ones_like(z)
            for k in range(1, self.max_order + 1):
                zp = zp * z
                zm = zm / z
                out[:, col] = zp.real
                out[:, col + 1] = zp.imag
                out[:, col + 2] = zm.real
                out[:, col + 3] = zm.imag
                col += 4
        else:
            out[:, 0] = np.log(np.abs(z)) - math.log(self.a)
            col = 1
            zp = np.ones_like(z)
            zm = np.ones_like(z)
            for k in range(1, self.max_order + 1):
                zp = zp * z
                zm = zm / z
                # (r^k - a^2k r^-k) cos k0 = Re(z^k - a^2k z^-k), but the sin
                # combination flips sign: Im(z^-k) = -r^-k sin k0.
                ak = self.a ** (2 * k)
                out[:, col] = (zp - ak * zm).real
                out[:, col + 1] = (zp + ak * zm).imag
                col += 2
        return out / self.scales

    def normal_derivative(self, pts: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Outward normal derivatives at pts; returns (npts x size)."""
        z = pts[:, 0] + 1j * pts[:, 1]
        # For holomorphic f = u + iv: grad(u).n = Re(f' n_c), grad(v).n = Im(f' n_c)
        ncc = normals[:, 0] + 1j * normals[:, 1]
        npts = len(z)
        out = np.empty((npts, self.size))
        col = 0
        if self.kind == "steklov":
            out[:, 0] = 0.0
            out[:, 1] = ((1.0 / z) * ncc).real
            col = 2
            zp = np.ones_like(z)          # z^(k-1)
            zm = 1.0 / (z * z)            # z^(-k-1)
            for k in range(1, self.max_order + 1):
                fp = k * zp * ncc
                fm = -k * zm * ncc
                out[:, col] = fp.real
                out[:, col + 1] = fp.imag
                out[:, col + 2] = fm.real
                out[:, col + 3] = fm.imag
                col += 4
                zp = zp * z
                zm = zm / z
        else:
            out[:, 0] = ((1.0 / z) * ncc).real
            col = 1
            zp = np.ones_like(z)
            zm = 1.0 / (z * z)
            for k in range(1, self.max_order + 1):
                ak = self.a ** (2 * k)
                out[:, col] = (k * (zp + ak * zm) * ncc).real
                out[:, col + 1] = (k * (zp - ak * zm) * ncc).imag
                col += 2
                zp = zp * z
                zm = zm / z
        return out / self.scales


def _first_above(values: np.ndarray) -> int:
    """Index of the first (smallest) eigenvalue above ZERO_MODE_TOL."""
    above = np.flatnonzero(values > ZERO_MODE_TOL)
    if not above.size:
        raise NonConvergenceError("no eigenvalue above the zero-mode tolerance")
    return int(above[0])


@dataclass(frozen=True)
class EigResult:
    """Solver output: ascending eigenvalues, basis weights, diagnostics.

    mode is the index of the principal mode: sigma_1, the first eigenvalue
    above ZERO_MODE_TOL, for the Steklov problem (the zero mode of the
    constants comes first), and tau_1, the first eigenvalue, for the mixed
    problem.  principal and residual are computed when read, from the fields.
    The basis is the one asked for; len(eigenvalues) is the rank kept of it,
    and gram_condition is the mass matrix's condition over that rank.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    gram_condition: float
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


def boundary_points(geom: ShellConfig | TrefftzBasis, m: int):
    """Trapezoid sample of both boundary circles: (pts, normals, weights, is_outer).

    The circles are placed by geom's a and d, read from the configuration of
    a solve or from the basis of its result.
    """
    t = 2.0 * math.pi * np.arange(m) / m
    outer_pts = np.column_stack((geom.d + np.cos(t), np.sin(t)))
    outer_nrm = np.column_stack((np.cos(t), np.sin(t)))
    inner_pts = geom.a * np.column_stack((np.cos(t), np.sin(t)))
    inner_nrm = -np.column_stack((np.cos(t), np.sin(t)))
    pts = np.vstack((outer_pts, inner_pts))
    normals = np.vstack((outer_nrm, inner_nrm))
    weights = np.concatenate(
        (np.full(m, 2.0 * math.pi / m), np.full(m, 2.0 * math.pi * geom.a / m))
    )
    is_outer = np.concatenate((np.ones(m, dtype=bool), np.zeros(m, dtype=bool)))
    return pts, normals, weights, is_outer


def validate_problem_size(cfg: ShellConfig, N: int, m: int) -> None:
    if cfg.n != 2:
        raise ValueError("the boundary-Galerkin solver is planar: dimension must be 2")
    if N < 4:
        raise ValueError("basis order must be at least 4")
    if m < 8 * N:
        raise ValueError("need at least 8 boundary points per basis order")


@_one_blas_thread()
def _assemble(cfg: ShellConfig, N: int, m: int, kind: str, symmetrize: bool = True):
    """Basis, stiffness K and mass M of one boundary problem.

    K_ij = boundary integral of phi_i dphi_j/dn (equal to the volume energy
    form by harmonicity), M_ij = boundary integral of phi_i phi_j over the
    spectral part of the boundary: both circles for kind "steklov", the outer
    circle alone for kind "dirichlet", whose fields vanish on the inner one.
    """
    validate_problem_size(cfg, N, m)
    basis = TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
    pts, normals, weights, is_outer = boundary_points(cfg, m)
    if kind == "dirichlet":
        pts, normals, weights = pts[is_outer], normals[is_outer], weights[is_outer]
    B = basis.evaluate(pts)
    WB = B * weights[:, None]
    K = WB.T @ basis.normal_derivative(pts, normals)
    M = WB.T @ B
    if symmetrize:
        K = 0.5 * (K + K.T)
        M = 0.5 * (M + M.T)
    return basis, K, M


@_one_blas_thread()
def _solve(cfg: ShellConfig, N: int, m: int, kind: str) -> EigResult:
    """Solve K c = sigma M c on the directions of M that the basis resolves (LAPACK).

    M = V diag(lam) V^T; the directions with lam above lam_max /
    GRAM_CONDITION_CAP are kept, and with Q = V_keep lam_keep^(-1/2) the
    standard problem Q^T K Q y = sigma y gives the eigenvalues and the
    coefficients c = Q y.  The kept rank is len(eigenvalues) and the Gram
    condition is lam_max / lam_min over the kept directions.  The principal
    mode is the first nonzero one for kind "steklov" and the first one for
    kind "dirichlet".  Raises NonConvergenceError when LAPACK fails.
    """
    basis, K, M = _assemble(cfg, N, m, kind)
    try:
        lam, V = scipy.linalg.eigh(M, driver="evd")
        dropped = int(np.searchsorted(lam, lam[-1] / GRAM_CONDITION_CAP, side="right"))
        Q = V[:, dropped:] / np.sqrt(lam[dropped:])
        vals, Y = scipy.linalg.eigh(Q.T @ K @ Q, driver="evd")
    except scipy.linalg.LinAlgError as exc:
        raise NonConvergenceError("symmetric eigenvalue iteration failed") from exc
    mode = _first_above(vals) if kind == "steklov" else 0
    cond = float(lam[-1] / lam[dropped])
    return EigResult(eigenvalues=vals, coefficients=Q @ Y, gram_condition=cond, mode=mode, basis=basis)


def assemble_steklov(cfg: ShellConfig, N: int, m: int, symmetrize: bool = True):
    """Stiffness and mass matrices of the full-boundary spectral problem."""
    return _assemble(cfg, N, m, "steklov", symmetrize)[1:3]


def solve_steklov(cfg: ShellConfig, N: int = DEFAULT_ORDER, m: int = DEFAULT_POINTS) -> EigResult:
    """Spectrum of the eccentric annulus with the spectral condition on both circles.

    The zero eigenvalue (constants) is present; the first eigenvalue above
    the zero tolerance is the first nonzero Steklov value.
    """
    return _solve(cfg, N, m, "steklov")


def solve_dirichlet_steklov(
    cfg: ShellConfig, N: int = DEFAULT_ORDER, m: int = DEFAULT_POINTS
) -> EigResult:
    """Spectrum with zero trace on the inner circle, spectral condition outside.

    The basis combinations r^k - a^(2k) r^-k (and log(r/a) at order zero)
    vanish identically on the inner circle, so only the outer boundary enters
    the mass; the first eigenvalue is the first mixed eigenvalue.
    """
    return _solve(cfg, N, m, "dirichlet")


@_one_blas_thread()
def boundary_residual(result: EigResult, mode: int) -> float:
    """Max pointwise spectral-condition defect of one mode, RESIDUAL_POINTS per circle.

    |du/dn - sigma u| over the spectral part of the boundary (both circles,
    or the outer circle only for the mixed problem, where the inner trace
    defect |u| is folded in), normalized by the boundary sup of |u|.  The
    circles are those of the result's basis.
    """
    if not 0 <= mode < len(result.eigenvalues):
        raise ValueError("mode index out of range")
    basis, sigma, coeff = result.basis, result.eigenvalues[mode], result.coefficients[:, mode]
    pts, normals, _, is_outer = boundary_points(basis, RESIDUAL_POINTS)
    u = basis.evaluate(pts) @ coeff
    dn = basis.normal_derivative(pts, normals) @ coeff
    sup = float(np.max(np.abs(u))) + 1e-30
    if basis.kind == "steklov":
        defect = np.abs(dn - sigma * u)
    else:
        defect = np.abs(dn[is_outer] - sigma * u[is_outer])
        defect = np.concatenate((defect, np.abs(u[~is_outer])))
    return float(np.max(defect)) / sup


def solve_with_order_fallback(
    cfg: ShellConfig,
    N: int = DEFAULT_ORDER,
    m: int = DEFAULT_POINTS,
    problem: str = "steklov",
) -> EigResult:
    """The direct solve of problem ("steklov" or "dirichlet-steklov").

    An alias kept for the callers that look it up by this name: the
    benchmark's residual metric and its tracer (``perfbench/``).
    """
    if problem not in ("steklov", "dirichlet-steklov"):
        raise ValueError("problem must be 'steklov' or 'dirichlet-steklov'")
    fn = solve_steklov if problem == "steklov" else solve_dirichlet_steklov
    return fn(cfg, N=N, m=m)


def group_eigenvalues(values) -> list[tuple[float, int]]:
    """Cluster an ascending eigenvalue list into (value, multiplicity) groups."""
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(v - groups[-1][-1]) <= GROUP_RTOL * max(1.0, abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups]
