"""Planar eigensolver for eccentric annuli via a harmonic Laurent basis.

Global trial functions {1, log r} and {r^k, r^-k} x {cos k0, sin k0},
centered at the inner circle's center, are all exactly harmonic on the
annulus, so the energy form reduces to boundary integrals by Green's
identity and only boundary quadrature is needed.  Both circles are sampled
with the periodic trapezoid rule, which is spectrally accurate here.

The hole is offset along the x axis, so the annulus is symmetric under the
mirror y -> -y.  The fields 1, log r and r^(+-k) cos k0 are even under it and
r^(+-k) sin k0 are odd, so every even-odd product integrates to zero over the
boundary and the stiffness and mass matrices are block diagonal: each solve
is two independent problems, an even family of 2N+2 fields and an odd family
of 2N (N+1 and N for the mixed problem), 50 and 48 wide at the default order
instead of one problem 4N+2 = 98 wide.  Each family is assembled on the upper
half of each circle, the trapezoid nodes 2 pi j / m for j = 0..m//2 with the
weight halved on the nodes on the axis, and the sum doubled, which equals
the full-circle rule exactly for the mirror-even products it integrates.

Fields are rescaled so their sup over the whole boundary is 1; without that
the r^(+-k) dynamic range between the two circles destroys the mass matrix
long before the basis stops improving.  Even so, at large orders or small
holes some combinations of the fields are numerically dependent on the
boundary.  Each solve drops the eigen-directions of the mass matrix below
1/GRAM_CONDITION_CAP of its largest eigenvalue, taken over both families, and
solves the reduced standard problem on the rest (Fix & Heiberger, SIAM J.
Numer. Anal. 9, 1972), so every order asked for is solved once, on the rank
it supports.

Every dense BLAS/LAPACK call here (the assembly products, the four symmetric
eigensolves -- each family's mass matrix and reduced problem -- and the
residual products) runs on one BLAS thread, set for the duration of the
solve and restored afterwards.  The family matrices are at most 2N+2 wide,
far below the size where OpenBLAS gains from threading.  In a serial planar
sweep on 2 vCPUs (a = 0.3, 21 offsets, OpenBLAS 0.3.31), the four standard
``eigh`` calls of a solve, on matrices at most 50 wide, took 2.0-2.3 ms per
solve on one thread and 2.2-2.5 ms on two (medians of five runs each); in
the fanned-out sweep each process's BLAS threads would also compete with the
others for the cores.  The printed values no longer depend on the host's core count
either, since a threaded BLAS sums in an order set by its thread count.

The count is set only when it is not already 1, because OpenBLAS's setter
starts the library's thread server whenever that server is down, whatever
count it is given.  In a freshly forked process the server is down, and one
set_num_threads(1) per library (numpy and scipy each bundle one) started a
server thread that spun for 0.06-0.13 s of CPU before sleeping: 0.18 s per
forked process on 2 vCPUs, more than that process's share of a default
21-row sweep cost in solves.  An offset sweep therefore forks its child processes with
``os.fork`` inside one single-thread scope (``cli._fan_out``), so they
inherit a count of 1, every per-solve scope in them is a no-op, and they
never start a BLAS thread; a test in ``tests/test_cli.py`` counts a forked
child's threads to catch a regression.  The sweep forks only on Linux, and
elsewhere runs its rows in process.
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

    @property
    def odd(self) -> np.ndarray:
        """Mask of the fields odd under the mirror y -> -y (the sin k0 ones)."""
        if self.kind == "steklov":
            return np.array([False, False] + [False, True, False, True] * self.max_order)
        return np.array([False] + [False, True] * self.max_order)

    @property
    def families(self) -> tuple[np.ndarray, np.ndarray]:
        """Column indices of the even family, then of the odd family."""
        return np.flatnonzero(~self.odd), np.flatnonzero(self.odd)

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
        N = self.max_order
        zp = _power_rows(np.ones_like(z), z, N + 1, np.multiply)[1:]  # z^k
        zm = _power_rows(np.ones_like(z), z, N + 1, np.divide)[1:]  # z^-k
        out = np.empty((len(z), self.size))
        if self.kind == "steklov":
            out[:, 0] = 1.0
            out[:, 1] = np.log(np.abs(z))
            out[:, 2::4] = zp.real.T
            out[:, 3::4] = zp.imag.T
            out[:, 4::4] = zm.real.T
            out[:, 5::4] = zm.imag.T
        else:
            # (r^k - a^2k r^-k) cos k0 = Re(z^k - a^2k z^-k), but the sin
            # combination flips sign: Im(z^-k) = -r^-k sin k0.
            zm *= self._inner_weights()  # a^2k z^-k
            out[:, 0] = np.log(np.abs(z)) - math.log(self.a)
            out[:, 1::2] = (zp - zm).real.T
            zp += zm
            out[:, 2::2] = zp.imag.T
        out /= self.scales
        return out

    def normal_derivative(self, pts: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Outward normal derivatives at pts; returns (npts x size)."""
        z = pts[:, 0] + 1j * pts[:, 1]
        # For holomorphic f = u + iv: grad(u).n = Re(f' n_c), grad(v).n = Im(f' n_c)
        ncc = normals[:, 0] + 1j * normals[:, 1]
        N = self.max_order
        k = np.arange(1, N + 1)[:, None]
        zp = _power_rows(np.ones_like(z), z, N, np.multiply)  # z^(k-1)
        zm = _power_rows(1.0 / (z * z), z, N, np.divide)  # z^(-k-1)
        out = np.empty((len(z), self.size))
        # The products are formed in place to keep the temporaries to zp and zm.
        if self.kind == "steklov":
            zp *= k
            zp *= ncc  # (z^k)' n
            zm *= -k
            zm *= ncc  # (z^-k)' n
            out[:, 0] = 0.0
            out[:, 1] = ((1.0 / z) * ncc).real
            out[:, 2::4] = zp.real.T
            out[:, 3::4] = zp.imag.T
            out[:, 4::4] = zm.real.T
            out[:, 5::4] = zm.imag.T
        else:
            zm *= self._inner_weights()
            plus = zp + zm
            zp -= zm
            for f in (plus, zp):
                f *= k
                f *= ncc  # (z^k +- a^2k z^-k)' n
            out[:, 0] = ((1.0 / z) * ncc).real
            out[:, 1::2] = plus.real.T
            out[:, 2::2] = zp.imag.T
        out /= self.scales
        return out

    def _inner_weights(self) -> np.ndarray:
        """Column of a^(2k), k = 1..max_order, pairing r^k with r^-k in the mixed fields."""
        return np.array([self.a ** (2 * k) for k in range(1, self.max_order + 1)])[:, None]


def _power_rows(first: np.ndarray, z: np.ndarray, count: int, op) -> np.ndarray:
    """Rows first, op(first, z), op(op(first, z), z), ...: count rows in all."""
    rows = np.empty((count, len(z)), dtype=complex)
    rows[0] = first
    for k in range(1, count):
        op(rows[k - 1], z, out=rows[k])
    return rows


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
    and gram_condition is the mass matrix's condition over that rank.  Each
    eigenvector belongs to one mirror family: its coefficients are zero on
    the other family's rows (see family_of).
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

    @property
    def family(self) -> str:
        """Mirror family of the principal mode, "even" or "odd"."""
        return self.family_of(self.mode)

    def family_of(self, mode: int) -> str:
        """"odd" if the mode's coefficients are on the odd family's rows, else "even"."""
        return "odd" if np.any(self.coefficients[self.basis.odd, mode]) else "even"


def boundary_points(geom: ShellConfig | TrefftzBasis, m: int, half: bool = False):
    """Trapezoid sample of both boundary circles: (pts, normals, weights, is_outer).

    The circles are placed by geom's a and d, read from the configuration of
    a solve or from the basis of its result.  With half=True only the nodes
    2 pi j / m with j = 0..m//2, on the upper half of each circle, are kept,
    weighted so that the sum of a mirror-even integrand over them is its
    full-circle trapezoid sum: double weight, single on the axis nodes
    (j = 0, and j = m/2 for even m).
    """
    j = np.arange(m // 2 + 1 if half else m)
    t = 2.0 * math.pi * j / m
    share = np.where((j == 0) | (2 * j == m), 1.0, 2.0) if half else np.ones(m)
    outer_pts = np.column_stack((geom.d + np.cos(t), np.sin(t)))
    outer_nrm = np.column_stack((np.cos(t), np.sin(t)))
    inner_pts = geom.a * np.column_stack((np.cos(t), np.sin(t)))
    inner_nrm = -np.column_stack((np.cos(t), np.sin(t)))
    pts = np.vstack((outer_pts, inner_pts))
    normals = np.vstack((outer_nrm, inner_nrm))
    weights = np.concatenate((share * (2.0 * math.pi / m), share * (2.0 * math.pi * geom.a / m)))
    is_outer = np.concatenate((np.ones(len(t), dtype=bool), np.zeros(len(t), dtype=bool)))
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
    """Basis and the (K, M) blocks of its even and odd families, in that order.

    K_ij = boundary integral of phi_i dphi_j/dn (equal to the volume energy
    form by harmonicity), M_ij = boundary integral of phi_i phi_j over the
    spectral part of the boundary: both circles for kind "steklov", the outer
    circle alone for kind "dirichlet", whose fields vanish on the inner one.
    Both fields of an entry are in one family, so the integrand is
    mirror-even and the half-circle sample integrates it.
    """
    validate_problem_size(cfg, N, m)
    basis = TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
    pts, normals, weights, is_outer = boundary_points(cfg, m, half=True)
    if kind == "dirichlet":
        pts, normals, weights = pts[is_outer], normals[is_outer], weights[is_outer]
    B = basis.evaluate(pts)
    D = basis.normal_derivative(pts, normals)
    blocks = []
    for cols in basis.families:
        WB = B[:, cols] * weights[:, None]
        K = WB.T @ D[:, cols]
        M = WB.T @ B[:, cols]
        if symmetrize:
            K = 0.5 * (K + K.T)
            M = 0.5 * (M + M.T)
        blocks.append((K, M))
    return basis, blocks


@_one_blas_thread()
def _solve(cfg: ShellConfig, N: int, m: int, kind: str) -> EigResult:
    """Solve K c = sigma M c on the directions of M that the basis resolves (LAPACK).

    Per family, M = V diag(lam) V^T.  The directions with lam above
    lam_max / GRAM_CONDITION_CAP, lam_max taken over both families, are
    kept, and with Q = V_keep lam_keep^(-1/2) the standard problem
    Q^T K Q y = sigma y gives the family's eigenvalues and coefficients
    c = Q y, placed on the family's rows.  The two spectra are merged in
    ascending order (a stable sort, even family first on ties).  The kept
    rank is len(eigenvalues) and the Gram condition is lam_max / lam_min over
    the kept directions.  The principal mode is the first nonzero one for
    kind "steklov" and the first one for kind "dirichlet".  Raises
    NonConvergenceError when LAPACK fails.
    """
    basis, blocks = _assemble(cfg, N, m, kind)
    try:
        spectra = [scipy.linalg.eigh(M, driver="evd") for _, M in blocks]
        lam_max = max(lam[-1] for lam, _ in spectra)
        floor = lam_max / GRAM_CONDITION_CAP
        vals, coeffs, lam_min = [], [], lam_max
        for rows, (K, _), (lam, V) in zip(basis.families, blocks, spectra):
            dropped = int(np.searchsorted(lam, floor, side="right"))
            Q = V[:, dropped:] / np.sqrt(lam[dropped:])
            family_vals, Y = scipy.linalg.eigh(Q.T @ K @ Q, driver="evd")
            family_coeffs = np.zeros((basis.size, len(family_vals)))
            family_coeffs[rows] = Q @ Y
            vals.append(family_vals)
            coeffs.append(family_coeffs)
            lam_min = min(lam_min, lam[dropped:].min(initial=lam_max))
    except scipy.linalg.LinAlgError as exc:
        raise NonConvergenceError("symmetric eigenvalue iteration failed") from exc
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    mode = _first_above(vals[order]) if kind == "steklov" else 0
    return EigResult(
        eigenvalues=vals[order],
        coefficients=np.hstack(coeffs)[:, order],
        gram_condition=float(lam_max / lam_min),
        mode=mode,
        basis=basis,
    )


def assemble_steklov(cfg: ShellConfig, N: int, m: int, symmetrize: bool = True):
    """Stiffness and mass matrices of the full-boundary spectral problem.

    The family blocks placed on their rows and columns of the basis; the
    blocks between the two families are zero by the mirror symmetry.
    """
    basis, blocks = _assemble(cfg, N, m, "steklov", symmetrize)
    K, M = np.zeros((basis.size, basis.size)), np.zeros((basis.size, basis.size))
    for cols, (Kf, Mf) in zip(basis.families, blocks):
        K[np.ix_(cols, cols)] = Kf
        M[np.ix_(cols, cols)] = Mf
    return K, M


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
