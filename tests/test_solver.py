"""Planar boundary-Galerkin eigensolver."""

import ctypes
import dataclasses
import gc
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from steklov_shell import cli, rayleigh, solver
from steklov_shell import shell_spectrum as sp
from steklov_shell.errors import NonConvergenceError
from steklov_shell.geometry import ShellConfig

def _first_above_zero_mode_tol(res) -> float:
    """The first eigenvalue above ZERO_MODE_TOL, found without the solver's help."""
    return float(next(v for v in res.eigenvalues if v > solver.ZERO_MODE_TOL))


# problem -> (direct solve, principal eigenvalue of its result, concentric value)
PROBLEMS = {
    "steklov": (solver.solve_steklov, _first_above_zero_mode_tol, sp.sigma1_closed_form),
    "dirichlet-steklov": (
        solver.solve_dirichlet_steklov,
        lambda res: float(res.eigenvalues[0]),
        sp.tau1_closed_form,
    ),
}


class TestAssembly:
    def test_constant_row_is_zero(self):
        K, _ = solver.assemble_steklov(ShellConfig(2, 0.5, 0.2), N=8, m=128)
        assert np.max(np.abs(K[0])) < 1e-12

    def test_symmetry_defect_before_symmetrization(self):
        K, _ = solver.assemble_steklov(
            ShellConfig(2, 0.5, 0.3), N=20, m=400, symmetrize=False
        )
        assert np.max(np.abs(K - K.T)) < 1e-9

    def test_concentric_modes_decouple(self):
        # zero offset: distinct trig orders are orthogonal in both forms
        K, M = solver.assemble_steklov(ShellConfig(2, 0.5, 0.0), N=6, m=128)
        basis = solver.TrefftzBasis(max_order=6, a=0.5, d=0.0, kind="steklov")
        for i in range(basis.size):
            for j in range(basis.size):
                # columns 2 + 4(k-1) .. are order k; 0,1 are order zero
                oi = 0 if i < 2 else (i - 2) // 4 + 1
                oj = 0 if j < 2 else (j - 2) // 4 + 1
                if oi != oj:
                    assert abs(M[i, j]) < 1e-12
                    assert abs(K[i, j]) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            solver.assemble_steklov(ShellConfig(3, 0.5, 0.0), N=8, m=128)
        with pytest.raises(ValueError):
            solver.assemble_steklov(ShellConfig(2, 0.5, 0.0), N=2, m=128)
        with pytest.raises(ValueError):
            solver.assemble_steklov(ShellConfig(2, 0.5, 0.0), N=8, m=32)


class TestSteklovSolve:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_concentric_matches_closed_form(self, a):
        res = solver.solve_steklov(ShellConfig(2, a, 0.0), N=24, m=512)
        assert res.principal == pytest.approx(sp.sigma1_closed_form(2, a), abs=1e-8)

    def test_zero_mode_present(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0), N=24, m=512)
        assert abs(res.eigenvalues[0]) < 1e-9

    def test_first_mode_numerically_double(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0), N=24, m=512)
        first = res.principal
        close = [v for v in res.eigenvalues if abs(v - first) <= 1e-8]
        assert len(close) == 2

    def test_spectrum_below_delta0_reproduced(self):
        a = 0.5
        res = solver.solve_steklov(ShellConfig(2, a, 0.0), N=24, m=512)
        d0 = sp.delta0(2, a)
        exact = []
        for e in sp.spectrum(2, a, 24):
            if 0 < e.value < d0 - 1e-9:
                exact.extend([e.value] * e.multiplicity)
        got = [v for v in res.eigenvalues if 1e-6 < v < d0 - 1e-9]
        assert len(got) == len(exact)
        np.testing.assert_allclose(np.sort(got), np.sort(exact), atol=1e-7)

    def test_monotone_decreasing_offset(self):
        vals = []
        for d in np.linspace(0.0, 0.4, 9):
            res = solver.solve_steklov(ShellConfig(2, 0.5, float(d)), N=24, m=512)
            vals.append(res.principal)
        assert np.all(np.diff(vals) < 0)

    def test_below_rayleigh_bound(self):
        for d in (0.1, 0.25, 0.4):
            cfg = ShellConfig(2, 0.5, d)
            res = solver.solve_steklov(cfg, N=24, m=512)
            assert res.principal <= rayleigh.steklov_bound(cfg).bound + 1e-8

    def test_residual_small_at_moderate_offset(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3), N=24, m=512)
        assert res.residual < 1e-6

    def test_residual_tiny_concentric(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0), N=24, m=512)
        assert res.residual < 1e-7

    def test_residual_improves_with_order(self):
        cfg = ShellConfig(2, 0.5, 0.3)
        r8 = solver.solve_steklov(cfg, N=8, m=128).residual
        r24 = solver.solve_steklov(cfg, N=24, m=512).residual
        assert r24 < r8

    def test_points_invariance(self):
        cfg = ShellConfig(2, 0.5, 0.2)
        s1 = solver.solve_steklov(cfg, N=16, m=256).principal
        s2 = solver.solve_steklov(cfg, N=16, m=512).principal
        assert s1 == pytest.approx(s2, abs=1e-8)

    def test_spectral_convergence(self):
        cfg = ShellConfig(2, 0.5, 0.2)
        s8 = solver.solve_steklov(cfg, N=8, m=128).principal
        s16 = solver.solve_steklov(cfg, N=16, m=256).principal
        s32 = solver.solve_steklov(cfg, N=32, m=512).principal
        assert abs(s8 - s16) >= 10 * abs(s16 - s32)

    def test_dependent_high_order_is_truncated(self):
        # Order 200 is far past the rank the boundary resolves at (0.5, 0.3):
        # the dependent directions are dropped, and the principal eigenvalue
        # is the order-24 one.
        cfg = ShellConfig(2, 0.5, 0.3)
        for solve, principal, _ in PROBLEMS.values():
            res = solve(cfg, N=200, m=1600)
            assert len(res.eigenvalues) < res.basis.size
            assert res.gram_condition <= solver.GRAM_CONDITION_CAP
            assert principal(res) == pytest.approx(principal(solve(cfg, N=24, m=512)), abs=1e-10)

    def test_eigensolver_failure_is_nonconvergence(self, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        for solve, _, _ in PROBLEMS.values():
            with pytest.raises(NonConvergenceError):
                solve(ShellConfig(2, 0.5, 0.3), N=8, m=128)

    def test_order_fallback_keeps_the_points(self):
        # Every order is solved on the points asked for, so too few raise as
        # they do for a direct solve.
        cfg = ShellConfig(2, 0.5, 0.3)
        for problem in PROBLEMS:
            with pytest.raises(ValueError):
                solver.solve_with_order_fallback(cfg, N=24, m=100, problem=problem)

    def test_small_hole_solves_on_the_kept_rank(self):
        # At (0.2, 0.7) the order-24 basis has numerically dependent
        # directions; the direct solve drops them instead of refusing.
        cfg = ShellConfig(2, 0.2, 0.7)
        for solve, principal, concentric in PROBLEMS.values():
            res = solve(cfg, N=24, m=512)
            assert res.basis.max_order == 24
            assert len(res.eigenvalues) < res.basis.size
            assert res.coefficients.shape == (res.basis.size, len(res.eigenvalues))
            assert 1.0 <= res.gram_condition <= solver.GRAM_CONDITION_CAP
            assert 0 < principal(res) < concentric(2, 0.2)

    def test_order_fallback_is_the_direct_solve(self):
        # The call the benchmark's residual metric makes.
        cfg = ShellConfig(2, 0.15, 0.8075)
        for problem, (solve, _, _) in PROBLEMS.items():
            alias = solver.solve_with_order_fallback(cfg, N=24, m=512, problem=problem)
            direct = solve(cfg, N=24, m=512)
            assert np.array_equal(alias.eigenvalues, direct.eigenvalues)
            assert alias.residual == direct.residual

    def test_order_fallback_leaves_no_reference_cycle(self):
        # A solve leaves nothing for the cyclic collector, even where the
        # basis is truncated, and it solves the order asked for.
        cfg = ShellConfig(2, 0.2, 0.7)
        gc.collect()
        gc.disable()
        try:
            orders = [
                solver.solve_with_order_fallback(cfg, problem=problem).basis.max_order
                for problem in PROBLEMS
            ]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert orders == [24, 24]
        assert unreachable == 0


class TestMixedSolve:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_concentric_matches_radial_profile(self, a):
        # flux over trace of log(r/a) at the outer circle
        res = solver.solve_dirichlet_steklov(ShellConfig(2, a, 0.0), N=24, m=512)
        assert float(res.eigenvalues[0]) == pytest.approx(1 / math.log(1 / a), abs=1e-8)

    def test_all_eigenvalues_positive(self):
        res = solver.solve_dirichlet_steklov(ShellConfig(2, 0.5, 0.2), N=24, m=512)
        assert np.all(res.eigenvalues > 0)

    def test_monotone_decreasing_offset(self):
        vals = []
        for d in np.linspace(0.0, 0.4, 9):
            res = solver.solve_dirichlet_steklov(ShellConfig(2, 0.5, float(d)), N=24, m=512)
            vals.append(float(res.eigenvalues[0]))
        assert np.all(np.diff(vals) < 0)

    def test_below_mixed_bound(self):
        for d in (0.1, 0.3):
            cfg = ShellConfig(2, 0.5, d)
            res = solver.solve_dirichlet_steklov(cfg, N=24, m=512)
            assert float(res.eigenvalues[0]) <= rayleigh.ds_bound(cfg) + 1e-8

    def test_inner_trace_vanishes(self):
        basis = solver.TrefftzBasis(max_order=10, a=0.4, d=0.3, kind="dirichlet")
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = 0.4 * np.column_stack((np.cos(t), np.sin(t)))
        vals = basis.evaluate(pts)
        assert np.max(np.abs(vals)) < 1e-13


class TestDiagnostics:
    def test_boundary_residual_of_constant_mode(self):
        cfg = ShellConfig(2, 0.5, 0.0)
        res = solver.solve_steklov(cfg, N=12, m=256)
        assert solver.boundary_residual(res, 0) < 1e-9

    def test_boundary_residual_rejects_bad_mode(self):
        cfg = ShellConfig(2, 0.5, 0.0)
        res = solver.solve_steklov(cfg, N=8, m=128)
        with pytest.raises(ValueError):
            solver.boundary_residual(res, 99999)

    def test_group_eigenvalues(self):
        groups = solver.group_eigenvalues([0.0, 1.0, 1.0 + 1e-10, 2.5])
        assert [c for _, c in groups] == [1, 2, 1]

    def test_gram_condition_reported(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.1), N=16, m=256)
        assert 1.0 <= res.gram_condition < 1e14

    def test_basis_scales_are_not_a_constructor_argument(self):
        # The sup normalization is computed from the other fields, never passed.
        with pytest.raises(TypeError):
            solver.TrefftzBasis(max_order=4, a=0.5, d=0.0, kind="steklov", scales=np.ones(18))


class TestPrincipalMode:
    @pytest.mark.parametrize("problem", list(PROBLEMS))
    @pytest.mark.parametrize("a, d, fallback", [(0.5, 0.3, False), (0.2, 0.7, True)])
    def test_principal_and_its_residual(self, problem, a, d, fallback):
        cfg = ShellConfig(2, a, d)
        solve, principal, _ = PROBLEMS[problem]
        if fallback:
            res = solver.solve_with_order_fallback(cfg, N=24, m=512, problem=problem)
        else:
            res = solve(cfg, N=24, m=512)
        assert type(res.principal) is float
        assert res.principal == principal(res)
        assert res.principal == res.eigenvalues[res.mode]
        assert res.mode == (1 if problem == "steklov" else 0)
        assert res.residual == solver.boundary_residual(res, res.mode)

    def test_eigenvalue_at_the_tolerance_is_not_principal(self, monkeypatch):
        # The principal mode is strictly above ZERO_MODE_TOL.  The second
        # eigh call is the reduced standard problem, the first the mass matrix.
        eigh, calls = scipy.linalg.eigh, []

        def tied(A, **kwargs):
            vals, vecs = eigh(A, **kwargs)
            calls.append(A)
            if len(calls) == 2:
                vals[1] = solver.ZERO_MODE_TOL
            return vals, vecs

        monkeypatch.setattr(scipy.linalg, "eigh", tied)
        cfg = ShellConfig(2, 0.5, 0.3)
        res = solver.solve_steklov(cfg, N=8, m=128)
        assert res.mode == 2
        assert res.principal == _first_above_zero_mode_tol(res) == res.eigenvalues[2]
        assert res.residual == solver.boundary_residual(res, 2)


class TestDerivedFields:
    def test_result_holds_only_what_the_solve_produced(self):
        names = [f.name for f in dataclasses.fields(solver.EigResult)]
        assert names == ["eigenvalues", "coefficients", "gram_condition", "mode", "basis"]
        assert not hasattr(solver.EigResult, "first_nonzero")
        assert not hasattr(solver.EigResult, "n_points")
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3), N=8, m=128)
        for name in ("principal", "residual"):
            with pytest.raises(AttributeError):
                setattr(res, name, 0.0)

    def test_a_residual_is_computed_only_when_read(self, capsys, monkeypatch):
        def unread(result, mode):
            raise AssertionError("boundary_residual called")

        monkeypatch.setattr(solver, "boundary_residual", unread)
        cfg = ShellConfig(2, 0.5, 0.3)
        res = solver.solve_steklov(cfg)
        assert res.principal == res.eigenvalues[1]
        for problem in PROBLEMS:
            solver.solve_with_order_fallback(cfg, problem=problem)
        code = cli.main(["sweep", "--problem", "steklov", "--dim", "2", "--a", "0.5",
                         "--d-steps", "3", "--jobs", "1"])
        assert code == 0
        with pytest.raises(AssertionError, match="boundary_residual called"):
            res.residual

    def test_residual_takes_the_geometry_from_the_result(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3), N=8, m=128)
        with pytest.raises(TypeError):
            solver.boundary_residual(res, ShellConfig(2, 0.5, 0.1), 1)


def _blas_paths() -> list:
    """Paths of the loaded OpenBLAS libraries, found without the solver's help."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    fields = [line.split(maxsplit=5) for line in lines]
    return sorted({os.fsdecode(f[5]) for f in fields if len(f) == 6 and b"openblas" in f[5].rsplit(b"/", 1)[-1]})


def _blas_thread_getters() -> list:
    """Thread-count getters of the loaded OpenBLAS libraries."""
    getters = []
    for path in _blas_paths():
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                getters.append(get)
                break
    return getters


class TestBlasThreads:
    def test_solve_runs_on_one_thread_and_restores_the_count(self, monkeypatch):
        getters = _blas_thread_getters()
        if not getters:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get in getters]
        during = []
        eigh = scipy.linalg.eigh

        def recording_eigh(*args, **kwargs):
            during.append([get() for get in getters])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
        cfg = ShellConfig(2, 0.5, 0.3)
        solver.solve_steklov(cfg, N=8, m=128)
        assert [get() for get in getters] == before
        solver.assemble_steklov(cfg, N=8, m=128)
        assert [get() for get in getters] == before
        for solve, _, _ in PROBLEMS.values():
            res = solve(ShellConfig(2, 0.2, 0.7), N=24, m=512)
            assert len(res.eigenvalues) < res.basis.size
            assert [get() for get in getters] == before
        # Two eigh calls per solve: the mass matrix, then the reduced problem.
        assert during == [[1] * len(getters)] * 6

    def test_thread_setter_uses_get_set_pair(self):
        count = [4]

        def get():
            return count[0]

        def put(n):
            count[0] = n

        lib = SimpleNamespace(scipy_openblas_get_num_threads64_=get,
                              scipy_openblas_set_num_threads64_=put)
        swap = solver._thread_setter(lib)
        assert swap(1) == 4 and count == [1]
        assert swap(4) == 1 and count == [4]
        assert solver._thread_setter(SimpleNamespace()) is None

    def test_unusual_maps_lines_do_not_break_a_solve(self, monkeypatch, tmp_path):
        # Library paths with a space, a " (deleted)" mark, a name that is not
        # valid UTF-8, and a mapping with no path at all.
        getters = _blas_thread_getters()
        if not getters:
            pytest.skip("no OpenBLAS loaded")
        spaced = tmp_path / "My Projects"
        spaced.mkdir()
        links = []
        for path in _blas_paths():
            link = spaced / os.path.basename(path)
            link.symlink_to(path)
            links.append(str(link))
        maps = b"".join(
            b"7f0000000000-7f0000001000 r-xp 00000000 08:01 1    " + os.fsencode(link) + b"\n"
            for link in links
        ) + (
            b"7f0000002000-7f0000003000 r-xp 00000000 08:01 2    /gone/libscipy_openblas-0.so (deleted)\n"
            b"7f0000004000-7f0000005000 r--p 00000000 08:01 3    /data/caf\xe9/libopenblas.so\n"
            b"7f0000006000-7f0000007000 rw-p 00000000 00:00 0\n"
        )
        assert solver._openblas_paths(maps) == sorted(
            links + ["/gone/libscipy_openblas-0.so (deleted)", os.fsdecode(b"/data/caf\xe9/libopenblas.so")]
        )
        maps_file = tmp_path / "maps"
        maps_file.write_bytes(maps)
        monkeypatch.setattr(solver, "_MAPS", str(maps_file))
        solver._openblas_thread_setters.cache_clear()
        try:
            # The links reopen the loaded libraries; the other two paths are skipped.
            assert len(solver._openblas_thread_setters()) == len(links)
            before = [get() for get in getters]
            res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3), N=8, m=128)
            assert math.isfinite(res.eigenvalues[0])
            assert [get() for get in getters] == before
        finally:
            solver._openblas_thread_setters.cache_clear()
