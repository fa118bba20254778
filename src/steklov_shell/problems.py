"""The eigenvalue problems of the package, one record per problem.

``PROBLEMS`` maps each ``--problem`` name of the CLI to its record: the label
printed for its first eigenvalue, its concentric closed form, its Rayleigh
bound (``rayleigh.surface_bound``'s value: the sweep's column and verify's
bound checks), the ``(field, value)`` terms ``bound`` prints (the paper's
adaptive breakdown, the bound last) and its planar solve.  The CLI and
``verify`` read this table instead of switching on the name.  Each function
is looked up on its module when it is called, so a patched or traced module
function is the one that runs, and passes on only the keywords its caller
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import rayleigh, shell_spectrum, solver


@dataclass(frozen=True)
class Problem:
    label: str
    closed_form: Callable[[int, float], float]  # (n, a)
    bound: Callable[..., float]  # (cfg, *, tol)
    breakdown: Callable[..., list[tuple[str, float]]]  # (cfg, *, tol); the bound last
    solve: Callable[..., solver.EigResult]  # (cfg); planar only


def _steklov_breakdown(cfg, **tol) -> list[tuple[str, float]]:
    b = rayleigh.steklov_bound(cfg, **tol)
    return [("mu", b.mu), ("w1", b.W1), ("w2", b.W2), ("w3", b.W3), ("v1", b.V1), ("v2", b.V2),
            ("v3", b.V3), ("i_n", b.In), ("inner_mass", b.inner_mass), ("energy", b.energy),
            ("boundary_mass", b.boundary_mass), ("bound", b.bound)]


def _ds_breakdown(cfg, **tol) -> list[tuple[str, float]]:
    energy = rayleigh.ds_energy(cfg, **tol)
    mass = rayleigh.ds_boundary_mass(cfg, **tol)
    return [("energy", energy), ("boundary_mass", mass), ("bound", rayleigh.quotient(energy, mass))]


PROBLEMS = {
    "steklov": Problem(
        label="sigma1",
        closed_form=lambda n, a: shell_spectrum.sigma1_closed_form(n, a),
        bound=lambda cfg, **tol: rayleigh.surface_bound(cfg, "steklov", **tol).value,
        breakdown=_steklov_breakdown,
        solve=lambda cfg: solver.solve_steklov(cfg),
    ),
    "dirichlet-steklov": Problem(
        label="tau1",
        closed_form=lambda n, a: shell_spectrum.tau1_closed_form(n, a),
        bound=lambda cfg, **tol: rayleigh.surface_bound(cfg, "dirichlet", **tol).value,
        breakdown=_ds_breakdown,
        solve=lambda cfg: solver.solve_dirichlet_steklov(cfg),
    ),
}
