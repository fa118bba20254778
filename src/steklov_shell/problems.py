"""The eigenvalue problems of the package, one record per problem.

``PROBLEMS`` maps each ``--problem`` name of the CLI to its record: the label
printed for its first eigenvalue, its concentric closed form, its Rayleigh
bound and its planar solve.  The CLI and ``verify`` read this table instead
of switching on the name.  Each function is looked up on its module when it
is called, not when this module is imported, so a patched or traced module
function is the one that runs; ``bound`` and ``solve`` pass on only the
keywords their caller gives.
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
    solve: Callable[..., solver.EigResult]  # (cfg, *, N, m); planar only


PROBLEMS = {
    "steklov": Problem(
        label="sigma1",
        closed_form=lambda n, a: shell_spectrum.sigma1_closed_form(n, a),
        bound=lambda cfg, **tol: rayleigh.steklov_bound(cfg, **tol).bound,
        solve=lambda cfg, **sizes: solver.solve_steklov(cfg, **sizes),
    ),
    "dirichlet-steklov": Problem(
        label="tau1",
        closed_form=lambda n, a: shell_spectrum.tau1_closed_form(n, a),
        bound=lambda cfg, **tol: rayleigh.ds_bound(cfg, **tol),
        solve=lambda cfg, **sizes: solver.solve_dirichlet_steklov(cfg, **sizes),
    ),
}
