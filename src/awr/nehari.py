"""Schwarzian derivative and certification of the Nehari bound.

The certifier samples the scaled Schwarzian (1 - |z|^2)^2 |Sf(z)| on a
polar grid, refines the largest value with golden-section passes in
angle and radius, and reports whether the supremum stays below 2 within
tolerance.  Maps built from the strip attain the bound along an entire
curve, so their report shows a supremum of 2 rather than a strict gap.
"""

from __future__ import annotations

import numpy as np

from .evaluate import jet_eval
from .expr import MapExpr
from .grids import CERT_ANGLES, CERT_RINGS, GridMeta, at_polar, grid_points, polar, refine_on_grid
from .jets import extremum
from .record import Record

NEHARI_TOL = 1e-9


def schwarzian_jet(j) -> complex:
    """Schwarzian from a third-order jet: f'''/f' - (3/2)(f''/f')^2."""
    ratio = j.f2 / j.f1
    return j.f3 / j.f1 - 1.5 * ratio * ratio


def schwarzian(expr: MapExpr, z):
    """Schwarzian derivative at z (scalar or array)."""
    return schwarzian_jet(jet_eval(expr, z))


def nehari_functional(expr: MapExpr, z):
    """(1 - |z|^2)^2 |Sf(z)|, bounded by 2 on the class; NaN where the jet is masked."""
    with np.errstate(all="ignore"):
        s = schwarzian(expr, z)
        return (1.0 - np.abs(z) ** 2) ** 2 * np.abs(s)


class CertReport(Record):
    """Outcome of a Nehari-bound certification run."""

    sup_estimate: float
    arg_sup: complex
    grid: GridMeta
    passed: bool
    t_parameter: float
    n_failed: int


def certify_nehari(expr: MapExpr,
                   meta: GridMeta = GridMeta(rings=CERT_RINGS, angles=CERT_ANGLES)) -> CertReport:
    """Certify sup (1 - |z|^2)^2 |Sf| <= 2 on a refined polar grid.

    The raw grid count of violations is kept separately from the
    refined supremum: a passing map has both n_failed = 0 and the
    refined value at most 2 + 1e-9.
    """
    pts = grid_points(meta)
    vals = np.asarray(nehari_functional(expr, pts), dtype=float)
    n_failed = int(np.sum(vals[np.isfinite(vals)] > 2.0 + NEHARI_TOL))
    k, grid_sup = extremum(np.where(np.isfinite(vals), vals, np.nan), largest=True)
    i, j = divmod(k, meta.angles)
    rings, step = meta.rings, 2.0 * np.pi / meta.angles
    # the refinement minimizes, so it refines minus the functional
    neg_sup, r, theta = refine_on_grid(
        at_polar(lambda z: -nehari_functional(expr, z)[0]), rings[i],
        2.0 * np.pi * j / meta.angles, -grid_sup, step,
        (rings[max(i - 1, 0)], rings[min(i + 1, len(rings) - 1)]),
    )
    sup = -neg_sup
    passed = bool(np.isfinite(sup) and sup <= 2.0 + NEHARI_TOL and n_failed == 0)
    return CertReport(
        sup_estimate=float(sup),
        arg_sup=polar(r, theta),
        grid=meta,
        passed=passed,
        t_parameter=float(sup) / 2.0,
        n_failed=n_failed,
    )
