"""Sample grids on the unit disk and 1-d refinement helpers.

Scans in this package all walk the same kind of grid: a handful of
concentric rings, each sampled at equally spaced angles.  Refinement is
deliberately simple (golden-section sweeps along one coordinate at a
time) because every quantity we optimize is smooth along rings and radii
away from the finitely many boundary singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_RINGS = (0.5, 0.9, 0.99, 0.999)
DEFAULT_ANGLES = 1024
# Cap on rings x angles.  The largest built-in grid has 5 x 4096 points;
# the cap leaves room for finer user grids while bounding the memory a
# single scan can ask for.
MAX_GRID_POINTS = 1 << 18


def check_grid_size(n_rings: int, angles: int) -> None:
    """Refuse a grid of more than MAX_GRID_POINTS points."""
    if n_rings * angles > MAX_GRID_POINTS:
        raise BadParam(f"{n_rings} rings x {angles} angles exceeds the cap "
                       f"of {MAX_GRID_POINTS} grid points")


@dataclass(frozen=True)
class GridMeta:
    """Ring/angle grid description, kept with every scan report.

    rings must be strictly increasing in [0, 1); angles >= 64, and the
    grid holds at most MAX_GRID_POINTS points.  Angles are equally spaced
    from 0, so axis points (where several extremals sit) are hit
    exactly.  The seed is only recorded with the run: every scan is
    deterministic.
    """

    rings: tuple = DEFAULT_RINGS
    angles: int = DEFAULT_ANGLES
    seed: int = 0

    def __post_init__(self):
        rings = tuple(float(r) for r in self.rings)
        object.__setattr__(self, "rings", rings)
        if not rings:
            raise BadParam("grid needs at least one ring")
        for r in rings:
            if not (0.0 <= r < 1.0) or not math.isfinite(r):
                raise BadParam(f"ring radii must lie in [0, 1), got {r}")
        if any(b <= a for a, b in zip(rings, rings[1:])):
            raise BadParam(f"ring radii must increase strictly: {rings}")
        if int(self.angles) < 64:
            raise BadParam(f"need at least 64 angles, got {self.angles}")
        check_grid_size(len(rings), int(self.angles))
        object.__setattr__(self, "angles", int(self.angles))
        object.__setattr__(self, "seed", int(self.seed))


def grid_points(meta: GridMeta) -> np.ndarray:
    """Complex samples, shape (len(rings), angles), ring-major."""
    theta = 2.0 * np.pi * np.arange(meta.angles) / meta.angles
    radii = np.asarray(meta.rings, dtype=float)[:, None]
    return radii * np.exp(1j * theta)


def golden_section(fn, lo: float, hi: float, iters: int = 48, minimize: bool = True):
    """Scalar golden-section search; returns (x, fn(x)).

    fn is evaluated pointwise; NaN values are treated as +inf (or -inf
    when maximizing) so that failed samples never win.
    """
    sign = 1.0 if minimize else -1.0

    def val(x):
        v = fn(x)
        if v != v:  # NaN
            return math.inf
        return sign * v

    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = val(c), val(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = val(d)
    x = c if fc <= fd else d
    best = min(fc, fd)
    return x, sign * best


def refine_on_grid(meta: GridMeta, values: np.ndarray, eval_fn, minimize: bool = True):
    """One polar refinement pass around the extremal grid sample.

    values has the grid_points shape.  eval_fn(r, theta) -> float is the
    scalar objective.  The pass runs a golden-section sweep in theta on
    the extremal ring (bracketed by the neighbouring grid angles), then a
    sweep in r along the refined angle (bracketed by the neighbouring
    rings, staying inside the grid hull).  Returns (value, z).
    """
    def better(a, b):
        return a < b if minimize else a > b

    work = np.array(values, dtype=float)
    bad = ~np.isfinite(work)
    work[bad] = np.inf if minimize else -np.inf
    flat = np.argmin(work) if minimize else np.argmax(work)
    i, j = np.unravel_index(flat, work.shape)
    best_v = float(work[i, j])
    rings = meta.rings
    r0 = rings[i]
    step = 2.0 * math.pi / meta.angles
    th0 = j * step
    best_r, best_th = r0, th0

    th, v = golden_section(
        lambda t: eval_fn(r0, t), th0 - step, th0 + step, minimize=minimize
    )
    if better(v, best_v):
        best_v, best_th = v, th

    r_lo = rings[i - 1] if i > 0 else rings[i]
    r_hi = rings[i + 1] if i + 1 < len(rings) else rings[i]
    if r_hi > r_lo:
        r, v = golden_section(
            lambda rr: eval_fn(rr, best_th), r_lo, r_hi, minimize=minimize
        )
        if better(v, best_v):
            best_v, best_r = v, r

    z = best_r * complex(math.cos(best_th), math.sin(best_th))
    return best_v, z
