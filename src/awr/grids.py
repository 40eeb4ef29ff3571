"""Sample grids on the unit disk, and the one polar refinement.

Scans in this package walk the same kind of grid: a few concentric
rings, each sampled at equally spaced angles from 0.  `ring_points`
builds every such sample set; `GridMeta` is the validated, size-capped
grid a report records, and `grid_points` samples it.

`refine_on_grid` polishes a least sample with golden-section sweeps,
one in angle, then one in radius, repeated with shrinking brackets (a
maximum is refined as the least value of -fn).
Every quantity refined here is smooth along rings and radii away from
the finitely many boundary singularities, so one coordinate at a time
is enough.
"""

from __future__ import annotations

import math
import sys

from .errors import BadParam
from .record import Record

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = sys.float_info.epsilon

DEFAULT_RINGS = (0.5, 0.9, 0.99, 0.999)
DEFAULT_ANGLES = 1024

# The default grids of the scans, kept here with every other default the
# command line names, so that its parser needs no scan module.
CERT_RINGS = (0.0, 0.5, 0.9, 0.99, 0.999)  # nehari.certify_nehari
CERT_ANGLES = 4096
NORM_RINGS = (0.5, 0.9, 0.99, 0.999, 0.9999)  # quasidisk.normalized_sup
NORM_ANGLES = 2048
DELTA_RINGS = (0.3, 0.5, 0.7, 0.9, 0.99)  # quasidisk.delta_f
DELTA_ANGLES = 1024
RATIO_RINGS = (0.99, 0.999, 0.9995)  # quasidisk.quasidisk_ratio_scan
RATIO_ANGLES = 2048
# Recentering points of convexity.proof_machinery_check.
DEFAULT_ZETAS = (
    0.3 + 0.0j,
    -0.5 + 0.0j,
    0.6j,
    -0.2 - 0.6j,
    0.55 + 0.35j,
    -0.8 + 0.0j,
    -0.99 + 0.0j,
    0.9j,
)
DEFAULT_A_LIST = (0.25, 0.01, 0.25j)  # quasidisk.lemma32_demo
MAX_LIST_VALUES = 64  # cap on one --zetas or --a-list; a lemma32 value takes about 34 ms

# Cap on the refinement passes of the deep strip-end probes (deepscan).
# Pass k probes strip values of size about 8^k: on the catalog, squaring
# them for the chordal metric overflows from k = 165 and
# pass_exponent(k) * LN10 itself from k = 341, after which every deep
# value is NaN.  At 64 they stay below 1e59, the local brackets (8x
# smaller each pass) have been under double resolution near the unit
# circle since about pass 20, and a scan takes under a second.
MAX_PASSES = 64
DEFAULT_PASSES = 3  # quasidisk.delta_f and koebe_omission_scan


def check_passes(passes: int) -> None:
    """Refuse a negative pass count or more than MAX_PASSES passes."""
    if passes < 0:
        raise BadParam(f"pass count must be >= 0, got {passes}")
    if passes > MAX_PASSES:
        raise BadParam(f"{passes} refinement passes exceed the cap of {MAX_PASSES}")


# Cap on rings x angles.  The largest built-in grid has 5 x 4096 points;
# the cap leaves room for finer user grids while bounding the memory a
# single scan can ask for.
MAX_GRID_POINTS = 1 << 18


def check_grid_size(n_rings: int, angles: int) -> None:
    """Refuse a grid of more than MAX_GRID_POINTS points."""
    if n_rings * angles > MAX_GRID_POINTS:
        raise BadParam(f"{n_rings} rings x {angles} angles exceeds the cap "
                       f"of {MAX_GRID_POINTS} grid points")


class GridMeta(Record):
    """Ring/angle grid description, kept with every scan report.

    rings must be strictly increasing in [0, 1); angles >= 64, and the
    grid holds at most MAX_GRID_POINTS points.  Angles are equally spaced
    from 0, so axis points (where several extremals sit) are hit
    exactly.
    """

    rings: tuple = DEFAULT_RINGS
    angles: int = DEFAULT_ANGLES

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


def ring_points(rings, angles: int):
    """r exp(2 pi i k / angles) for each ring r, shape (len(rings), angles).

    Every ring sample set of the package comes from here; the angles
    are computed as (2 pi k) / angles.  Nothing is validated, so scans
    may use grids outside GridMeta's limits (a ring at 0, fewer than 64
    angles).
    """
    import numpy as np  # here, so the command line reads the defaults above without it

    theta = 2.0 * np.pi * np.arange(angles) / angles
    return np.asarray(rings, dtype=float)[:, None] * np.exp(1j * theta)


def grid_points(meta: GridMeta):
    """Complex samples of a validated grid, ring-major."""
    return ring_points(meta.rings, meta.angles)


def polar(r: float, theta: float) -> complex:
    """The point r exp(i theta), from math.cos and math.sin."""
    return r * complex(math.cos(theta), math.sin(theta))


def at_polar(fn):
    """refine_on_grid's objective (r, t) -> float(fn(z)), z the one-point array
    [polar(r, t)]: fn evaluates a scan's sample function and picks z's value."""
    import numpy as np  # here, as in ring_points
    return lambda r, t: float(fn(np.asarray([polar(r, t)])))


def golden_section(fn, lo: float, hi: float, iters: int = 48):
    """Scalar golden-section minimization; returns (x, fn(x)).

    fn is evaluated pointwise; NaN values are treated as +inf so that
    failed samples never win.  To maximize, minimize -fn.
    """
    def val(x):
        v = fn(x)
        return math.inf if v != v else v

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
    return (c, fc) if fc <= fd else (d, fd)


R_CAP = 1.0 - 1e-7  # radius cap of every refinement that runs toward the unit circle


def refine_on_grid(fn, r: float, theta: float, best: float, dth: float, r_range,
                   dr: float = 1.0, passes: int = 1):
    """Polar minimization of fn(r, theta) from a start point.

    Each pass runs a golden-section sweep in theta over theta +- dth at
    the current radius, then a sweep in r over r +- dr, kept inside
    r_range = (r_min, r_max), at the current angle; both brackets shrink
    8x after every pass, and at least one pass runs.  A sweep moves the
    point only when its value beats best strictly, so the caller's best
    so far (a grid value, or fn at the start) is never lost.  With the
    default dr the r sweep covers the whole of r_range.  Once the r
    bracket is empty and dth is below double resolution at theta (at
    most eps max(|theta|, 1), so theta = 0 stops too), a later pass
    could move theta only by rounding, so the later passes are skipped.
    Returns (best, r, theta).
    """
    r_min, r_max = r_range
    for _ in range(max(passes, 1)):
        th, v = golden_section(lambda t: fn(r, t), theta - dth, theta + dth)
        if v < best:
            best, theta = v, th
        lo, hi = max(r - dr, r_min), min(r + dr, r_max)
        if lo < hi:
            rr, v = golden_section(lambda s: fn(s, theta), lo, hi)
            if v < best:
                best, r = v, rr
        elif dth <= EPS * max(abs(theta), 1.0):
            break  # both brackets below double resolution: later passes only round
        dr /= 8.0
        dth /= 8.0
    return best, r, theta
