"""Ahlfors-Weill reflection across the image boundary, from disk data.

For a locally univalent f on the disk, the reflection of w = f(z) is

    R_w = f(z) - (1 - |z|^2) f'(z) / b2(z),
    b2(z) = (1 - |z|^2) f''(z) / (2 f'(z)) - conj(z),

where b2 is the second coefficient of f recentered at z (Ahlfors-Weill
1962, Proc. AMS 13).  It extends f past the unit circle: the extension
at |z| > 1 is `reflect` at 1/conj(z).  At z = 0 it sends 0 to -1/a2.

`jet_reflection` holds the one copy of the formula and works on scalar
and array jets alike; `reflect` and `reflect_grid` both go through it.
An array of reflections has three outcomes: a finite R_w; the point at
infinity (INFINITY where b2 vanishes, as along the strip's whole real
diameter, and `is_infinite` reads any infinite part as it); and NaN where
the jet is masked or a quotient leaves double range.  A finite R_w needs
a finite f(z), so a scan keeps a probe exactly where R_w is finite, and
reads `is_infinite` only to count vacuous probes or to name why it refuses.
"""

from __future__ import annotations

import numpy as np

from .errors import CriticalPoint
from .evaluate import jet_eval, normalization
from .extended import INFINITY, is_infinite
from .grids import GridMeta, grid_points
from .jets import Jet3
from .record import Record

B2_TOL = 1e-14
DERIV_TOL = 1e-14


class ReflectionSample(Record):
    """One reflected point: z in the disk, w = f(z), r = R_w, local b2."""

    z: complex
    w: complex
    r: complex
    b2: complex

    @property
    def r_is_inf(self) -> bool:
        return bool(is_infinite(self.r))


def local_b2(j: Jet3, z) -> complex:
    """(1 - |z|^2) f''/(2 f') - conj(z) from a jet of f at z."""
    return (1.0 - np.abs(z) ** 2) * j.f2 / (2.0 * j.f1) - np.conjugate(z)


def jet_reflection(j: Jet3, z):
    """(r, b2) from a jet of f at z, scalar or array: r = f0 - (1 - |z|^2) f1 / b2.

    The one copy of the reflection formula; r is INFINITY where
    |b2| < B2_TOL.  |z| comes from the builtin abs, so for a scalar z
    the factor 1 - |z|^2 stays a Python float.
    """
    with np.errstate(all="ignore"):
        b2 = local_b2(j, z)
        r = j.f0 - (1.0 - abs(z) ** 2) * j.f1 / b2
    if np.ndim(r):
        return np.where(abs(b2) < B2_TOL, INFINITY, r), b2
    return (INFINITY if abs(b2) < B2_TOL else r), b2


def reflect(expr, z) -> ReflectionSample:
    """Ahlfors-Weill reflection of w = f(z), |z| < 1; f'(z) counts as 0 up to DERIV_TOL |f'(0)|."""
    z = complex(z)
    j = jet_eval(expr, z)
    if abs(j.f1) <= DERIV_TOL * abs(normalization(expr)[1]):
        raise CriticalPoint(f"derivative vanishes at z = {z}")
    r, b2 = jet_reflection(j, z)
    return ReflectionSample(z=z, w=complex(j.f0), r=r, b2=complex(b2))


def reflect_grid(expr, meta: GridMeta):
    """Vectorized reflection over a ring grid.

    Returns (z, w, r, b2) flat complex arrays; r has the three outcomes
    of the module docstring.
    """
    zs = grid_points(meta).ravel()
    j = jet_eval(expr, zs)
    r, b2 = jet_reflection(j, zs)
    return zs, j.f0.copy(), r, b2
