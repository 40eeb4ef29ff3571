"""Third-order jets of holomorphic maps.

A ``Jet3`` bundles the value and first three derivatives of a map at a
base point.  Fields may be complex scalars or complex ndarrays (all of
one shape); arithmetic is numpy-vectorized either way.

One rule covers singular points and overflow: array jets mask them with
NaN or inf and numpy stays silent (np.errstate(all="ignore")), and scalar
jets raise (OutOfDoubleRange on an overflow, from `evaluate.jet_eval`).
`nonzero` applies it to denominators, `_check_base` compares base points
on finite entries, and `extremum` is the one reduction every scan takes
over masked samples.
"""

from __future__ import annotations

import numpy as np

from .errors import BasePointMismatch, DegenerateDomain, PoleAtPoint
from .record import Record

BASE_TOL = 1e-12
SAME_BASE = "jet base points differ by {:.3e} (> {:.0e})"


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def nonzero(den, at, message: str):
    """den with zeros masked by NaN on an array jet; a scalar zero raises PoleAtPoint."""
    if _is_array(den) or _is_array(at):
        den = np.asarray(den, dtype=complex)
        return np.where(den == 0, np.nan, den)
    if den == 0:
        raise PoleAtPoint(message.format(at))
    return den


def extremum(vals, largest: bool = False):
    """(flat index, value) of the least, or with largest the largest, sample
    not masked by NaN: the first of ties, as np.nanargmin and np.nanargmax
    pick it (they, unlike this, can pick a NaN when every kept sample is
    infinite).  With every sample masked a scan has nothing to certify."""
    vals = np.asarray(vals, dtype=float).ravel()
    kept = np.flatnonzero(~np.isnan(vals))
    if kept.size == 0:
        raise DegenerateDomain("every sample of the scan is masked (NaN or out of double range)")
    k = int(kept[np.argmax(vals[kept]) if largest else np.argmin(vals[kept])])
    return k, float(vals[k])


def mobius_jet(at, num, den, c, det) -> "Jet3":
    """Jet at ``at`` of the Mobius map w -> num/den, den = c w + d, whose
    determinant is det: its derivatives are det/den^2, -2 c det/den^3 and
    6 c^2 det/den^4, with den masked or refused by `nonzero`."""
    den = nonzero(den, at, "mobius denominator vanishes at {}")
    d2 = den * den
    return Jet3(num / den, det / d2, -2.0 * c * det / (d2 * den),
                6.0 * c * c * det / (d2 * d2), at)


def _check_base(at, other, message: str) -> None:
    """Raise BasePointMismatch when finite entries of at and other differ by
    more than BASE_TOL; a NaN entry is a masked point, never a mismatch."""
    if at is other:
        return
    gap = np.abs(np.asarray(at) - np.asarray(other))
    worst = float(np.max(np.where(np.isfinite(gap), gap, 0.0)))
    if worst > BASE_TOL:
        raise BasePointMismatch(message.format(worst, BASE_TOL))


class Jet3(Record):
    """Value and derivatives (f, f', f'', f''') at the base point ``at``."""

    f0: complex
    f1: complex
    f2: complex
    f3: complex
    at: complex

    def __init__(self, f0, f1, f2, f3, at):
        # built on every jet operation: five stores, no generic binding
        attrs = self.__dict__
        attrs["f0"] = f0
        attrs["f1"] = f1
        attrs["f2"] = f2
        attrs["f3"] = f3
        attrs["at"] = at

    @staticmethod
    def identity(at) -> "Jet3":
        if not _is_array(at):
            return Jet3(complex(at), 1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j, complex(at))
        at = np.asarray(at, dtype=complex)
        # a masked (NaN) base point masks every derivative too
        masked = np.isnan(at)
        one = np.where(masked, np.nan, 1.0 + 0.0j)
        zero = np.where(masked, np.nan, 0.0 + 0.0j)
        return Jet3(at, one, zero, zero, at)

    @staticmethod
    def constant(c, at) -> "Jet3":
        """The jet of the constant c at a scalar base point."""
        return Jet3(complex(c), 0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j, complex(at))

    def __add__(self, other):
        if isinstance(other, Jet3):
            _check_base(self.at, other.at, SAME_BASE)
            return Jet3(
                self.f0 + other.f0,
                self.f1 + other.f1,
                self.f2 + other.f2,
                self.f3 + other.f3,
                self.at,
            )
        return Jet3(self.f0 + other, self.f1, self.f2, self.f3, self.at)

    def __neg__(self):
        return Jet3(-self.f0, -self.f1, -self.f2, -self.f3, self.at)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -other)

    def __mul__(self, other):
        if isinstance(other, Jet3):
            _check_base(self.at, other.at, SAME_BASE)
            a, b = self, other
            return Jet3(
                a.f0 * b.f0,
                a.f1 * b.f0 + a.f0 * b.f1,
                a.f2 * b.f0 + 2.0 * a.f1 * b.f1 + a.f0 * b.f2,
                a.f3 * b.f0 + 3.0 * a.f2 * b.f1 + 3.0 * a.f1 * b.f2 + a.f0 * b.f3,
                a.at,
            )
        return Jet3(
            self.f0 * other, self.f1 * other, self.f2 * other, self.f3 * other, self.at
        )

    def invert(self) -> "Jet3":
        """Jet of 1/f at the same base point."""
        w = nonzero(self.f0, self.at, "division by zero value at base point {}")
        # a scalar w stays a Python complex: numpy's complex division rounds unlike Python's
        u = 1.0 / w
        u2 = u * u
        return Jet3(
            u,
            -self.f1 * u2,
            (2.0 * self.f1 * self.f1 * u - self.f2) * u2,
            -self.f3 * u2 + 6.0 * self.f1 * self.f2 * u * u2 - 6.0 * self.f1**3 * u2 * u2,
            self.at,
        )

    def __truediv__(self, other: "Jet3"):
        return self * other.invert()

    def compose(self, inner: "Jet3") -> "Jet3":
        """Jet of self o inner.  ``self`` must be based at ``inner.f0``."""
        _check_base(self.at, inner.f0, "outer jet based {:.3e} away from inner value (> {:.0e})")
        g1, g2, g3 = self.f1, self.f2, self.f3
        h1 = inner.f1
        h2 = inner.f2
        h3 = inner.f3
        return Jet3(
            self.f0,
            g1 * h1,
            g2 * h1 * h1 + g1 * h2,
            g3 * h1**3 + 3.0 * g2 * h1 * h2 + g1 * h3,
            inner.at,
        )
