"""Expression trees for the mapping catalog.

Every map in the catalog is described by a small immutable tree.  Leaves
are closed-form disk maps; interior nodes are the three combinators
(disk-automorphism precomposition, Mobius renormalization, affine
postcomposition).  Trees are hashable, which lets evaluation memoize
per-expression data.

Parameter validation happens at construction time.  Depth is capped so
runaway nesting is rejected before evaluation.
"""

from __future__ import annotations

import math

from .errors import ParamOutOfRange
from .record import Record, fields

MAX_DEPTH = 8


def _require_finite(name: str, value: complex) -> None:
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ParamOutOfRange(f"{name} must be finite, got {value!r}")


def _require_real(name: str, value: complex) -> float:
    v = complex(value)
    if v.imag != 0.0:
        raise ParamOutOfRange(f"{name} must be real, got {value!r}")
    return v.real


class MapExpr(Record):
    """Base class; concrete nodes below."""

    def children(self) -> tuple["MapExpr", ...]:
        values = (getattr(self, name) for name in fields(self))
        return tuple(v for v in values if isinstance(v, MapExpr))

    def depth(self) -> int:
        kids = self.children()
        return 1 + (max(k.depth() for k in kids) if kids else 0)

    def check_depth(self) -> None:
        d = self.depth()
        if d > MAX_DEPTH:
            raise ParamOutOfRange(f"expression nests {d} levels deep (cap {MAX_DEPTH})")


class Identity(MapExpr):
    """z -> z."""


class Disk(MapExpr):
    """z -> z / (1 + x z), x real in (-1, 1); image a disk."""

    x: float

    def __post_init__(self):
        _require_finite("disk parameter", self.x)
        x = _require_real("disk parameter", self.x)
        object.__setattr__(self, "x", float(x))
        if not (-1.0 < x < 1.0):
            raise ParamOutOfRange(f"disk parameter needs x in (-1, 1), got {x}")


class Halfplane(MapExpr):
    """z -> z / (1 + c z) with |c| = 1, image a half-plane."""

    c: complex

    def __post_init__(self):
        _require_finite("halfplane parameter", self.c)
        object.__setattr__(self, "c", complex(self.c))
        if abs(abs(self.c) - 1.0) > 1e-9:
            raise ParamOutOfRange(
                f"halfplane parameter needs |c| = 1, got |c| = {abs(self.c)}"
            )


class SectorReal(MapExpr):
    """z -> (1/2a) (((1+z)/(1-z))^a - 1), a in (0, 1); sector of opening a*pi."""

    a: float

    def __post_init__(self):
        _require_finite("sector exponent", self.a)
        a = _require_real("sector exponent", self.a)
        object.__setattr__(self, "a", float(a))
        if not (0.0 < a < 1.0):
            raise ParamOutOfRange(f"sector exponent needs 0 < a < 1, got {a}")


class Strip(MapExpr):
    """z -> (1/2) log((1+z)/(1-z)), image the strip |Im w| < pi/4."""


class StripShift(MapExpr):
    """Strip map recentered at the off-axis point i*x, x real in (0, 1).

    Sugar for ``Koebe(Strip(), i x)``; the recentering leaves the image
    a parallel strip but gives the renormalized map a nonzero second
    Taylor coefficient, unlike real recenterings which collapse back to
    the strip map exactly.
    """

    x: float

    def __post_init__(self):
        _require_finite("strip-shift offset", self.x)
        x = _require_real("strip-shift offset", self.x)
        object.__setattr__(self, "x", float(x))
        if not (0.0 < x < 1.0):
            raise ParamOutOfRange(f"strip-shift offset needs 0 < x < 1, got {x}")

    def lower(self) -> "Koebe":
        return Koebe(Strip(), complex(0.0, self.x))


class MobiusOfStrip(MapExpr):
    """z -> L(z)/(1 + a L(z)) with L the strip map, a != 0."""

    a: complex

    def __post_init__(self):
        _require_finite("mobius-of-strip parameter", self.a)
        object.__setattr__(self, "a", complex(self.a))
        if self.a == 0:
            raise ParamOutOfRange("mobius-of-strip parameter needs a != 0")


class SectorAuto(MapExpr):
    """Sector map precomposed with the disk automorphism moving a to 0.

    Built from the automorphism parameter ``a`` (|a| < 1); the resulting
    map is normalized (fixes 0, derivative 1 there) and keeps the sector
    image, with
        c    = -(1 - conj(a)) / (1 - a)
        beta = (1 - |a|^2) / (2 (1 - Re a))
        b    = 1 / (a c - 1).
    """

    a: complex

    def __post_init__(self):
        _require_finite("automorphism parameter", self.a)
        object.__setattr__(self, "a", complex(self.a))
        if abs(self.a) >= 1.0:
            raise ParamOutOfRange(
                f"automorphism parameter needs |a| < 1, got |a| = {abs(self.a)}"
            )


class Koebe(MapExpr):
    """Koebe transform: renormalized precomposition with the automorphism

        sigma(z) = (z + z0) / (1 + conj(z0) z),

    i.e. g = (f o sigma - f(z0)) / ((1 - |z0|^2) f'(z0)).
    """

    inner: MapExpr
    z0: complex

    def __post_init__(self):
        _require_finite("koebe base point", self.z0)
        object.__setattr__(self, "z0", complex(self.z0))
        if abs(self.z0) >= 1.0:
            raise ParamOutOfRange(
                f"koebe base point needs |z0| < 1, got |z0| = {abs(self.z0)}"
            )
        self.check_depth()


class MobiusShift(MapExpr):
    """Mobius renormalization f -> f / (1 + a2 f), a2 = f''(0)/2.

    Kills the second Taylor coefficient while preserving the Schwarzian.
    """

    inner: MapExpr

    def __post_init__(self):
        self.check_depth()


class Affine(MapExpr):
    """Postcomposition w -> A w + B, A != 0."""

    inner: MapExpr
    A: complex
    B: complex

    def __post_init__(self):
        _require_finite("affine scale", self.A)
        _require_finite("affine offset", self.B)
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", complex(self.B))
        if self.A == 0:
            raise ParamOutOfRange("affine scale must be nonzero")
        self.check_depth()


LEAF_TYPES = (Identity, Disk, Halfplane, SectorReal, Strip, StripShift, MobiusOfStrip, SectorAuto)
