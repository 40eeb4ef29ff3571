"""Expression trees for the mapping catalog.

Every map in the catalog is described by a small immutable tree.  Leaves
are closed-form disk maps; interior nodes are the three combinators
(disk-automorphism precomposition, Mobius renormalization, affine
postcomposition).  Trees are hashable, which lets evaluation memoize
per-expression data.

Each node is declared once, here: `NAME` is its name in the text
grammar and its annotated fields are its parameters.  A `MapExpr` field
is the inner map, first and positional; a `float` field is a real-only
key and a `complex` field a complex key, named by the lower-cased field
name (`Affine.A` is `a`).  `NODES` lists the classes by name for
`awr.parser`.  On construction every key is checked finite (and real if
`float`) and coerced, then the node's `check_range` runs and the
nesting depth is capped, before any evaluation.
"""

from __future__ import annotations

import math

from .errors import ParamOutOfRange
from .record import Record, fields

MAX_DEPTH = 8

_SCALARS = {"float": float, "complex": complex}


class MapExpr(Record):
    """Base of the nodes; see the module docstring for how one is declared."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        notes = cls.__dict__.get("__annotations__", {})
        # NESTS: the first field is the inner map; KINDS: (field, float or
        # complex) for the rest, so a misplaced inner map fails right here
        cls.NESTS = bool(cls._fields) and notes[cls._fields[0]] == "MapExpr"
        cls.KINDS = tuple((name, _SCALARS[notes[name]])
                          for name in cls._fields[1 if cls.NESTS else 0:])

    def __post_init__(self):
        for name, kind in self.KINDS:
            value = getattr(self, name)
            v = complex(value)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                fault = "finite"
            elif kind is float and v.imag != 0.0:
                fault = "real"
            else:
                object.__setattr__(self, name, v.real if kind is float else v)
                continue
            raise ParamOutOfRange(
                f"{self.NAME} parameter '{name.lower()}' must be {fault}, got {value!r}")
        self.check_range()
        if self.NESTS:
            self.check_depth()

    def check_range(self) -> None:
        """Refuse parameter values outside the node's range; none by default."""

    def children(self) -> tuple["MapExpr", ...]:
        values = (getattr(self, name) for name in fields(self))
        return tuple(v for v in values if isinstance(v, MapExpr))

    def depth(self) -> int:
        return 1 + max((kid.depth() for kid in self.children()), default=0)

    def check_depth(self) -> None:
        d = self.depth()
        if d > MAX_DEPTH:
            raise ParamOutOfRange(f"expression nests {d} levels deep (cap {MAX_DEPTH})")


class Identity(MapExpr):
    """z -> z."""

    NAME = "identity"


class Disk(MapExpr):
    """z -> z / (1 + x z), x real in (-1, 1); image a disk."""

    NAME = "disk"
    x: float

    def check_range(self):
        if not (-1.0 < self.x < 1.0):
            raise ParamOutOfRange(f"disk parameter needs x in (-1, 1), got {self.x}")


class Halfplane(MapExpr):
    """z -> z / (1 + c z) with |c| = 1, image a half-plane."""

    NAME = "halfplane"
    c: complex

    def check_range(self):
        if abs(abs(self.c) - 1.0) > 1e-9:
            raise ParamOutOfRange(f"halfplane parameter needs |c| = 1, got |c| = {abs(self.c)}")


class SectorReal(MapExpr):
    """z -> (1/2a) (((1+z)/(1-z))^a - 1), a in (0, 1); sector of opening a*pi."""

    NAME = "sector"
    a: float

    def check_range(self):
        if not (0.0 < self.a < 1.0):
            raise ParamOutOfRange(f"sector exponent needs 0 < a < 1, got {self.a}")


class Strip(MapExpr):
    """z -> (1/2) log((1+z)/(1-z)), image the strip |Im w| < pi/4."""

    NAME = "strip"


class StripShift(MapExpr):
    """Strip map recentered at the off-axis point i*x, x real in (0, 1).

    Sugar for ``Koebe(Strip(), i x)``; the recentering leaves the image
    a parallel strip but gives the renormalized map a nonzero second
    Taylor coefficient, unlike real recenterings which collapse back to
    the strip map exactly.
    """

    NAME = "strip-shift"
    x: float

    def check_range(self):
        if not (0.0 < self.x < 1.0):
            raise ParamOutOfRange(f"strip-shift offset needs 0 < x < 1, got {self.x}")

    def lower(self) -> "Koebe":
        return Koebe(Strip(), complex(0.0, self.x))


class MobiusOfStrip(MapExpr):
    """z -> L(z)/(1 + a L(z)) with L the strip map, a != 0."""

    NAME = "mobius-of-strip"
    a: complex

    def check_range(self):
        if self.a == 0:
            raise ParamOutOfRange("mobius-of-strip parameter needs a != 0")


class SectorAuto(MapExpr):
    """Sector map precomposed with the disk automorphism moving a to 0.

    Built from the automorphism parameter ``a`` (|a| < 1), this is the
    extremal map of the coefficient bound: the boundary function is the
    unimodular constant c, and the map is normalized (fixes 0, derivative
    1 there) onto a sector of opening beta*pi, with
        c    = -(1 - conj(a)) / (1 - a)
        beta = (1 - |a|^2) / (2 (1 - Re a))
        b    = 1 / (a c - 1)
        f(z) = -b [((1 + z)/(1 + c z))^beta - 1].
    Its second coefficient is a2 = -a c + b c (1 - |a|^2) / 2, and
    Re(a2 b) = -1/2, so Re(a2 f) > -1/2 is sharp on it.  For real a it is
    the sector map with exponent (1 + a)/2.

    The power base w = (1 + z)/(1 + c z) never meets the branch cut
    (-inf, 0]: c = 1 would need Re a = 1, so w maps the disk onto an
    open half-plane whose edge is a line through w(-1) = 0 and which
    holds w(0) = 1.  For `sector(a)`, c = -1 and Re w > 0.
    """

    NAME = "sector-auto"
    a: complex

    def check_range(self):
        if abs(self.a) >= 1.0:
            raise ParamOutOfRange(f"automorphism parameter needs |a| < 1, got |a| = {abs(self.a)}")


class Koebe(MapExpr):
    """Koebe transform: renormalized precomposition with the automorphism

        sigma(z) = (z + z0) / (1 + conj(z0) z),

    i.e. g = (f o sigma - f(z0)) / ((1 - |z0|^2) f'(z0)).
    """

    NAME = "koebe"
    inner: MapExpr
    z0: complex

    def check_range(self):
        if abs(self.z0) >= 1.0:
            raise ParamOutOfRange(f"koebe base point needs |z0| < 1, got |z0| = {abs(self.z0)}")


class MobiusShift(MapExpr):
    """Mobius renormalization f -> f(0) + x / (1 + c x), x = f - f(0), with
    c = a2/f'(0)^2 of the normalized map (`evaluate.normalization`): the
    paper's f / (1 + a2 f) when f(0) = 0 and f'(0) = 1.

    Kills the second Taylor coefficient while preserving the Schwarzian.
    """

    NAME = "mobius-shift"
    inner: MapExpr


class Affine(MapExpr):
    """Postcomposition w -> A w + B, A != 0."""

    NAME = "affine"
    inner: MapExpr
    A: complex
    B: complex

    def check_range(self):
        if self.A == 0:
            raise ParamOutOfRange("affine scale must be nonzero")


NODES = {cls.NAME: cls for cls in MapExpr.__subclasses__()}
"""Every node class, by its name in the text grammar."""
