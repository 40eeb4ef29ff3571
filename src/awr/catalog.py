"""Catalog of closed-form disk maps with certification metadata.

`build_map` is the only way to get a `MappingSpec`, and every scan
takes the `MapExpr` itself.  The paper's Koebe transform at z0, its
normalization f/(1 + a2 f) and its extremal sector are the nodes
`Koebe`, `MobiusShift` and `SectorAuto`.

Every entry keeps the normalized expression together with its second
Taylor coefficient, the outcome of a numerical convexity check, and two
flags read from the image in closed form (`domain.Domain`): whether it
is bounded, and whether the omitted point -1/a2 sits on its boundary.
"""

from __future__ import annotations

import numpy as np

from .domain import Domain
from .evaluate import jet_eval, taylor
from .expr import (
    Disk,
    Halfplane,
    Identity,
    MapExpr,
    MobiusOfStrip,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from .grids import ring_points
from .jets import extremum
from .record import Record

CONVEXITY_RINGS = (0.9, 0.99, 0.999)
CONVEXITY_ANGLES = 4096

BOUNDED = "bounded"
UNBOUNDED = "unbounded"


class MappingSpec(Record):
    """A catalog entry: expression plus certification metadata."""

    expr: MapExpr
    a2: complex
    convexity_certified: bool
    convexity_min: float
    bounded_hint: str
    omitted_on_boundary: bool


def validate_convexity(expr: MapExpr):
    """(certified, min) of Re(1 + z f''/f') over the convexity grid; certified when min > -1e-9.

    Convexity of the image is equivalent to that quantity staying
    positive on the disk; sampling rings close to the boundary catches
    every catalog non-convexity by a wide margin.  Samples that are not
    finite are masked, and a grid with none left raises DegenerateDomain.
    """
    z = ring_points(CONVEXITY_RINGS, CONVEXITY_ANGLES)
    j = jet_eval(expr, z)
    with np.errstate(all="ignore"):
        vals = np.real(1.0 + z * j.f2 / j.f1)
    _, best = extremum(np.where(np.isfinite(vals), vals, np.nan))
    return best > -1e-9, best


def build_map(expr: MapExpr) -> MappingSpec:
    """Construct a catalog entry, running the convexity check."""
    domain = Domain.of(expr)
    a2 = taylor(expr)[1]
    certified, conv_min = validate_convexity(expr)
    return MappingSpec(
        expr=expr,
        a2=complex(a2),
        convexity_certified=certified,
        convexity_min=conv_min,
        bounded_hint=BOUNDED if domain.bounded else UNBOUNDED,
        omitted_on_boundary=domain.omits_on_boundary(a2),
    )


FIXTURE_EXPRS = (
    ("identity", Identity()),
    ("disk", Disk(0.5)),
    ("halfplane", Halfplane(-1.0)),
    ("sector", SectorReal(0.5)),
    ("sector-auto", SectorAuto(0.5)),
    ("strip", Strip()),
    ("strip-shift", StripShift(0.7)),
    ("mobius-of-strip", MobiusOfStrip(0.25)),
)
