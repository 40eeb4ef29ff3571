"""Catalog of closed-form disk maps with certification metadata.

`build_map` is the only way to get a `MappingSpec`, and every scan
takes the `MapExpr` itself.  The paper's Koebe transform at z0, its
normalization f/(1 + a2 f) and its extremal sector are the nodes
`Koebe`, `MobiusShift` and `SectorAuto`.

Every entry keeps the normalized expression together with its second
Taylor coefficient and three flags read from the image in closed form
(`domain.Domain`): whether it is convex, whether it is bounded, and
whether the omitted point f(0) - 1/c (-1/a2 when f(0) = 0 and f'(0) = 1)
is on its boundary.  The least sampled Re(1 + z f''/f'), `convexity_min`,
is printed beside the convexity verdict and decides nothing.
"""

from __future__ import annotations

import numpy as np

from .domain import Domain
from .evaluate import jet_eval, normalization, taylor
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
    """(certified, min): whether the image is convex, in closed form
    (`Domain.convex`), and the least Re(1 + z f''/f') over the convexity
    grid, which is only printed.  Samples that are not finite are masked,
    and a grid with none left raises DegenerateDomain.
    """
    z = ring_points(CONVEXITY_RINGS, CONVEXITY_ANGLES)
    j = jet_eval(expr, z)
    with np.errstate(all="ignore"):
        vals = np.real(1.0 + z * j.f2 / j.f1)
    _, best = extremum(np.where(np.isfinite(vals), vals, np.nan))
    return Domain.of(expr).convex, best


def build_map(expr: MapExpr) -> MappingSpec:
    """Construct a catalog entry, with its closed-form flags and sampled convexity_min."""
    domain = Domain.of(expr)
    certified, conv_min = validate_convexity(expr)
    return MappingSpec(
        expr=expr,
        a2=taylor(expr)[1],
        convexity_certified=certified,
        convexity_min=conv_min,
        bounded_hint=BOUNDED if domain.bounded else UNBOUNDED,
        omitted_on_boundary=domain.omits_on_boundary(*normalization(expr)),
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
