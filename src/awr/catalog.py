"""Catalog of closed-form disk maps with certification metadata.

`build_map` is the only way to get a `MappingSpec`, and every scan
takes the `MapExpr` itself.  The paper's Koebe transform at z0, its
normalization f/(1 + a2 f) and its extremal sector are the nodes
`Koebe`, `MobiusShift` and `SectorAuto`.

Every entry keeps the normalized expression together with its second
Taylor coefficient, the outcome of a numerical convexity check, a
boundedness hint, and whether the omitted point -1/a2 sits on the image
boundary.  The last flag is what the Mobius shift cares about: shifting
a map whose omitted point touches the boundary produces the strip map
up to rotation (unbounded), while every other shift is bounded.  Both
flags read the normal form f = post(leaf(pre(z))) from `evaluate`:
the image is post(leaf domain).
"""

from __future__ import annotations

import math

import numpy as np

from .evaluate import NormalForm, jet_eval, normal_form, taylor
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
from .record import Record

CONVEXITY_RINGS = (0.9, 0.99, 0.999)
CONVEXITY_ANGLES = 4096
A2_ZERO_TOL = 1e-12

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
    """Min of Re(1 + z f''/f') over the convexity grid; certified when > -1e-9.

    Convexity of the image is equivalent to that quantity staying
    positive on the disk; sampling rings close to the boundary catches
    every catalog non-convexity by a wide margin.
    """
    z = ring_points(CONVEXITY_RINGS, CONVEXITY_ANGLES)
    j = jet_eval(expr, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.real(1.0 + z * j.f2 / j.f1)
    ok = np.isfinite(vals)
    best, arg = math.inf, 0j
    if np.any(ok):
        i = np.unravel_index(int(np.nanargmin(np.where(ok, vals, np.nan))), vals.shape)
        best, arg = float(vals[i]), complex(z[i])
    certified = best > -1e-9
    return certified, best, arg


def omitted_point_on_boundary(nf: NormalForm, a2: complex) -> bool:
    """Whether -1/a2 lies on the image boundary (the delta_f = 0 family).

    Only strip-built maps can place the omitted point on their boundary:
    otherwise the shifted map would be an unbounded zero-a2 map, forcing
    it to be the strip map itself.  For f = post(L(pre(z))) the omitted
    point touches the boundary exactly when post is affine and a2 = 0
    (f is a rotation conjugate of L), or post has a pole and -1/a2 is
    the image of the strip ends.
    """
    if not isinstance(nf.leaf, Strip):
        return False
    post = nf.post
    if post.is_affine:
        return bool(abs(a2) < A2_ZERO_TOL)
    if abs(a2) < A2_ZERO_TOL:
        return bool(abs(abs(post.pole().imag) - math.pi / 4.0) < 1e-12)
    t = post.at_infinity()
    return bool(abs(-1.0 / a2 - t) <= 1e-9 * (1.0 + abs(t)))


def boundedness_hint(nf: NormalForm) -> str:
    """Boundedness of the image post(leaf domain).

    An affine post keeps it bounded exactly for the identity and disk
    leaves.  A strip leaf is unbounded when post's pole lies on the
    closed strip |Im v| <= pi/4: for mobius-of-strip(a) the pole is
    -1/a, so it is bounded iff |Im a| > (pi/4) |a|^2.  Otherwise the
    pole (a shifted omitted point, on the boundary only for strip-built
    maps) misses the closed leaf domain, and the image is bounded.
    """
    post = nf.post
    if post.is_affine:
        return BOUNDED if isinstance(nf.leaf, (Identity, Disk)) else UNBOUNDED
    if isinstance(nf.leaf, Strip) and abs(post.pole().imag) <= 0.25 * math.pi:
        return UNBOUNDED
    return BOUNDED


def build_map(expr: MapExpr) -> MappingSpec:
    """Construct a catalog entry, running the convexity check."""
    nf = normal_form(expr)
    a2 = taylor(expr)[1]
    certified, conv_min, _ = validate_convexity(expr)
    return MappingSpec(
        expr=expr,
        a2=complex(a2),
        convexity_certified=certified,
        convexity_min=conv_min,
        bounded_hint=boundedness_hint(nf),
        omitted_on_boundary=omitted_point_on_boundary(nf, a2),
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
