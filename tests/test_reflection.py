"""Reflection anchors, geometric oracles, and Mobius equivariance.

For maps whose image boundary is a circle or a line, the anti-conformal
reflection has an elementary closed form (circle inversion, line
mirror).  The jet-built reflection must reproduce those exactly; that
pins the formula independently of any series bookkeeping.

The paper's extremal cases are pinned the same way, on composites drawn
by hypothesis: every mediatrix of a sector passes through its vertex,
the midpoint of a half-plane reflection lies on the edge, a sector
reflects its bisector through its vertex, and the paper's
f* = f/(1 + a2 f) of a strip map reflects the strip's axis to its cusp.
The theorem itself, that the midpoint of w and R_w is never inside a
convex image, is checked on composites of every convex leaf against a
closed-form test of the leaf's domain.  The four extremal identities are
read a second time off `Domain`, the image's boundary, vertex and cusp
in closed form.
"""

import cmath
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awr.catalog import FIXTURE_EXPRS
from awr.domain import Domain
from awr.expr import (
    Affine,
    Disk,
    Halfplane,
    Identity,
    Koebe,
    MobiusOfStrip,
    MobiusShift,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from awr.errors import CriticalPoint
from awr.extended import chordal, is_infinite
from awr.grids import GridMeta, polar
from awr.reflection import local_b2, reflect, reflect_grid
from awr.evaluate import jet_eval, normal_form, sector_auto_params

from conftest import (
    ANGLES,
    annulus,
    disk_points,
    leaf_point,
    mobius_equivariance_check,
    random_mobius,
)


def test_identity_reflection_is_inversion():
    zs = disk_points(4, 80, rmax=0.95)
    for z in zs:
        s = reflect(Identity(), z)
        assert abs(s.w - z) < 1e-14
        assert abs(s.r - 1.0 / np.conjugate(z)) < 1e-12


def test_identity_anchor_at_half():
    s = reflect(Identity(), 0.5)
    assert s.w == 0.5 + 0.0j
    assert abs(s.r - 2.0) < 1e-12
    assert abs(s.b2 - (-0.5)) < 1e-12
    assert not s.r_is_inf


def test_disk_map_reflection_is_circle_inversion():
    """Disk(0.5) maps onto the disk |w + 2/3| < 4/3; the reflection must
    be inversion across that circle."""
    center, radius = -2.0 / 3.0, 4.0 / 3.0
    zs = disk_points(5, 80, rmax=0.9)
    for z in zs:
        s = reflect(Disk(0.5), z)
        want = center + radius**2 / np.conjugate(s.w - center)
        assert abs(s.r - want) < 1e-10, z


def test_halfplane_reflection_is_line_mirror():
    """z/(1-z) maps onto Re w > -1/2; reflection across the line is
    w -> -1 - conj(w)."""
    zs = disk_points(6, 80, rmax=0.9)
    for z in zs:
        s = reflect(Halfplane(-1.0), z)
        assert abs(s.r - (-1.0 - np.conjugate(s.w))) < 1e-10, z
    s = reflect(Halfplane(-1.0), 0.5)
    assert abs(s.w - 1.0) < 1e-14
    assert abs(s.r - (-2.0)) < 1e-12


def test_reflection_at_origin_hits_omitted_point(catalog):
    for name, spec in catalog.items():
        s = reflect(spec.expr, 0.0)
        if abs(spec.a2) < 1e-12:
            assert s.r_is_inf, name
        else:
            assert abs(s.r - (-1.0 / spec.a2)) < 1e-10 * max(
                1.0, 1.0 / abs(spec.a2)), name


def test_a_tiny_scale_is_not_a_critical_point():
    """f'(z) vanishes relative to |f'(0)|: the absolute DERIV_TOL = 1e-14
    refused affine(identity, a=1e-15+0i) at every z (CriticalPoint), though
    its R_w is the identity's 1/conj(z) scaled by 1e-15.  A derivative that
    underflows to 0 is still refused."""
    s = reflect(Affine(Identity(), 1e-15 + 0j, 0j), 0.3 + 0.4j)
    assert not s.r_is_inf and abs(s.r - 1e-15 / (0.3 - 0.4j)) <= 1e-30
    with pytest.raises(CriticalPoint):
        reflect(Affine(Affine(Identity(), 1e-200 + 0j, 0j), 1e-200 + 0j, 0j), 0.3 + 0.4j)


def test_strip_real_axis_reflects_to_infinity():
    for x in (0.2, -0.5, 0.85):
        s = reflect(Strip(), x)
        assert s.r_is_inf
        assert abs(s.b2) < 1e-13


def test_local_b2_at_origin_is_minus_conj_plus_a2(catalog):
    for name, spec in catalog.items():
        j = jet_eval(spec.expr, 0.0 + 0.0j)
        assert abs(local_b2(j, 0.0) - spec.a2) < 1e-13, name


def test_reflect_grid_shapes_and_agreement():
    meta = GridMeta(rings=(0.3, 0.7), angles=64)
    zs, ws, rs, b2s = reflect_grid(Disk(0.5), meta)
    assert zs.shape == ws.shape == rs.shape == b2s.shape == (128,)
    pick = [0, 17, 100]
    for i in pick:
        s = reflect(Disk(0.5), zs[i])
        assert abs(s.w - ws[i]) < 1e-14
        assert abs(s.r - rs[i]) < 1e-12


def test_a_subnormal_b2_reflects_to_infinity_without_a_warning():
    """f1 / b2 overflows before the |b2| < B2_TOL test replaces it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = reflect(Disk(1e-310), 0.0)
    assert s.r_is_inf and s.b2 == -1e-310


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mobius_compose_inverse_is_identity(seed):
    rng = np.random.default_rng(seed)
    m = random_mobius(rng)
    both = m.compose(m.inverse())
    zs = disk_points(seed % 500, 20, rmax=2.0)
    resid = np.abs(both(zs) - zs)
    assert np.max(resid) < 1e-9


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mobius_apply_jet_matches_pointwise(seed):
    """apply_jet's closed-form Mobius derivatives against the quotient rule
    (j a + b)/(j c + d) in jet arithmetic, on every field; f0 also
    against the pointwise map."""
    rng = np.random.default_rng(seed)
    m = random_mobius(rng)
    zs = disk_points(seed % 500, 30, rmax=0.9)
    j = jet_eval(Strip(), zs)
    applied = m.apply_jet(j)
    direct = m(j.f0)
    ok = np.isfinite(direct)
    assert np.max(np.abs(applied.f0 - direct)[ok]) < 1e-10
    quotient = (j * m.a + m.b) / (j * m.c + m.d)
    for field in ("f0", "f1", "f2", "f3"):
        got, want = getattr(applied, field), getattr(quotient, field)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(got), np.abs(want))), field


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_reflection_commutes_with_mobius_postcomposition(name, expr):
    rng = np.random.default_rng(17)
    meta = GridMeta(rings=(0.3, 0.6, 0.9, 0.99), angles=128)
    for _ in range(5):
        mob = random_mobius(rng)
        residual, n_checked, n_excluded = mobius_equivariance_check(
            expr, mob, meta)
        assert residual < 1e-10, (name, residual)
        assert n_checked >= meta.angles * len(meta.rings) - n_excluded


def test_chordal_metric_handles_infinity():
    assert chordal(complex(np.inf), complex(np.inf)) == 0.0
    assert abs(chordal(0.0, complex(np.inf)) - 2.0) < 1e-15
    assert chordal(1.0, 2.0) > 0.0
    assert is_infinite(complex(np.inf))


# The paper's extremal identities, each against a closed-form oracle.

EPS = sys.float_info.epsilon


PROBES = annulus(0.0, 0.999)
# A layer that keeps post affine: a recentering or an affine map.
LAYER = st.one_of(
    annulus(0.0, 0.9).map(lambda z0: ("koebe", z0)),
    st.tuples(annulus(0.2, 5.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda p: ("affine", p[0], complex(p[1], p[2]))),
)
ONE_LAYER = st.one_of(st.none(), LAYER)
# A sector leaf with its vertex, the image of z = -1.
SECTORS = st.one_of(
    st.floats(0.1, 0.9).map(lambda a: (SectorReal(a), -0.5 / a)),
    annulus(0.0, 0.8).map(lambda a: (SectorAuto(a), sector_auto_params(a)[2])),
)


def _wrap(leaf, layer):
    if layer is None:
        return leaf
    if layer[0] == "koebe":
        return Koebe(leaf, layer[1])
    return Affine(leaf, *layer[1:])


def _disk_point(nf, t):
    """pre^-1(t): the disk point that stands for the leaf's point t."""
    u = t / nf.pre.lam
    return (u + nf.pre.a) / (1.0 + np.conj(nf.pre.a) * u)


def _tol(base, *points):
    """base, or 256 eps / (1 - |p|) over the disk points p when larger.

    Near the unit circle the jets lose about eps / (1 - |p|) to the
    cancellation in 1 - |z|^2 and 1 -+ z, at z and at the leaf point
    pre(z).  With base alone, sector(a=0.1) at z = -0.999 fails: its
    relative error there is 2.3e-12, about 10 eps / (1 - |z|).
    """
    return max(base, 256.0 * EPS / min(1.0 - abs(p) for p in points))


@settings(max_examples=200, deadline=None)
@given(SECTORS, ONE_LAYER, PROBES)
def test_every_sector_mediatrix_passes_through_the_vertex(sector, layer, z):
    """|R_w - v| = |w - v| for v = post(leaf vertex): the exact mediatrix
    margin of a sector with an affine post is 0 at every w."""
    leaf, vertex = sector
    expr = _wrap(leaf, layer)
    nf = normal_form(expr)
    assert nf.post.is_affine
    v = complex(nf.post(vertex)[()])
    s = reflect(expr, z)
    gap = abs(abs(s.r - v) - abs(s.w - v))
    assert gap <= _tol(1e-12, z, leaf_point(nf, z)) * abs(s.w - v), (expr, z, gap)


@settings(max_examples=200, deadline=None)
@given(ANGLES, ONE_LAYER, PROBES)
def test_half_plane_midpoints_lie_on_the_edge(t, layer, z):
    """z/(1 + c z) maps |z| = 1 onto Re(c u) = 1/2, and the reflection is
    the mirror in that line, so the midpoint of w and R_w is on the edge;
    an affine post u -> A u + B carries the line to the image's edge."""
    c = polar(1.0, t)
    expr = _wrap(Halfplane(c), layer)
    nf = normal_form(expr)
    assert nf.post.is_affine
    s = reflect(expr, z)
    u = complex(nf.post.inverse()((s.w + s.r) / 2.0)[()])
    scale = abs(nf.post.a / nf.post.d)  # |A|: leaf lengths to image lengths
    off = abs((c * u).real - 0.5) * scale
    assert off <= _tol(1e-11, z, leaf_point(nf, z)) * abs(s.w - s.r), (expr, z, off)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 0.9), ONE_LAYER, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_sector_reflects_its_bisector_through_the_vertex(a, layer, t):
    """sector(a) maps the real diameter onto its bisector, and the
    reflection of a point there is its mirror through the vertex
    v = post(-1/(2a)): on z = pre^-1(t), t in (-1, 1), the midpoint of w
    and R_w is v."""
    expr = _wrap(SectorReal(a), layer)
    nf = normal_form(expr)
    z = _disk_point(nf, t)
    assume(abs(z) <= 0.999)
    v = complex(nf.post(-0.5 / a)[()])
    s = reflect(expr, z)
    gap = abs((s.w + s.r) / 2.0 - v)
    assert gap <= _tol(1e-12, z, t) * abs(s.w - v), (expr, t, gap)


CONVEX_LEAVES = st.one_of(
    st.just(Identity()),
    st.floats(-0.9, 0.9).map(Disk),
    ANGLES.map(lambda t: Halfplane(polar(1.0, t))),
    st.floats(0.1, 0.9).map(SectorReal),
    annulus(0.0, 0.8).map(SectorAuto),
    st.just(Strip()),
)


def _depth(leaf, u):
    """How far u lies inside the leaf's image, > 0 only inside: 1 - |zeta|
    for the disk point zeta the leaf maps to u, in closed form, and for
    the strip pi/4 - |Im u|.

    A sector's zeta is taken only where the power's principal branch
    reaches u, |arg t| below the opening; elsewhere u is outside.  The
    vertex t = 0 is zeta = -1, on the boundary, so a midpoint rounded
    off the vertex (every bisector probe's) reads about 0, whatever the
    argument of its t."""
    if isinstance(leaf, Identity):
        zeta = u
    elif isinstance(leaf, (Disk, Halfplane)):
        x = leaf.x if isinstance(leaf, Disk) else leaf.c
        zeta = u / (1.0 - x * u)
    elif isinstance(leaf, Strip):
        return math.pi / 4.0 - abs(u.imag)
    elif isinstance(leaf, SectorReal):
        # 1 + 2a u = W^a with W = (1 + zeta)/(1 - zeta)
        t = 1.0 + 2.0 * leaf.a * u
        if abs(cmath.phase(t)) >= leaf.a * math.pi / 2.0:
            return -1.0
        w = t ** (1.0 / leaf.a)
        zeta = (w - 1.0) / (w + 1.0)
    else:
        # 1 - u/b = W^beta with W = (1 + zeta)/(1 + c zeta)
        c, beta, b = sector_auto_params(leaf.a)
        t = 1.0 - u / b
        if abs(cmath.phase(t)) >= beta * math.pi:
            return -1.0
        w = t ** (1.0 / beta)
        zeta = (1.0 - w) / (c * w - 1.0)
    return 1.0 - abs(zeta)


@settings(max_examples=400, deadline=None)
@given(CONVEX_LEAVES, st.lists(LAYER, max_size=2), PROBES)
def test_convex_midpoints_are_not_inside_the_image(leaf, layers, z):
    """The paper's theorem: on a convex image the midpoint of w and R_w
    is not inside the image.  Each layer keeps post affine, so post^-1
    carries the midpoint to the leaf's image, where _depth decides.

    Only probes with a finite R_w count, and R_w is at infinity where b2
    vanishes (the strip's axis).  A b2 within the bound of its rounding
    is read as 0: on koebe(strip, z0=0.75+0i) at z = 0.96875, on the
    axis, b2 reads 2.3e-14, above reflection.B2_TOL, and R_w a finite
    -4.4e13, inside the strip."""
    expr = functools.reduce(_wrap, layers, leaf)
    nf = normal_form(expr)
    assert nf.post.is_affine
    p = leaf_point(nf, z)
    assume(abs(p) <= 0.999)
    s = reflect(expr, z)
    assume(abs(s.b2) > _tol(1e-12, z, p))
    u = complex(nf.post.inverse()((s.w + s.r) / 2.0)[()])
    depth = _depth(leaf, u)
    assert depth <= _tol(1e-12, z, p), (expr, z, depth)


F_STARS = st.one_of(
    st.floats(0.2, 0.95).map(lambda x: MobiusShift(StripShift(x))),
    annulus(0.1, 10.0).map(MobiusOfStrip),
)


@settings(max_examples=200, deadline=None)
@given(F_STARS, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_f_star_reflects_the_strip_axis_to_the_cusp(expr, t):
    """The strip leaf reflects its real diameter to infinity, so on
    z = pre^-1(t), t in (-1, 1), R_w is the cusp post(inf) at interior
    points of a strip map under a non-affine post.  The error grows as
    the cusp recedes (small x or a), so x >= 0.2 and |a| >= 0.1."""
    nf = normal_form(expr)
    assert not nf.post.is_affine
    z = _disk_point(nf, t)
    assume(abs(z) <= 0.999)
    cusp = nf.post.at_infinity()
    s = reflect(expr, z)
    assert abs(s.r - cusp) <= _tol(1e-12, z, t) * abs(cusp), (expr, t, s.r, cusp)


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.9, 0.9), PROBES)
def test_disk_reflection_is_inversion_in_the_image_circle(x, z):
    """z/(1 + x z) maps |z| = 1 onto the circle with centre -x/(1 - x^2)
    and radius 1/(1 - x^2); the centre reflects to infinity."""
    centre, radius = -x / (1.0 - x * x), 1.0 / (1.0 - x * x)
    s = reflect(Disk(x), z)
    if s.r_is_inf:
        assert abs(s.w - centre) <= 1e-12 * radius, (x, z)
        return
    want = centre + radius ** 2 / np.conj(s.w - centre)
    assert abs(s.r - want) <= _tol(1e-12, z) * abs(want - centre), (x, z, s.r, want)


# The same identities with `Domain` as the oracle: the distance to the
# image's boundary and its special points, in closed form from the normal
# form, with no leaf formula of the tests above.

INNER = annulus(0.0, 0.95)


@settings(max_examples=200, deadline=None)
@given(ANGLES, ONE_LAYER, INNER)
def test_half_plane_midpoints_are_on_the_domain_boundary(t, layer, z):
    expr = _wrap(Halfplane(polar(1.0, t)), layer)
    domain = Domain.of(expr)
    s = reflect(expr, z)
    off = domain.boundary_distance((s.w + s.r) / 2.0)[()]
    assert off <= _tol(1e-12, z, leaf_point(domain.nf, z)) * abs(s.w - s.r), (expr, z, off)


@settings(max_examples=200, deadline=None)
@given(SECTORS, ONE_LAYER, INNER)
def test_the_domain_vertex_is_as_far_from_r_w_as_from_w(sector, layer, z):
    """special_points()[0] is the vertex post(v), and every mediatrix
    passes through it."""
    leaf, vertex = sector
    expr = _wrap(leaf, layer)
    domain = Domain.of(expr)
    v = domain.special_points()[0]
    s = reflect(expr, z)
    tol = _tol(1e-12, z, leaf_point(domain.nf, z)) * abs(s.w - v)
    assert abs(v - domain.nf.post(vertex)[()]) <= tol, (expr, v)
    assert abs(abs(s.r - v) - abs(s.w - v)) <= tol, (expr, z)


@settings(max_examples=200, deadline=None)
@given(F_STARS, ONE_LAYER, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_f_star_reflects_the_strip_axis_to_the_domain_cusp(f_star, layer, t):
    """A layer keeps post non-affine, so the cusp post(inf) stays finite and
    is the only special point of the strip leaf.  R_w rounds to about
    eps (|w| + |R_w - w|), and an affine layer can put the cusp at 0, so
    the scale is |cusp| + |w - cusp|."""
    expr = _wrap(f_star, layer)
    domain = Domain.of(expr)
    (cusp,) = domain.special_points()
    z = _disk_point(domain.nf, t)
    assume(abs(z) <= 0.95)
    s = reflect(expr, z)
    assert abs(s.r - cusp) <= _tol(1e-12, z, t) * (abs(cusp) + abs(s.w - cusp)), (expr, t, s.r, cusp)


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.9, 0.9), ONE_LAYER, INNER)
def test_domain_distance_ratio_of_a_disk_is_radius_over_distance_to_centre(x, layer, z):
    """Inversion in the image circle, centre c and radius rho, sends w at
    distance rho - |w - c| from the boundary to R_w at distance
    rho (rho - |w - c|) / |w - c|: their ratio is rho / |w - c|.  Near
    the centre the ratio takes the rounding of w and c, about
    eps (|w| + |c|) relative to |w - c|."""
    expr = _wrap(Disk(x), layer)
    domain = Domain.of(expr)
    post = domain.nf.post
    centre = post(-x / (1.0 - x * x))[()]
    radius = abs(post.a / post.d) / (1.0 - x * x)
    s = reflect(expr, z)
    assume(not s.r_is_inf)
    got = domain.boundary_distance(s.r)[()] / domain.boundary_distance(s.w)[()]
    want = radius / abs(s.w - centre)
    near_centre = 16.0 * EPS * (abs(s.w) + abs(centre)) / abs(s.w - centre)
    tol = _tol(1e-12, z, leaf_point(domain.nf, z)) + near_centre
    assert abs(got - want) <= tol * want, (expr, z, got, want)
