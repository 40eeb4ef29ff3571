"""Reflection anchors, geometric oracles, and Mobius equivariance.

For maps whose image boundary is a circle or a line, the anti-conformal
reflection has an elementary closed form (circle inversion, line
mirror).  The jet-built reflection must reproduce those exactly; that
pins the formula independently of any series bookkeeping.

The paper's extremal cases are pinned the same way, on composites drawn
by hypothesis: every mediatrix of a sector passes through its vertex,
the midpoint of a half-plane reflection lies on the edge, and the
paper's f* = f/(1 + a2 f) of a strip map reflects the strip's axis to
its cusp.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awr.catalog import FIXTURE_EXPRS
from awr.errors import DomainViolation
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
from awr.extended import chordal, is_infinite
from awr.grids import GridMeta, grid_points
from awr.reflection import extend, local_b2, reflect, reflect_grid
from awr.evaluate import jet_eval, normal_form, sector_auto_params

from conftest import disk_points, mobius_equivariance_check, random_mobius


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


def test_extend_matches_reflection_of_inverted_point():
    z = 1.6 - 0.4j
    got = extend(Disk(0.5), z)
    want = reflect(Disk(0.5), 1.0 / np.conjugate(z)).r
    assert abs(got - want) < 1e-14


def test_extend_rejects_points_inside():
    with pytest.raises(DomainViolation):
        extend(Disk(0.5), 0.5 + 0.2j)


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
    rng = np.random.default_rng(seed)
    m = random_mobius(rng)
    zs = disk_points(seed % 500, 30, rmax=0.9)
    j = jet_eval(Strip(), zs)
    applied = m.apply_jet(j)
    direct = m(j.f0)
    ok = np.isfinite(direct)
    assert np.max(np.abs(applied.f0 - direct)[ok]) < 1e-10


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


def _unit(t):
    return complex(math.cos(t), math.sin(t))


angles = st.floats(0.0, 2.0 * math.pi)


def _polar(rmin, rmax):
    """Complex numbers with rmin <= |z| <= rmax."""
    return st.tuples(st.floats(rmin, rmax), angles).map(lambda p: p[0] * _unit(p[1]))


PROBES = _polar(0.0, 0.999)
# At most one layer with an affine post: a recentering or an affine map.
ONE_LAYER = st.one_of(
    st.none(),
    _polar(0.0, 0.9).map(lambda z0: ("koebe", z0)),
    st.tuples(_polar(0.2, 5.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda p: ("affine", p[0], complex(p[1], p[2]))),
)
# A sector leaf with its vertex, the image of z = -1.
SECTORS = st.one_of(
    st.floats(0.1, 0.9).map(lambda a: (SectorReal(a), -0.5 / a)),
    _polar(0.0, 0.8).map(lambda a: (SectorAuto(a), sector_auto_params(a)[2])),
)


def _wrap(leaf, layer):
    if layer is None:
        return leaf
    if layer[0] == "koebe":
        return Koebe(leaf, layer[1])
    return Affine(leaf, *layer[1:])


def _leaf_point(nf, z):
    """pre(z): the point of the leaf's disk that z stands for."""
    return nf.pre.lam * (z - nf.pre.a) / (1.0 - np.conj(nf.pre.a) * z)


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
    assert gap <= _tol(1e-12, z, _leaf_point(nf, z)) * abs(s.w - v), (expr, z, gap)


@settings(max_examples=200, deadline=None)
@given(angles, ONE_LAYER, PROBES)
def test_half_plane_midpoints_lie_on_the_edge(t, layer, z):
    """z/(1 + c z) maps |z| = 1 onto Re(c u) = 1/2, and the reflection is
    the mirror in that line, so the midpoint of w and R_w is on the edge;
    an affine post u -> A u + B carries the line to the image's edge."""
    c = _unit(t)
    expr = _wrap(Halfplane(c), layer)
    nf = normal_form(expr)
    assert nf.post.is_affine
    s = reflect(expr, z)
    u = complex(nf.post.inverse()((s.w + s.r) / 2.0)[()])
    scale = abs(nf.post.a / nf.post.d)  # |A|: leaf lengths to image lengths
    off = abs((c * u).real - 0.5) * scale
    assert off <= _tol(1e-11, z, _leaf_point(nf, z)) * abs(s.w - s.r), (expr, z, off)


F_STARS = st.one_of(
    st.floats(0.2, 0.95).map(lambda x: MobiusShift(StripShift(x))),
    _polar(0.1, 10.0).map(MobiusOfStrip),
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
    u = t / nf.pre.lam
    z = (u + nf.pre.a) / (1.0 + np.conj(nf.pre.a) * u)
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
