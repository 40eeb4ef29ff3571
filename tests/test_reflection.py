"""Reflection anchors, geometric oracles, and Mobius equivariance.

For maps whose image boundary is a circle or a line, the anti-conformal
reflection has an elementary closed form (circle inversion, line
mirror).  The jet-built reflection must reproduce those exactly; that
pins the formula independently of any series bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awr.catalog import FIXTURE_EXPRS
from awr.errors import DomainViolation
from awr.expr import Disk, Halfplane, Identity, Strip
from awr.extended import chordal, is_infinite
from awr.grids import GridMeta, grid_points
from awr.reflection import extend, local_b2, reflect, reflect_grid
from awr.evaluate import jet_eval

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
