"""Weighted-Schwarzian certification fixtures and invariance properties.

Sup values for the wedge family are exact closed forms: the functional
of a sector map with aperture exponent alpha peaks at 2(1 - alpha^2)
on the real diameter, and every strip-built map peaks at exactly 2.
Mobius maps have Schwarzian zero, so their sup is zero.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awr.catalog import FIXTURE_EXPRS
from awr.expr import Disk, Halfplane, Identity, Koebe, MobiusOfStrip, SectorReal, Strip
from awr.grids import GridMeta
from awr.jets import Jet3
from awr.nehari import (
    NEHARI_TOL,
    certify_nehari,
    nehari_functional,
    schwarzian,
    schwarzian_jet,
)
from awr.evaluate import jet_eval

from conftest import disk_points, random_mobius

SUP_TABLE = {
    "identity": (0.0, 1e-12),
    "disk": (0.0, 1e-12),
    "halfplane": (0.0, 1e-12),
    "sector": (1.5, 1e-9),
    "sector-auto": (0.875, 1e-9),
    "strip": (2.0, 1e-9),
    "strip-shift": (2.0, 1e-9),
    "mobius-of-strip": (2.0, 1e-9),
}


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_certification_sup_values(name, expr):
    report = certify_nehari(expr)
    want, tol = SUP_TABLE[name]
    assert abs(report.sup_estimate - want) <= tol, report.sup_estimate
    assert report.passed
    assert report.n_failed == 0
    assert abs(report.t_parameter - report.sup_estimate / 2.0) < 1e-15


def test_strip_sup_attained_on_real_axis():
    report = certify_nehari(Strip())
    assert abs(report.arg_sup.imag) < 1e-6
    assert 0.9 < abs(report.arg_sup) < 1.0


def test_mobius_primitives_have_zero_schwarzian():
    zs = disk_points(2, 200, rmax=0.95)
    for expr in (Identity(), Disk(0.5), Disk(-0.8), Halfplane(-1.0), Halfplane(1.0)):
        s = schwarzian(expr, zs)
        assert np.max(np.abs(s)) < 1e-12, expr


def test_functional_weight_vanishes_on_circle_limit():
    """(1-|z|^2)^2 |S| for the strip tends to 2 along the real axis and
    to 0 along the imaginary axis."""
    t = np.array([0.9, 0.99, 0.999])
    real_val = nehari_functional(Strip(), t)
    imag_val = nehari_functional(Strip(), 1j * t)
    assert np.max(np.abs(real_val - 2.0)) < 1e-12
    assert imag_val[-1] < imag_val[0] < 0.5


# Near the pole of M the term 2 c f'/(c f + d) dominates (M o f)''/(M o f)',
# and the Schwarzian of the moved jet cancels its square down to Sf, so
# rounding grows with that square.  Points where it exceeds this are
# skipped; below it the cancellation costs well under 1e-9.
POLE_TERM_MAX = 1e2


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=83271)  # a halfplane image point 0.005 from the pole of M
@settings(max_examples=40, deadline=None)
def test_schwarzian_invariant_under_mobius_postcomposition(seed):
    rng = np.random.default_rng(seed)
    mob = random_mobius(rng)
    zs = disk_points(seed % 1000, 60, rmax=0.9)
    for _, expr in FIXTURE_EXPRS[:6]:
        j = jet_eval(expr, zs)
        base = schwarzian_jet(j)
        moved = mob.apply_jet(j)
        pole_term = np.abs(mob.c * j.f1 / (mob.c * j.f0 + mob.d))
        ok = np.isfinite(moved.f0) & (np.abs(moved.f1) > 1e-12) & (pole_term <= POLE_TERM_MAX)
        got = schwarzian_jet(moved)
        resid = np.abs(got - base)[ok]
        scale = np.maximum(1.0, np.abs(base[ok]))
        assert np.max(resid / scale) < 1e-9


@given(
    x=st.floats(-0.8, 0.8),
    y=st.floats(-0.8, 0.8),
)
@settings(max_examples=30, deadline=None)
def test_nehari_functional_is_automorphism_invariant(x, y):
    """The weighted functional of the recentred map at z equals the
    functional of the original at sigma(z): the weight transforms with
    |sigma'| exactly as the Schwarzian does."""
    z0 = complex(x, y)
    if abs(z0) > 0.85:
        z0 = 0.85 * z0 / abs(z0)
    zs = disk_points(7, 40, rmax=0.8)
    sigma = (zs + z0) / (1.0 + np.conjugate(z0) * zs)
    for expr in (Strip(), SectorReal(0.5), MobiusOfStrip(0.25)):
        moved = Koebe(expr, z0)
        got = nehari_functional(moved, zs)
        want = nehari_functional(expr, sigma)
        assert np.max(np.abs(got - want)) < 1e-8


def test_schwarzian_koebe_cocycle():
    """S(f o sigma)(z) = Sf(sigma(z)) sigma'(z)^2; the affine layer of
    the Koebe transform contributes nothing."""
    z0 = 0.3 - 0.2j
    zs = disk_points(9, 50, rmax=0.85)
    sigma = (zs + z0) / (1.0 + np.conjugate(z0) * zs)
    dsigma = (1.0 - abs(z0) ** 2) / (1.0 + np.conjugate(z0) * zs) ** 2
    for _, expr in FIXTURE_EXPRS:
        got = schwarzian(Koebe(expr, z0), zs)
        want = schwarzian(expr, sigma) * dsigma**2
        resid = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.max(resid) < 1e-9, expr


def test_certify_respects_explicit_grid():
    meta = GridMeta(rings=(0.0, 0.5), angles=64)
    report = certify_nehari(SectorReal(0.5), meta)
    assert report.grid is meta
    # the origin ring alone already sees the closed-form value 1.5
    assert report.sup_estimate >= 1.5 - 1e-9
    assert report.sup_estimate <= 1.5 + NEHARI_TOL


def test_certification_tolerance_is_tight():
    report = certify_nehari(MobiusOfStrip(0.25j))
    assert report.sup_estimate <= 2.0 + 1e-12
    assert report.sup_estimate >= 2.0 - 1e-9
