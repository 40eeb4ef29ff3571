"""Unit and property tests for third-order jet arithmetic.

The reference model is a degree-3 polynomial: a jet at base point b is
exactly the derivative tuple of some cubic there, and every arithmetic
operation must agree with doing the algebra on the polynomials and
re-extracting derivatives.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from awr.catalog import FIXTURE_EXPRS
from awr.errors import BasePointMismatch, DegenerateDomain, PoleAtPoint
from awr.evaluate import jet_eval
from awr.grids import ring_points
from awr.jets import BASE_TOL, Jet3, extremum
from awr.nehari import nehari_functional
from awr.parser import parse_expr

finite_c = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
unit_c = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def jets(base=finite_c):
    return st.builds(
        Jet3, f0=finite_c, f1=finite_c, f2=finite_c, f3=finite_c, at=base
    )


def poly_from_jet(j: Jet3):
    """Cubic with the same derivatives at j.at: coefficients in (z - at)."""
    return np.array([j.f0, j.f1, j.f2 / 2.0, j.f3 / 6.0])


def jet_from_poly(c, at) -> Jet3:
    return Jet3(c[0], c[1], 2.0 * c[2], 6.0 * c[3], at)


def poly_mul(a, b):
    """Product of two cubics truncated back to degree 3."""
    out = np.zeros(4, dtype=complex)
    for i in range(4):
        for k in range(4 - i):
            out[i + k] += a[i] * b[k]
    return out


def close(a: Jet3, b: Jet3, tol=1e-9) -> bool:
    vals = []
    for x, y in ((a.f0, b.f0), (a.f1, b.f1), (a.f2, b.f2), (a.f3, b.f3)):
        vals.append(abs(x - y) / max(1.0, abs(x), abs(y)))
    return max(vals) <= tol


@given(jets(), jets())
def test_add_matches_polynomial_model(a, b):
    b = Jet3(b.f0, b.f1, b.f2, b.f3, a.at)
    want = jet_from_poly(poly_from_jet(a) + poly_from_jet(b), a.at)
    assert close(a + b, want, 1e-12)


@given(jets(), jets())
def test_mul_matches_polynomial_model(a, b):
    b = Jet3(b.f0, b.f1, b.f2, b.f3, a.at)
    want = jet_from_poly(poly_mul(poly_from_jet(a), poly_from_jet(b)), a.at)
    assert close(a * b, want, 1e-9)


@given(jets())
def test_invert_is_involutive(a):
    if abs(a.f0) < 0.1:
        a = Jet3(a.f0 + 1.0, a.f1, a.f2, a.f3, a.at)
    twice = a.invert().invert()
    assert close(a, twice, 1e-7)


@given(jets())
def test_invert_times_self_is_one(a):
    if abs(a.f0) < 0.1:
        a = Jet3(a.f0 + 1.0, a.f1, a.f2, a.f3, a.at)
    prod = a * a.invert()
    one = Jet3.constant(1.0, a.at)
    assert close(prod, one, 1e-8)


@given(jets(base=unit_c))
def test_compose_with_identity_both_sides(a):
    ident_inner = Jet3.identity(a.at)
    assert close(a.compose(ident_inner), a, 1e-12)
    ident_outer = Jet3.identity(a.f0)
    got = ident_outer.compose(a)
    assert close(got, a, 1e-12)


@given(st.data())
def test_compose_associativity(data):
    """(f o g) o h == f o (g o h) whenever the base points chain up."""
    h = data.draw(jets(base=unit_c))
    g = data.draw(jets())
    f = data.draw(jets())
    g = Jet3(g.f0, g.f1, g.f2, g.f3, h.f0)
    f = Jet3(f.f0, f.f1, f.f2, f.f3, g.f0)
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    assert close(lhs, rhs, 1e-9)


@given(st.data())
def test_compose_chain_rule_on_polynomials(data):
    """Composition agrees with substituting one cubic into another."""
    h = data.draw(jets(base=unit_c))
    f = data.draw(jets())
    f = Jet3(f.f0, f.f1, f.f2, f.f3, h.f0)
    got = f.compose(h)

    cf = poly_from_jet(f)
    inner_shift = np.array([0.0, h.f1, h.f2 / 2.0, h.f3 / 6.0])
    acc = np.array([cf[3], 0, 0, 0], dtype=complex)
    for k in (2, 1, 0):
        acc = poly_mul(acc, inner_shift)
        acc[0] += cf[k]
    want = jet_from_poly(acc, h.at)
    assert close(got, want, 1e-8)


def test_compose_base_mismatch_raises():
    outer = Jet3.identity(1.0 + 0.0j)
    inner = Jet3.constant(2.0, 0.0 + 0.0j)
    with pytest.raises(BasePointMismatch):
        outer.compose(inner)


def test_add_base_mismatch_raises():
    with pytest.raises(BasePointMismatch):
        Jet3.identity(0.0 + 0.0j) + Jet3.identity(1.0 + 0.0j)


def test_base_tolerance_accepts_tiny_drift():
    a = Jet3.identity(0.5 + 0.0j)
    b = Jet3.identity(0.5 + BASE_TOL / 4)
    assert close(a + b, Jet3(1.0, 2.0, 0.0, 0.0, 0.5), 1e-9)


def test_invert_at_zero_value_raises():
    with pytest.raises(PoleAtPoint):
        Jet3.constant(0.0, 0.0 + 0.0j).invert()


def test_array_jets_broadcast():
    at = np.array([0.1 + 0.0j, 0.2 + 0.1j, -0.3 + 0.2j])
    j = Jet3.identity(at)
    k = (j * j + 1.0).invert()
    w = 1.0 / (at * at + 1.0)
    assert np.allclose(k.f0, w)
    assert np.allclose(k.f1, -2.0 * at * w * w)


# One rule for singular points: an array jet masks them with NaN, and the
# other entries keep the bits they have without them.

MASK_EXPRS = FIXTURE_EXPRS + tuple(
    (text.split("(")[0], parse_expr(text))
    for text in ("mobius-shift(sector(a=0.5))", "koebe(strip, z0=0.3+0.2i)",
                 "affine(mobius-of-strip(a=0.25+0i), a=2+0i, b=0+1i)")
)
# the ring just inside the unit circle, where some moduli round to 1
EDGE = ring_points((np.nextafter(1.0, 0.0),), 4096)[0]


@pytest.mark.parametrize("name, expr", MASK_EXPRS, ids=[n for n, _ in MASK_EXPRS])
def test_array_jet_masks_exactly_the_points_off_the_open_disk(name, expr):
    inner = ring_points((0.0, 0.5, 0.9, 0.999), 256).ravel()
    z = np.concatenate([inner, EDGE])
    masked = np.abs(z) >= 1.0
    assert 0 < np.sum(masked) < EDGE.size
    got = jet_eval(expr, z)
    alone = jet_eval(expr, z[~masked])
    assert np.array_equal(np.isnan(got.f0), masked)
    for field in ("f0", "f1", "f2", "f3"):
        assert np.all(np.isnan(getattr(got, field)[masked])), field
        assert getattr(got, field)[~masked].tobytes() == getattr(alone, field).tobytes(), field


@pytest.mark.parametrize("text", ["identity", "affine(identity, a=2+0i, b=0+1i)", "disk(x=0.5)"])
def test_masked_points_score_nan(text):
    """The Nehari functional skips a masked point on every map: the identity
    jet masks its derivatives like any other leaf."""
    masked = np.abs(EDGE) >= 1.0
    assert np.sum(masked) == 598
    score = nehari_functional(parse_expr(text), EDGE)  # quiet: it owns its errstate
    assert np.array_equal(np.isnan(score), masked)


# samples that tie (+-0, repeated values) or are masked or infinite, mixed
# with ordinary ones
samples = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-4.0, max_value=4.0),
)


@given(st.lists(samples, min_size=1, max_size=24), st.booleans())
@example([math.nan, math.inf, math.inf], False)
@example([math.nan, -math.inf], True)
@example([0.0, -0.0, math.nan], False)
@example([math.nan, math.nan], True)
def test_extremum_agrees_with_numpy_nan_reductions(xs, largest):
    """extremum picks the sample np.nanargmin or np.nanargmax picks, sign of
    zero included, except that numpy can land on a NaN when every kept sample
    is infinite: extremum then takes the first kept one.  An all-NaN array is
    refused."""
    vals = np.asarray(xs)
    if np.all(np.isnan(vals)):
        with pytest.raises(DegenerateDomain):
            extremum(vals, largest)
        return
    want = int(np.nanargmax(vals) if largest else np.nanargmin(vals))
    if np.isnan(vals[want]):
        want = int(np.flatnonzero(vals == (-np.inf if largest else np.inf))[0])
    k, v = extremum(vals, largest)
    assert k == want
    assert v == vals[want] and math.copysign(1.0, v) == math.copysign(1.0, vals[want])
    assert extremum(vals.reshape(1, -1), largest) == (k, v)  # a grid gives its flat index
