"""The normal form f = post(leaf(pre(z))) and what is read from it, and the
normalization (f - f(0))/f'(0) that every coefficient rule reads.

pre is kept as lam (z - a) / (1 - conj(a) z), so nested recenterings
stay disk automorphisms and the strip-end boundary factors stay positive
however deep the recentering.  The jet evaluator, which never goes
through the normal form, is the reference for the values.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import AFFINE, ANGLES, KOEBE, LAYERS, LEAVES, annulus, build, leaf_point, wrap

from awr.catalog import BOUNDED, FIXTURE_EXPRS, build_map, validate_convexity
from awr.convexity import coefficient_bound_scan, proof_machinery_check
from awr.deepscan import deep_min, strip_ends, strip_structure
from awr.domain import Domain
from awr.errors import CoincidentPoints, DegenerateDomain
from awr.evaluate import A2_ZERO_TOL, Mobius, jet_eval, normal_form, normalization, taylor
from awr.extended import INFINITY, is_infinite
from awr.expr import (
    Affine,
    Disk,
    Halfplane,
    Koebe,
    MobiusOfStrip,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from awr.grids import polar, ring_points
from awr.jets import extremum
from awr.nehari import certify_nehari
from awr.parser import format_expr, parse_expr
from awr.quasidisk import (
    CLUSTER_ANGLES,
    CLUSTER_RING,
    delta_f,
    koebe_omission_scan,
    near_one_clusters,
    normalize_values,
    normalized_sup,
    quasidisk_ratio_scan,
)

# Composites of the seed-3 composite-certify stream whose deep recentering
# drove a matrix-product pre off the automorphism group: the strip-end
# boundary factor came out complex and strip_ends refused it.
DRIFT_CASES = (
    "koebe(affine(koebe(strip, z0=-0.497072151135-0.838296539055i), a=-0.464181685257"
    "+0.241070000666i, b=1.20494405357-0.350587801718i), z0=0.604275434228-0.796772166256i)",
    "koebe(koebe(affine(mobius-shift(strip), a=-0.922547270062+1.45142794965i, b=-1.31978140929"
    "-0.748185803774i), z0=0.694192715236+0.719788945333i), z0=-0.987657204886+0.0581491192558i)",
    "koebe(koebe(affine(mobius-of-strip(a=-0.135337892082-0.50591136928i), a=0.504438414806"
    "-0.00264493198627i, b=-0.729785514611-0.129041094438i), z0=0.965449399312-0.260109276516i),"
    " z0=-0.362019352913-0.932158440164i)",
    "koebe(koebe(affine(strip-shift(x=0.39918809413), a=-0.537079389515+0.0949990344739i,"
    " b=-0.229458611966+0.867109187538i), z0=-0.00997930703884-0.0116009886488i),"
    " z0=-0.993412057427+0.114596021655i)",
    "koebe(koebe(mobius-of-strip(a=0.410686324179+0.087815814072i), z0=0.98548384946"
    "+0.161906646768i), z0=-0.991433297204+0.130612165658i)",
    "koebe(koebe(affine(strip, a=1.1856753269+1.3437043489i, b=0.809011608236-0.208060930548i),"
    " z0=0.017232301646+0.999851011279i), z0=0.475561258968-0.879682482028i)",
)


@pytest.mark.parametrize("text", DRIFT_CASES, ids=[f"drift{k}" for k in range(len(DRIFT_CASES))])
def test_deep_recentering_keeps_strip_ends_positive(text):
    expr = parse_expr(text)
    for end in strip_ends(strip_structure(expr)):
        assert math.isfinite(end.kappa) and end.kappa > 0.0
    assert delta_f(expr).value >= 0.0
    assert koebe_omission_scan(expr).inf_value >= 0.0
    assert certify_nehari(expr).passed


def test_strip_structure_is_the_strip_leaf_view():
    for name, expr in FIXTURE_EXPRS:
        nf = normal_form(expr)
        assert (strip_structure(expr) is not None) == isinstance(nf.leaf, Strip), name
    assert normal_form(StripShift(0.7)) == normal_form(Koebe(Strip(), 0.7j))
    assert normal_form(SectorAuto(0.5)).leaf == SectorAuto(0.5)


def test_deep_min_keeps_the_earliest_tie():
    struct = strip_structure(StripShift(0.7))
    assert deep_min(struct, lambda deep: np.zeros(deep.size), 3, 65) == (
        0.0, strip_ends(struct)[0].omega)
    assert deep_min(struct, np.abs, 0, 65) == (math.inf, None)


def test_tiny_affine_scales_are_not_singular():
    """post multiplies the affine layers of every map, so their product may
    be a scaling like w -> 1e-15 w: small, but no cancellation."""
    expr = Koebe(Affine(Affine(Disk(0.5), 1e-8, 0.0), 1e-7, 0.0), 0.3)
    assert build_map(expr).bounded_hint == BOUNDED
    assert Mobius(1e-15, 0.0, 0.0, 1.0)(2.0) == 2e-15
    for singular in ((1.0, 1.0, 1.0, 1.0), (1e-8, 1e-8, 1e-8, 1e-8)):
        with pytest.raises(CoincidentPoints):
            Mobius(*singular)


NAN = complex(np.nan, 0.0)


def _same_point(got, want):
    """Equal, or both the point at infinity, or both NaN."""
    if is_infinite(want):
        return bool(is_infinite(got))
    if np.isnan(want):
        return bool(np.isnan(got)) and not is_infinite(got)
    return got == want


@pytest.mark.parametrize("mob, special, images", [
    # affine: infinity is fixed, and no finite point is a pole
    (Mobius(2.0, 1.0 - 1.0j, 0.0, 1.0), [INFINITY, NAN], [INFINITY, NAN]),
    # infinity goes to a/c = 2, and the pole -d/c = -3 to infinity
    (Mobius(2.0, 1.0, 1.0, 3.0), [INFINITY, -3.0, NAN], [2.0, INFINITY, NAN]),
])
def test_mobius_values_at_infinity_pole_nan_and_finite_points(mob, special, images):
    finite = [0.5 + 0.25j, -1.0j, 7.0 - 2.0j]
    got = mob(np.array(special + finite, dtype=complex))
    assert got.dtype == complex and got.shape == (len(special) + len(finite),)
    for g, want in zip(got, images):
        assert _same_point(g, want), (g, want)
    want = [(mob.a * z + mob.b) / (mob.c * z + mob.d) for z in finite]
    np.testing.assert_allclose(got[len(special):], want, rtol=1e-15, atol=0.0)
    # a scalar takes the same path: a 0-d array with the same bits
    for z, w in zip(special + finite, got):
        out = mob(z)
        assert np.ndim(out) == 0 and _same_point(out[()], w), (z, out, w)


# Maps whose post is not affine, so post sends infinity to a finite a/c.
NON_AFFINE_POSTS = (
    "mobius-shift(sector(a=0.5))",
    "mobius-of-strip(a=0.25+0i)",
    "koebe(mobius-shift(disk(x=0.5)), z0=0.3+0.2i)",
    "affine(mobius-shift(halfplane(c=0.6+0.8i)), a=2+1i, b=0+1i)",
    "mobius-shift(strip-shift(x=0.7))",
)


@pytest.mark.parametrize("text", [format_expr(expr) for _, expr in FIXTURE_EXPRS]
                         + ["mobius-shift(koebe(strip, z0=0.3+0i))", *NON_AFFINE_POSTS])
def test_post_sends_infinity_where_at_infinity_says(text):
    """One rule for "affine": post(inf) is at_infinity() on both paths.

    a2 of koebe(strip, z0=0.3+0i) reads -5.55e-17 rather than 0, so its
    shift's post has that c: it is affine, and sends infinity to
    infinity, where it once went to a/c = -1.8e16."""
    post = normal_form(parse_expr(text)).post
    assert _same_point(post(INFINITY)[()], post.at_infinity())
    assert _same_point(post(np.array([INFINITY, 1.0]))[0], post.at_infinity())
    if text in NON_AFFINE_POSTS:
        assert not post.is_affine and not is_infinite(post.at_infinity())


# the shared leaves, with mobius-of-strip's |a| reaching 2
NF_LEAVES = st.one_of(LEAVES, annulus(1.0, 2.0).map(MobiusOfStrip))
@settings(max_examples=150, deadline=None)
@given(NF_LEAVES, LAYERS, st.one_of(KOEBE, AFFINE))
# post's c is 1.7e-13 against a = d = 1; scaling a by 2 once made it "affine"
@example(Strip(), [("K", polar(1e-13, 1.0)), ("M",)], ("A", (2.0 + 0j, 0j)))
def test_boundedness_is_invariant_under_koebe_and_affine(leaf, layers, extra):
    expr = build(leaf, layers)
    bounded = Domain.of(expr).bounded
    assert Domain.of(wrap(expr, extra)).bounded == bounded
    if isinstance(leaf, MobiusOfStrip) and all(layer[0] != "M" for layer in layers):
        # the image is bounded iff the pole -1/a misses |Im v| <= pi/4
        a = leaf.a
        gap = abs(a.imag) - 0.25 * math.pi * abs(a) ** 2
        assume(abs(gap) > 1e-9 * abs(a) ** 2)
        assert bounded == (gap > 0)


@settings(max_examples=150, deadline=None)
@given(NF_LEAVES, LAYERS, annulus(0.0, 0.9))
def test_normal_form_reproduces_the_map(leaf, layers, probe):
    expr = build(leaf, layers)
    nf = normal_form(expr)
    z = np.array([probe])
    f = jet_eval(expr, z).f0[0]
    # A mobius-shift may put a pole of post on or inside the image; next
    # to it both routes lose all relative accuracy, so such points are out.
    assume(np.isfinite(f) and abs(f) < 1e6)
    g = nf.post(jet_eval(nf.leaf, leaf_point(nf, z)).f0)[0]
    # Each route rounds every layer once; the error is eps times the
    # product of the layers' condition numbers.  With |z|, |z0| <= 0.9
    # and at most three layers, |pre(z)| stays about 1e-4 inside the
    # circle, so the leaf's condition number (about 1/(1 - |pre(z)|) for
    # the strip and the sectors) and post's (bounded by |f| < 1e6) leave
    # the error far below 1e-10.  The bound is not derived more closely;
    # 3,000 random draws stayed under 1e-13.
    assert abs(g - f) <= 1e-10 * max(1.0, abs(f))


# The paper's coefficient rules hold for f(0) = 0 and f'(0) = 1; every rule
# reads F = (f - f(0))/f'(0) through evaluate.normalization.


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_fixtures_are_normalized_so_c_is_their_a2_to_the_bit(name, expr):
    """Every fixture has f(0) = 0 and f'(0) = 1 exactly, so c = a2/f'(0)^2 is
    a2 with its signed zeros, and every rule reads the bits it read before."""
    f0, a1, c = normalization(expr)
    a2 = taylor(expr)[1]
    assert (f0, a1, c) == (0j, 1 + 0j, a2)
    signs = [math.copysign(1.0, v) for z in (f0, c, a2) for v in (z.real, z.imag)]
    assert signs[:2] == [1.0, 1.0] and signs[2:4] == signs[4:]


def test_a_koebe_recentering_reads_as_normalized():
    """A koebe recentering is normalized by construction, but its computed
    f(0) and f'(0) are 0 and 1 only to rounding; they read as exactly 0 and
    1, so c is its a2 and every rule keeps the bits of f itself."""
    expr = Koebe(Disk(0.5), -0.9 + 0.1j)
    j = jet_eval(expr, 0j)
    assert complex(j.f0) != 0 and complex(j.f1) != 1
    assert normalization(expr) == (0j, 1 + 0j, taylor(expr)[1])


def test_c_vanishes_relative_to_the_first_coefficient():
    """c is exactly 0 where |a2| <= A2_ZERO_TOL |f'(0)|, the one test of a2
    against that tolerance: a tiny image keeps its c, a tiny a2 loses it."""
    for scale in (1e-12, 1e-6, 1e6):
        f0, a1, c = normalization(Affine(MobiusOfStrip(0.25 + 0j), scale + 0j, 1j))
        assert (f0, a1) == (1j, scale + 0j) and c == pytest.approx(-0.25 / scale, rel=1e-15)
    assert normalization(MobiusOfStrip(1e-13 + 0j))[2] == 0


EPS = np.finfo(float).eps
# |A| log-uniform on [1e-6, 1e6], with draws weighted to both ends
OUTER_SCALES = st.tuples(st.one_of(st.floats(-6.0, 6.0), st.floats(5.0, 6.0), st.floats(-6.0, -5.0)),
                         ANGLES).map(lambda p: polar(10.0 ** p[0], p[1]))
OUTER_SHIFTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda p: complex(*p))


def _refusal(scan, expr):
    """The scan's report, or None where it refuses as ill-posed."""
    try:
        return scan(expr)
    except DegenerateDomain:
        return None


def _agree(got, want, value, threshold, tol):
    """Two verdicts agree unless value is within tol of its threshold."""
    assert got == want or abs(value - threshold) <= tol


@settings(max_examples=40, deadline=None)
@given(LEAVES, LAYERS, OUTER_SCALES, OUTER_SHIFTS)
@example(SectorReal(0.5), [], 10 + 0j, 0j)  # inf_lhs read -49.988820, passed = False
@example(SectorReal(0.5), [], 10 + 0j, -2 + 0j)
@example(Halfplane(-1 + 0j), [], 3 + 0j, 0j)  # delta read 2.833289e-13, not 3 x 0.5
@example(Halfplane(-1 + 0j), [], 1 + 0j, 1 + 0j)  # zeta0.slack read -8.221111
@example(Halfplane(-1 + 0j), [], 1e-13 + 0j, 0j)  # the ratio scan refused it as strip-conjugate
@example(MobiusOfStrip(0.25 + 0j), [], 1e-12 + 0j, 0j)  # omitted_on_boundary read False
def test_coefficient_rules_read_the_normalized_map(leaf, layers, scale, shift):
    """Every rule that reads a2 gives g and affine(g, a=A, b=B) one verdict.

    A map with |a2(F)| at A2_ZERO_TOL itself (koebe(identity, z0=1e-12+0i))
    sits on the cut that makes c exactly 0, and rounding may put g and f on
    either side of it; such draws are skipped.

    The bound tol = 1e-6 + 1e5 eps |B|/|A| has two terms.  1e-6 covers the
    refinements toward the unit circle, whose golden-section steps branch
    apart on values that differ in the last bit and so stop at different
    samples of a steep function.  The second is the cancellation in
    f - f(0): f = A g + B carries eps |B| of rounding, which is eps |B|/|A|
    on F's scale, and the proof check divides differences of f by
    (z - zeta)^2 with |z - zeta| down to about 0.01 on its rings, which
    multiplies it by up to 1e4.  A boolean verdict
    must agree unless g's value is within tol of its threshold.  The
    coefficient scan and the proof check run on maps of certified convexity,
    as `awr coeff-bound` and `awr proof-check` do.
    """
    g = build(leaf, layers)
    f = Affine(g, scale, shift)
    tol = 1e-6 + 1e5 * EPS * abs(shift) / abs(scale)
    a1, a2, _ = taylor(g)  # c = 0 exactly where |a2(F)| = |a2/a1| <= A2_ZERO_TOL, a sharp cut
    assume(abs(abs(a2 / a1) - A2_ZERO_TOL) > 1e-9 * A2_ZERO_TOL)

    if validate_convexity(g)[0]:
        cg, cf = coefficient_bound_scan(g), coefficient_bound_scan(f)
        assert abs(cf.inf_lhs - cg.inf_lhs) <= tol
        _agree(cf.lower_ok, cg.lower_ok, cg.inf_lhs, -0.5 - 1e-6, tol)
        _agree(cf.residual_ok, cg.residual_ok, cg.min_residual, -1e-9, tol)
        pg, pf = proof_machinery_check(g), proof_machinery_check(f)
        margins = [abs(m) for s in pg[1] for m in (s.slack + 1e-9, 1.0 + 1e-9 - s.sup_h,
                                                   s.re_g_min - 0.5 + 1e-6)]
        assert max(abs(a.slack - b.slack) for a, b in zip(pg[1], pf[1])) <= tol
        _agree(pf[0], pg[0], min(margins), 0.0, tol)

    ng, nf = normalized_sup(g), normalized_sup(f)
    assert abs(nf.sup - ng.sup) <= tol * (1.0 + ng.sup) ** 2  # 1/|1 + c x|^2 near a pole
    _agree(nf.interior_ok, ng.interior_ok, ng.sup, 1.0, tol * (1.0 + ng.sup) ** 2)
    kg, kf = near_one_clusters(g), near_one_clusters(f)
    p = np.abs(normalization(g)[2] * normalize_values(g, ring_points((CLUSTER_RING,), CLUSTER_ANGLES)[0]))
    _agree(kf.count, kg.count, extremum(np.abs(p - kg.tau))[1], 0.0, tol)

    dg, df = delta_f(g), delta_f(f)
    assert df.metric == dg.metric
    if dg.metric == "euclidean":  # distances to f(0) - 1/c, whose scale is |A|/|c_g|
        assert abs(df.value / abs(scale) - dg.value) <= tol * (dg.value + 1.0 / abs(normalization(g)[2]))
    else:  # the chordal distance to infinity is not scale-free, only its vanishing is
        assert (df.value == 0.0) == (dg.value == 0.0)

    bg, bf = build_map(g), build_map(f)
    assert (bf.omitted_on_boundary, bf.bounded_hint) == (bg.omitted_on_boundary, bg.bounded_hint)
    assert (_refusal(quasidisk_ratio_scan, f) is None) == (_refusal(quasidisk_ratio_scan, g) is None)
