"""The closed-form image `Domain` against independent oracles.

`boundary_distance` is checked against a 50-digit mpmath minimization of
|w - post(leaf(z))| over z on the unit circle, the leaf written from its
definition (a Mobius map, or a power or logarithm of one) and not from
the rays and lines that `Domain` folds it into.  The normal form's
doubles are taken as exact on both sides, as in
`test_deep_probe_values_match_mpmath`, so the check is of the geometry
and its arithmetic, not of how post was rounded.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import AFFINE, KOEBE, LAYERS, LEAVES, annulus, build, wrap

from awr.catalog import FIXTURE_EXPRS
from awr.domain import Domain
from awr.errors import DegenerateDomain
from awr.evaluate import jet_eval, normal_form
from awr.expr import Disk, Halfplane, Identity, Koebe, MobiusOfStrip, SectorAuto, SectorReal, Strip
from awr.extended import INFINITY, chordal, is_infinite
from awr.grids import polar
from awr.parser import parse_expr
from awr.quasidisk import quasidisk_ratio_scan
from awr.reflection import jet_reflection

GRID = 2 ** 14  # boundary samples per half that find each probe's basin
GOLDEN = 90  # golden-section steps from a basin two samples wide: 1e-22 in x
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _leaf_curve(leaf, x, sign, m):
    """The leaf's boundary at x in [-pi/2, pi/2] on one of two halves (sign
    = +-1), in numpy (m = np) or mpmath (m = mpmath) arithmetic.

    A Mobius leaf takes z = sign e^{2ix} on the unit circle.  The others
    are an outer map of w = (1 + z)/(1 - z), or (1 + z)/(1 + c z) for
    sector-auto, which sends the circle onto a line through 0.  Its points
    w = sign e exp(k tan x), e the direction of the image of z = e^i, go in
    through log w, so that both ends are reached without overflow, and k
    makes the strip's edges t +- i pi/4 and the sectors' rays e^t
    regular in t = tan x."""
    one = mpmath.mpf(1) if m is mpmath else 1.0
    if not isinstance(leaf, (SectorReal, SectorAuto, Strip)):
        z = sign * m.exp(2j * x)
        return z / (1 + getattr(leaf, "x", getattr(leaf, "c", 0.0)) * z)
    zeta = m.exp(1j * one)
    if isinstance(leaf, SectorAuto):
        a = mpmath.mpc(leaf.a) if m is mpmath else complex(leaf.a)
        c = -(1 - m.conj(a)) / (1 - a)
        p, e = (1 - abs(a) ** 2) / (2 * (1 - a.real)), (1 + zeta) / (1 + c * zeta)
    else:
        p, e = (0.5 if isinstance(leaf, Strip) else leaf.a), (1 + zeta) / (1 - zeta)
    log_w = m.tan(x) / p + m.log(sign * e / abs(e))
    if isinstance(leaf, Strip):
        return log_w / 2
    u = m.exp(p * log_w)
    return (u - 1) / (2 * leaf.a) if isinstance(leaf, SectorReal) else -(u - 1) / (a * c - 1)


def oracle_distances(nf, probes):
    """d(w, boundary) per probe w, to 50 digits: the least of a golden-
    section minimum in the probe's basin on the leaf's boundary, the
    sector vertex (u = 0, a corner) and post(inf) for an unbounded leaf
    domain (a limit of the parametrization)."""
    leaf, post = nf.leaf, nf.post
    x = (np.arange(GRID) + 0.5) * (np.pi / GRID) - np.pi / 2
    with np.errstate(all="ignore"):
        curves = np.stack([post(_leaf_curve(leaf, x, sign, np)) for sign in (1, -1)])
    out = []
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(v) for v in (post.a, post.b, post.c, post.d))

        def image(v):
            return (a * v + b) / (c * v + d)

        corners = []
        if isinstance(leaf, (SectorReal, SectorAuto)):
            corners.append(image(_leaf_curve(leaf, -mpmath.pi / 2, 1, mpmath)))
        if not isinstance(leaf, (Identity, Disk)) and c != 0:
            corners.append(a / c)
        step, half = mpmath.pi / GRID, mpmath.pi / 2
        for w in probes:
            wm = mpmath.mpc(w)
            sign, k = divmod(int(np.nanargmin(np.abs(curves - w))), GRID)
            sign = 1 - 2 * sign

            def gap(t):
                return abs(wm - image(_leaf_curve(leaf, t, sign, mpmath)))

            mid = (k + mpmath.mpf(0.5)) * step - half
            lo, hi = max(mid - step, -half), min(mid + step, half)
            x1, x2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
            g1, g2 = gap(x1), gap(x2)
            for _ in range(GOLDEN):
                if g1 < g2:
                    hi, x2, g2 = x2, x1, g1
                    x1 = hi - INV_PHI * (hi - lo)
                    g1 = gap(x1)
                else:
                    lo, x1, g1 = x1, x2, g2
                    x2 = lo + INV_PHI * (hi - lo)
                    g2 = gap(x2)
            out.append(float(min([g1, g2] + [abs(wm - p) for p in corners])))
    return np.array(out)


def probes_and_reflections(expr, zs):
    """The image points f(z) and their finite reflections R_w."""
    zs = np.asarray(zs, dtype=complex)
    j = jet_eval(expr, zs)
    r, _ = jet_reflection(j, zs)
    ws = np.concatenate([j.f0, r])
    return ws[np.isfinite(ws)]


def check_against_oracle(expr, zs):
    nf = normal_form(expr)
    ws = probes_and_reflections(expr, zs)
    got = Domain(nf).boundary_distance(ws)
    want = oracle_distances(nf, ws)
    # w is rounded to eps |w| wherever it came from, so a distance below
    # 1e-3 |w| (a reflection on the tangent-disk cusp) is held to 1e-15 |w|
    err = np.abs(got - want) / np.maximum(want, 1e-3 * np.abs(ws))
    assert np.all(err <= 1e-12), (expr, ws[np.argmax(err)], float(np.max(err)))


FIXTURE_PROBES = np.array([polar(r, t) for r in (0.3, 0.9, 0.99) for t in (0.0, 0.7, 2.0, 3.1, 4.4)])


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_boundary_distance_matches_mpmath_on_fixtures(name, expr):
    check_against_oracle(expr, FIXTURE_PROBES)


@settings(max_examples=40, deadline=None)
@given(LEAVES, st.lists(st.one_of(KOEBE, AFFINE, st.just(("M",))), max_size=2),
       st.lists(annulus(0.0, 0.9), min_size=1, max_size=4))
@example(MobiusOfStrip(0.25), [("M",)], [0.5 + 0.5j])
def test_boundary_distance_matches_mpmath_on_composites(leaf, layers, zs):
    check_against_oracle(build(leaf, layers), zs)


def test_a_foot_past_double_range_is_the_far_end():
    """Where the circle of the feet nearly passes through q's pole, one
    foot t lies past 1e308 / |c|, and (a t + b) / (c t + d) read 0, not
    the far end a / c: the distance from f(z0) = z0 to the image of
    koebe(disk(x=0.75), z0) read 2.2e-309.  With z0 this small the image
    is the disk of centre -12/7 and radius 16/7, 4/7 away from 0."""
    z0 = 1.202212536478363e-309 + 1.87233509098836e-309j
    got = Domain.of(Koebe(Disk(0.75), z0)).boundary_distance(z0)[()]
    assert got == pytest.approx(4.0 / 7.0, rel=1e-15)


def _same(got, want):
    return bool(is_infinite(got)) if is_infinite(want) else abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("text, want", [
    ("identity", ()),
    ("disk(x=0.5)", ()),
    ("halfplane(c=-1+0i)", (INFINITY,)),
    # the vertex -1/(2a), and b = 1/(a c - 1) = -2/3 with c = -1
    ("sector(a=0.5)", (-1.0, INFINITY)),
    ("sector-auto(a=0.5+0i)", (-2.0 / 3.0, INFINITY)),
    ("strip-shift(x=0.7)", (INFINITY,)),
    # L/(1 + a L) sends the strip's cusp to 1/a
    ("mobius-of-strip(a=0.25+0i)", (4.0,)),
    # f/(1 + a2 f) with a2 = 0.5 sends the vertex -1 to -2 and infinity to 2
    ("mobius-shift(sector(a=0.5))", (-2.0, 2.0)),
])
def test_special_points_in_closed_form(text, want):
    got = Domain.of(parse_expr(text)).special_points()
    assert len(got) == len(want) and all(map(_same, got, want)), (got, want)


# The paper's hypothesis, convexity of the image, against the bend of its
# boundary.  A flat piece that the rounding of post's doubles bends reads
# about eps times the layers' condition (under 3e-16 in 5,000 draws); the
# least true bend is a shift's by c >= A2_ZERO_TOL (mobius-shift(koebe(strip,
# z0=1e-12+1e-12i)) reads -4e-12).  FLAT sits between the two.
FLAT = 1e-13
BEND_XS = (-1.3, -0.5, 0.4, 1.2)  # where each half of the leaf's boundary is sampled
# A sector's vertex is at x = -pi/2, where u = e^{tan x}; at this x, u is
# e^-20, so the tangents there are the vertex's to 1e-8 in 50 digits.
VERTEX_X = -mpmath.pi / 2 + mpmath.mpf(1) / 20


def least_bend(expr):
    """The least bend of the boundary toward the image, to 50 digits, read
    from post(`_leaf_curve`) and nothing that `Domain` folds it into: the
    signed curvature, scaled by |f'(0)|, at BEND_XS on each half, and at a
    sector's finite vertex the sine of the turn from the half that arrives
    to the half that leaves.  The image lies left of side * gamma', side
    the sign of Im(conj(u') (0 - u)): the leaf domain is convex and holds
    leaf(0) = 0, and post keeps the left side of a curve where it is
    regular.  The far end of a sector, where finite, is the other meeting
    point of the same two circles, at the same angle.  A convex image bends
    by >= 0 everywhere."""
    nf = normal_form(expr)
    scale = abs(complex(jet_eval(expr, 0j).f1))
    bends, heads = [], {}
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(v) for v in (nf.post.a, nf.post.b, nf.post.c, nf.post.d))
        for sign in (1, -1):

            def leaf(x, sign=sign):
                return _leaf_curve(nf.leaf, x, sign, mpmath)

            def image(x):
                u = leaf(x)
                return (a * u + b) / (c * u + d)

            def side(x):
                return mpmath.sign(mpmath.im(mpmath.conj(mpmath.diff(leaf, x)) * -leaf(x)))

            for x in map(mpmath.mpf, BEND_XS):
                g1, g2 = mpmath.diff(image, x), mpmath.diff(image, x, 2)
                bends.append(side(x) * mpmath.im(mpmath.conj(g1) * g2) / abs(g1) ** 3 * scale)
            if isinstance(nf.leaf, (SectorReal, SectorAuto)):
                # the vertex, and the direction of travel there with the image on the left
                heads[side(0)] = image(VERTEX_X), side(0) * mpmath.diff(image, VERTEX_X)
        if heads and abs(heads[1][0]) < 1e100:  # the half of side -1 arrives at the vertex
            into, out = heads[-1][1], heads[1][1]
            bends.append(mpmath.im(mpmath.conj(into) * out) / abs(into * out))
        return float(min(bends))


@settings(max_examples=100, deadline=None)
@given(LEAVES, LAYERS)
@example(MobiusOfStrip(1e-3j), [])  # the sampled gate read (True, 1.28e-6)
@example(MobiusOfStrip(1e-2 + 0j), [])  # its pole tanh(-100) rounds to -1
@example(SectorReal(0.5), [("M",)])
# as a Cayley image of the unit circle, its edge's pole fell 8e-4 off the line
@example(Halfplane(polar(1.0, math.pi - 1e-7)), [("K", 0.5 + 0.3j)])
def test_convexity_is_the_bend_of_the_boundary(leaf, layers):
    expr = build(leaf, layers)
    assert Domain.of(expr).convex == (least_bend(expr) >= -FLAT), least_bend(expr)


@settings(max_examples=100, deadline=None)
@given(LEAVES, LAYERS, st.one_of(KOEBE, AFFINE))
def test_convexity_is_invariant_under_koebe_and_affine(leaf, layers, extra):
    expr = build(leaf, layers)
    assert Domain.of(wrap(expr, extra)).convex == Domain.of(expr).convex


EPS = np.finfo(float).eps


def test_identity_exact_ratio_is_one_over_r(ratio_reports):
    """On the unit disk d(w) = 1 - r and d(R_w) = 1/r - 1.  The doubles w
    and R_w are each rounded by about eps, which is eps / (1 - r) of those
    distances: at ring 0.9995 the exact ratio of the rounded points is
    already 8.3e-13 below 1/r, and the ring's least entry reads 1.4e-12
    below it."""
    profile = ratio_reports["identity"]
    for r, v in zip(profile.rings, profile.exact_ratio_per_ring):
        assert abs(v * r - 1.0) <= max(1e-12, 8.0 * EPS / (1.0 - r)), (r, v)


@pytest.mark.parametrize("name, want", [
    ("identity", "1.010101 1.001001 1.000500"),
    ("disk", "1.003356 1.000334 1.000167"),
    ("halfplane", "1.000000 1.000000 1.000000"),
    ("sector", "1.000051 1.000001 1.000000"),
])
def test_exact_ratio_on_the_default_rings(name, want, ratio_reports):
    got = ratio_reports[name].exact_ratio_per_ring
    assert " ".join(f"{v:.6f}" for v in got) == want


def test_tangent_disk_exact_ratio_reads_zero(ratio_reports):
    """R_w lands on the cusp of mobius-of-strip, to rounding."""
    assert max(ratio_reports["mobius-of-strip"].exact_ratio_per_ring) < 1e-14


@settings(max_examples=20, deadline=None)
@given(LEAVES, st.floats(0.9, 0.999), st.floats(0.9999, 0.99999))
# the sampled ratio of this ring reads 0.306260 alone and 0.254497 with 0.99999
@example(MobiusOfStrip(0.25), 0.99, 0.99999)
def test_exact_ring_value_ignores_deeper_rings(leaf, ring, deeper):
    """The sampled polyline follows the deepest ring requested; the exact
    boundary does not, so a ring's exact entry keeps its bits."""
    try:
        alone = quasidisk_ratio_scan(leaf, rings=(ring,))
    except DegenerateDomain:
        assume(False)
    both = quasidisk_ratio_scan(leaf, rings=(ring, deeper))
    assert both.exact_ratio_per_ring[0] == alone.exact_ratio_per_ring[0]
    assert both.exact_arg_inf[0] == alone.exact_arg_inf[0]


FINITE = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(FINITE, FINITE)
def test_chordal_keeps_its_bits_below_1e150(u, v):
    """Where nothing overflows, chordal is the expression it always was."""
    a, b = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    want = 2.0 * np.abs(a - b) / (np.sqrt(1.0 + np.abs(a) ** 2) * np.sqrt(1.0 + np.abs(b) ** 2))
    assert chordal(u, v) == float(want)
    assert chordal(np.array([u, v]), np.array([v, u])).tolist() == [float(want)] * 2


def test_chordal_past_the_square_range():
    """|u|^2 overflows past 1.3e154 and su sv past 1.8e308: 1e160 is at
    chordal distance 2 from 0, where it read 0 with a numpy warning."""
    assert chordal(1e160 + 0j, 0j) == 2.0
    assert chordal(0j, 1e160j) == 2.0
    assert chordal(1e308 + 0j, -1e308 + 0j) == pytest.approx(4e-308, rel=1e-15)
    assert chordal(1e200j, 1e200j) == 0.0
    assert chordal(INFINITY, 1e160 + 0j) == pytest.approx(2e-160, rel=1e-15)
