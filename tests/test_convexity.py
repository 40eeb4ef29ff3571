"""Separation-line scans, the second-coefficient bound, and the
recentred Schwarz-Pick machinery on convex fixtures.

Margin and infimum values were computed once on the standard grids and
are pinned here with brackets wide enough to survive benign grid
changes but tight enough to catch sign errors or lost refinement.
"""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANGLES, LAYERS, LEAVES, build, fresh_python

from awr import cli, convexity
from awr.catalog import FIXTURE_EXPRS
from awr.convexity import (
    DEFAULT_ZETAS,
    _min_margins,
    coefficient_bound_scan,
    mediatrix,
    mediatrix_scan,
    ZETA_MIN,
    proof_machinery_check,
)
from awr.errors import BadParam, CoincidentPoints, DegenerateDomain
from awr.expr import Affine, Disk, Halfplane, Identity, SectorReal
from awr.extended import INFINITY, is_infinite
from awr.evaluate import jet_eval
from awr.grids import polar, ring_points
from awr.record import fields
from awr.reflection import reflect_grid

# name -> (min_margin bracket, contact expected, vacuous probes expected)
MEDIATRIX_TABLE = {
    "identity": ((0.4, 0.5), False, 0),
    # the base grid hits z = -0.5, which maps to the center of the
    # image circle; its inversion is the point at infinity
    "disk": ((0.3, 0.45), False, 1),
    "halfplane": ((0.0, 5e-5), True, 0),
    "sector": ((1e-3, 5e-3), False, 0),
    "sector-auto": ((5e-5, 5e-4), True, 0),
    "strip": ((0.3, 0.45), False, 92),
    "strip-shift": ((0.1, 0.2), False, 0),
}

# name -> (inf bracket for Re(a2 f))
COEFF_TABLE = {
    "identity": (-1e-12, 1e-12),
    "disk": (-1.0 / 3.0 - 1e-6, -1.0 / 3.0 + 1e-6),
    "halfplane": (-0.5 - 1e-6, -0.49999),
    "sector": (-0.5 - 1e-6, -0.498),
    "sector-auto": (-0.5 - 1e-6, -0.4999),
    "strip": (-1e-12, 1e-12),
    "strip-shift": (-0.4999, -0.45),
}

# AC map list -> lower bracket of min Re G over the default zetas
RE_G_TABLE = {
    "identity": (0.99, 1.01),
    "halfplane": (0.5, 0.55),
    "sector": (0.5, 0.6),
    "disk": (0.6, 0.75),
    "strip": (0.5, 0.6),
}


@pytest.mark.parametrize("name", sorted(MEDIATRIX_TABLE))
def test_mediatrix_margins(name, catalog):
    (lo, hi), contact, n_vac = MEDIATRIX_TABLE[name]
    report = mediatrix_scan(catalog[name].expr)
    assert report.min_margin >= -1e-9, name
    assert lo <= report.min_margin <= hi, (name, report.min_margin)
    assert report.contact == contact, name
    assert report.n_vacuous == n_vac, (name, report.n_vacuous)
    assert report.n_checked > 0
    # vacuous probes (reflection at infinity) are recorded as NaN
    assert np.nanmin(report.probe_margin) >= report.min_margin - 1e-15


def test_contact_set_is_halfplane_and_sector_auto(catalog):
    contact = {
        name for name in MEDIATRIX_TABLE
        if mediatrix_scan(catalog[name].expr).contact
    }
    assert contact == {"halfplane", "sector-auto"}


def test_mediatrix_line_geometry():
    w, r = 1.0 + 1.0j, 3.0 + 1.0j
    line = mediatrix(w, r)
    mid = 2.0 + 1.0j
    assert abs(line.point - mid) < 1e-15

    def signed_distance(p):  # Re((p - m) conj(n)), positive on the image side
        return ((p - line.point) * line.normal.conjugate()).real

    assert abs(signed_distance(mid)) < 1e-15
    # w and r sit at equal and opposite signed distances
    dw = signed_distance(w)
    dr = signed_distance(r)
    assert abs(dw + dr) < 1e-15
    assert abs(abs(dw) - 1.0) < 1e-15
    # points along the line stay at distance zero
    assert abs(signed_distance(mid + 5.0 * line.tangent)) < 1e-12


def test_mediatrix_degenerate_inputs():
    with pytest.raises(DegenerateDomain):
        mediatrix(1.0 + 0.0j, INFINITY)
    with pytest.raises(CoincidentPoints):
        mediatrix(1.0 + 0.0j, 1.0 + 0.0j + 1e-16)
    with pytest.raises(CoincidentPoints):
        mediatrix(0j, 0j)


def test_a_tiny_scaled_pair_has_the_scaled_mediatrix(tmp_path):
    """Points coincide relative to max(|w|, |r|), not to 1e-13 (1 + |w|): that
    floor refused every pair of affine(disk(x=0.5), a=1e-14+0i), so
    mediatrix-scan --svg printed the disk's report and then exited 2."""
    w, r = 1.0 + 1.0j, 3.0 + 1.0j
    line, tiny = mediatrix(w, r), mediatrix(1e-14 * w, 1e-14 * r)
    assert abs(tiny.point - 1e-14 * line.point) <= 1e-29
    assert abs(tiny.normal - line.normal) <= 1e-15
    svg = tmp_path / "f.svg"
    assert cli.main(["mediatrix-scan", "--map", "affine(disk(x=0.5), a=1e-14+0i, b=0+0i)",
                     "--svg", str(svg)]) == 0
    assert svg.stat().st_size > 0


@pytest.mark.parametrize("name", sorted(COEFF_TABLE))
def test_coefficient_bound(name, catalog):
    (lo, hi) = COEFF_TABLE[name]
    report = coefficient_bound_scan(catalog[name].expr)
    assert report.lower_ok, name
    assert report.residual_ok, name
    assert lo <= report.inf_lhs <= hi, (name, report.inf_lhs)
    assert report.min_residual >= -1e-9, (name, report.min_residual)


def test_sector_extremal_contact_near_minus_one():
    """Re(a2 f) tends to -1/2 along the negative real axis; at radius
    0.9999 the gap is about 3.5e-3 and shrinks like sqrt(1 - r)."""
    f = jet_eval(SectorReal(0.5), -0.9999 + 0.0j).f0
    val = (0.5 * f).real
    assert abs(val + 0.5) < 4e-3
    f_deep = jet_eval(SectorReal(0.5), -(1.0 - 1e-7) + 0.0j).f0
    assert abs((0.5 * f_deep).real + 0.5) < 2e-4


def test_halfplane_residual_reaches_equality():
    """The strengthened bound is tight for the halfplane along the real
    axis, so its minimum residual sits at rounding level, not at a
    comfortable positive margin."""
    report = coefficient_bound_scan(Halfplane(-1.0))
    assert -1e-9 <= report.min_residual < 1e-6


def test_bounded_fixtures_stay_separated(catalog):
    """Bounded convex images keep Re(a2 f) strictly above -0.45."""
    for name in ("identity", "disk"):
        report = coefficient_bound_scan(catalog[name].expr)
        assert report.inf_lhs > -0.45, (name, report.inf_lhs)


@pytest.mark.parametrize("name", sorted(RE_G_TABLE))
def test_proof_machinery(name, catalog):
    lo, hi = RE_G_TABLE[name]
    all_pass, samples = proof_machinery_check(catalog[name].expr)
    assert all_pass, name
    assert len(samples) == len(DEFAULT_ZETAS)
    worst_g = min(s.re_g_min for s in samples)
    assert lo - 1e-6 <= worst_g <= hi, (name, worst_g)
    for s in samples:
        assert s.slack >= -1e-9, (name, s.zeta, s.slack)
        assert s.sup_h <= 1.0 + 1e-9, (name, s.zeta, s.sup_h)


def test_halfplane_h_is_unimodular():
    """For the halfplane the Schwarz-Pick function h is a unimodular
    constant: |h| = 1 identically, the equality case of the bound."""
    _, samples = proof_machinery_check(Halfplane(-1.0))
    for s in samples:
        assert abs(s.sup_h - 1.0) < 1e-9, s.zeta
        assert abs(s.inf_h - 1.0) < 1e-9, s.zeta
        assert abs(abs(s.h_at_zero) - 1.0) < 1e-9, s.zeta


def test_identity_proof_values_are_exact():
    _, samples = proof_machinery_check(Identity())
    for s in samples:
        assert abs(s.re_g_min - 1.0) < 1e-9
        assert s.slack >= -1e-12


def test_proof_check_refuses_recentering_points_near_the_origin():
    """The slack's quotient at z = 0 loses about eps/|zeta|^2, so the
    half-plane's equality case read -1.3e-8 at zeta = 1e-4.  From
    ZETA_MIN on, the equality case and the disk pass on a full circle."""
    circle = ZETA_MIN * np.exp(2j * np.pi * np.arange(16) / 16)
    for expr in (Halfplane(-1.0), Disk(0.5)):
        all_pass, samples = proof_machinery_check(expr, circle)
        assert all_pass, (expr, [s.slack for s in samples])
    for zeta in (1e-4, 0.5 * ZETA_MIN * 1j, 0.0):
        with pytest.raises(BadParam, match="ZETA_MIN"):
            proof_machinery_check(Halfplane(-1.0), (0.3, zeta))


def oracle_min_margins(base_vals, w, r):
    """Every base against every probe pair, as the scan did before pruning."""
    gap = w - r
    mid = (w + r) / 2.0
    m = np.real(
        (base_vals[None, :] - mid[:, None]) * np.conjugate(gap)[:, None]
    ) / (np.abs(gap) ** 2)[:, None]
    return np.min(m, axis=1), np.argmin(m, axis=1)


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_mediatrix_scan_matches_oracle(name, expr):
    report = mediatrix_scan(expr)
    base_r = np.linspace(0.0, 0.55, 16)
    bases = (base_r[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)[None, :]).ravel()
    base_vals = jet_eval(expr, bases).f0
    ok = ~is_infinite(report.probe_r) & np.isfinite(report.probe_w)
    margin = np.full(report.probe_z.shape, np.nan)
    argbase = np.zeros(report.probe_z.shape, dtype=int)
    margin[ok], argbase[ok] = oracle_min_margins(
        base_vals, report.probe_w[ok], report.probe_r[ok])
    assert np.array_equal(report.probe_margin, margin, equal_nan=True)
    i = int(np.nanargmin(margin))
    assert report.min_margin == margin[i]
    assert report.base_at == bases[argbase[i]]
    assert report.n_checked == int(np.sum(np.isfinite(margin)))


# affine scales out to 1e+-305, weighted to the ends, where jets leave double range
EXPONENTS = st.one_of(st.floats(-305.0, 305.0), st.floats(295.0, 305.0), st.floats(-305.0, -295.0))
HUGE_OR_TINY = st.tuples(EXPONENTS, ANGLES).map(lambda p: polar(10.0 ** p[0], p[1]))


@given(LEAVES, LAYERS, HUGE_OR_TINY)
@example(Halfplane(-1.0 + 0j), [], 1e-308 + 0j)
@settings(max_examples=40, deadline=None)
def test_a_probe_is_scored_exactly_where_its_reflection_is_finite(leaf, layers, scale):
    """R_w = f(z) - (1 - |z|^2) f'(z)/b2 is finite only where f(z) is, so
    the scan's one mask, a finite R_w, never keeps a probe without an
    image point; INFINITY marks exactly the vacuous probes, and a NaN
    reflection is neither scored nor counted.  The example, affine
    (halfplane(c=-1+0i), a=1e-308+0i), has 1,466 NaN reflections at
    finite w, and every margin of its finite ones is masked."""
    expr = Affine(build(leaf, layers), scale, 0j)
    _, ws, rs, _ = reflect_grid(expr, convexity.PROBE_GRID)
    finite = np.isfinite(rs)
    assert np.all(np.isfinite(ws[finite]))
    try:
        report = mediatrix_scan(expr)
    except DegenerateDomain:
        return
    assert report.n_vacuous == int(np.sum(is_infinite(rs)))
    assert report.n_checked <= int(np.sum(finite))


@st.composite
def base_clouds(draw):
    """Non-convex clouds whose hull has collinear edge points and repeats.

    A random star-shaped polygon with interior points is framed by an
    axis-aligned rectangle with points along its edges; some points,
    hull corners among them, appear more than once, and the order is
    shuffled.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 120))
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    star = rng.uniform(0.2, 1.4, n) * np.exp(1j * t)
    inner = rng.uniform(0.0, 0.5, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    s = np.linspace(0.0, 1.0, draw(st.integers(2, 9)))
    edge = np.concatenate([-1.5 + 3.0 * s - 1.2j, 1.5 + (2.4 * s - 1.2) * 1j,
                           1.5 - 3.0 * s + 1.2j, -1.5 + (1.2 - 2.4 * s) * 1j])
    pts = np.concatenate([star, inner, edge])
    pts = np.concatenate([pts, pts[rng.integers(0, pts.size, draw(st.integers(0, 20)))]])
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return scale * (complex(*rng.normal(size=2)) + pts[rng.permutation(pts.size)])


# an octagon with axis-parallel edges, so axis-aligned gaps tie two vertices
OCTAGON = np.array([1 - 2j, 2 - 1j, 2 + 1j, 1 + 2j, -1 + 2j, -2 + 1j, -2 - 1j, -1 - 2j])


@given(base_vals=base_clouds(), seed=st.integers(0, 2**32 - 1))
@example(base_vals=np.array([0.0, 4.0, 2.0 + 3.0j, 2.0, 1.0 + 1.0j, 2.0 + 1.0j]), seed=1)
@example(base_vals=np.concatenate([OCTAGON, 0.5 * OCTAGON, [0.0, 2.0, -2.0j]]), seed=2)
@example(base_vals=np.concatenate([[2 + 1j, 0.5], OCTAGON, [2 + 1j, 1 - 2j]]), seed=3)
@example(base_vals=np.concatenate([OCTAGON, [np.nan + 0j], 0.5 * OCTAGON]), seed=4)
@example(base_vals=np.linspace(-1.0, 1.0, 7) * (1.0 + 2.0j), seed=5)
@example(base_vals=np.concatenate([np.exp(0.4j * np.pi * np.arange(5)), [0.0, 1.0]]), seed=6)
@settings(max_examples=80, deadline=None)
def test_hull_pruned_margins_match_oracle(base_vals, seed):
    """Examples: a triangle hull with a point on an edge; edge-normal
    ties; a hull vertex repeated at a lower index; a NaN base value;
    collinear bases (no hull); the smallest hull the window search takes."""
    rng = np.random.default_rng(seed)
    k = 300
    w = 10.0 ** rng.uniform(-2.0, 6.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    # axis-aligned and diagonal gaps tie the margins of collinear edge points
    direction = np.where(rng.uniform(size=k) < 0.5,
                         1j ** rng.integers(0, 4, k),
                         np.exp(2j * np.pi * rng.uniform(size=k)))
    r = w + 10.0 ** rng.uniform(-3.0, 3.0, k) * direction
    got_m, got_i = _min_margins(base_vals, w, r)
    want_m, want_i = oracle_min_margins(base_vals, w, r)
    assert np.array_equal(got_m, want_m, equal_nan=True)
    assert np.array_equal(got_i, want_i)


def count_dense_rows(monkeypatch):
    """Record the number of pairs each dense fallback call scores."""
    rows = []
    dense = convexity._dense_margins

    def counted(vals, w, r):
        rows.append(w.size)
        return dense(vals, w, r)

    monkeypatch.setattr(convexity, "_dense_margins", counted)
    return rows


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_mediatrix_window_search_rarely_falls_back(name, expr, monkeypatch):
    """The speed of the scan rests on the window search: at the default
    grid at most 1% of the checked probes may need the dense scoring."""
    rows = count_dense_rows(monkeypatch)
    report = mediatrix_scan(expr)
    assert sum(rows) <= 0.01 * report.n_checked, (name, sum(rows))


@pytest.mark.parametrize("shift", [2, 3, 17])
def test_wrong_support_vertex_falls_back_to_dense(shift, monkeypatch):
    """A candidate vertex two or more steps off fails the window's check,
    so every pair is scored densely and the result stays exact."""
    search = convexity._support_vertex
    monkeypatch.setattr(convexity, "_support_vertex",
                        lambda hull, gap: (search(hull, gap) + shift) % hull.size)
    rows = count_dense_rows(monkeypatch)
    rng = np.random.default_rng(shift)
    base_vals = ring_points(np.linspace(0.0, 0.55, 16), 64).ravel()
    w = 0.95 * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
    r = w * (1.0 + rng.uniform(0.1, 3.0, 500) * np.exp(1j * rng.uniform(-1.0, 1.0, 500)))
    got_m, got_i = _min_margins(base_vals, w, r)
    want_m, want_i = oracle_min_margins(base_vals, w, r)
    assert np.array_equal(got_m, want_m)
    assert np.array_equal(got_i, want_i)
    assert sum(rows) == w.size


def test_far_and_coincident_pairs_match_oracle():
    """Midpoints far beyond the bases round v - mid so coarsely that many
    bases tie; those pairs, and a zero gap, are scored densely."""
    rng = np.random.default_rng(7)
    base_vals = np.exp(2j * np.pi * rng.permutation(64) / 64)
    d = np.exp(2j * np.pi * rng.uniform(size=300))
    w = 10.0 ** rng.uniform(6.0, 16.0, 300) * np.exp(2j * np.pi * rng.uniform(size=300))
    r = w + 10.0 ** rng.uniform(-1.0, 1.0, 300) * d
    r[0] = w[0]
    with np.errstate(all="ignore"):
        got_m, got_i = _min_margins(base_vals, w, r)
        want_m, want_i = oracle_min_margins(base_vals, w, r)
    assert np.array_equal(got_m, want_m, equal_nan=True)
    assert np.array_equal(got_i, want_i)


# 1,024 grid bases take the window path; 40 bases on a square's edges
# make a four-vertex hull, so every pair is scored densely
GRID_BASES = ring_points(np.linspace(0.0, 0.55, 16), 64).ravel()
SQUARE_BASES = np.concatenate([(1j ** k) * (1.0 + 1j * np.linspace(-1.0, 1.0, 10, endpoint=False))
                               for k in range(4)])


@pytest.mark.parametrize("block", [1, 3, 7, 1001, 4099])
@pytest.mark.parametrize("base_vals", [GRID_BASES, SQUARE_BASES], ids=["window", "dense"])
def test_score_block_edges_keep_margins_exact(base_vals, block, monkeypatch):
    """Blocks of one pair up to a few hundred, ending mid-way through
    the pairs, give the oracle's margins and bases on both paths."""
    monkeypatch.setattr(convexity, "BLOCK_SCORES", block)
    rng = np.random.default_rng(block)
    w = 0.95 * np.sqrt(rng.uniform(size=997)) * np.exp(2j * np.pi * rng.uniform(size=997))
    r = w * (1.0 + rng.uniform(0.1, 3.0, 997) * np.exp(1j * rng.uniform(-1.0, 1.0, 997)))
    got_m, got_i = _min_margins(base_vals, w, r)
    want_m, want_i = oracle_min_margins(base_vals, w, r)
    assert np.array_equal(got_m, want_m)
    assert np.array_equal(got_i, want_i)


@pytest.fixture(scope="module")
def default_mediatrix():
    return {name: mediatrix_scan(expr) for name, expr in FIXTURE_EXPRS
            if name in ("sector", "strip-shift")}


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name", ["sector", "strip-shift"])
def test_score_block_size_keeps_mediatrix_reports(name, block, default_mediatrix, monkeypatch):
    monkeypatch.setattr(convexity, "BLOCK_SCORES", block)
    got = mediatrix_scan(dict(FIXTURE_EXPRS)[name])
    want = default_mediatrix[name]
    for name in fields(want):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b, equal_nan=True), name


def test_tied_zero_margins_keep_the_dense_sign():
    """Two bases score 0.0 and -0.0; the first one's zero is returned."""
    base_vals = np.array([1 + 1j, complex(-0.0, 0.0), 2 + 0j, 3 + 1j, 3 + 2j, 2 - 1j])
    w, r = np.array([0.5 - 0.5j]), np.array([-0.5 + 0.5j])
    got_m, got_i = _min_margins(base_vals, w, r)
    assert got_i[0] == 0 and got_m.tobytes() == np.array([0.0]).tobytes()


def test_mediatrix_scan_leaves_numpy_ma_unloaded():
    """The hull windows drop repeated values with a stable sort, not np.unique,
    whose first call imports numpy.ma."""
    code = ("import sys\n"
            "from awr.convexity import mediatrix_scan\n"
            "from awr.expr import Disk, SectorReal\n"
            "mediatrix_scan(Disk(0.5))\n"
            "mediatrix_scan(SectorReal(0.5))\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    assert fresh_python(code) == "False"
