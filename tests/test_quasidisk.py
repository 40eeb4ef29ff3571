"""Image-side diagnostics: normalized sup, boundary clusters, omitted
value distance, reflection distance ratios, and the omission scan.

Values are pinned from runs at the module defaults.  The recurring
theme is a clean split between the convex fixtures, whose diagnostics
stay bounded away from the degenerate regime, and the tangent-disk map
mobius-of-strip, which collapses in every metric.
"""

import math
import warnings

import numpy as np
import pytest

from awr import evaluate, geometry, quasidisk
from awr.deepscan import strip_structure
from awr.errors import DegenerateDomain, OutOfDoubleRange
from awr.expr import Affine, Disk, Halfplane, Identity, Koebe, MobiusOfStrip, MobiusShift, Strip
from awr.extended import INFINITY
from awr.quasidisk import (
    CHORDAL,
    EUCLIDEAN,
    PROBE_RINGS,
    R_CAP,
    boundary_polyline,
    delta_f,
    koebe_omission_scan,
    lemma32_demo,
    near_one_clusters,
    normalized_sup,
    quasidisk_ratio_scan,
)
from awr.reflection import reflect_grid

# name -> (sup, abs tol, interior_ok)
NORMALIZED_SUP_TABLE = {
    "identity": (0.0, 1e-12, True),
    "disk": (0.49995000, 1e-6, True),
    "halfplane": (0.99990000, 1e-6, True),
    "sector": (0.98595681, 1e-6, True),
    "sector-auto": (0.99881146, 1e-6, True),
    "strip": (0.0, 1e-12, True),
    "strip-shift": (0.99900456, 1e-6, True),
    "mobius-of-strip": (1.23792969, 1e-6, False),
}

# name -> (cluster count, whole_ring) on the default ring 0.9999
CLUSTER_TABLE = {
    "halfplane": (1, True),
    "sector": (2, False),
    "sector-auto": (2, False),
    "strip-shift": (2, False),
}

# name -> (delta, rel tol, metric)
DELTA_TABLE = {
    "identity": (np.sqrt(2.0), 1e-6, CHORDAL),
    "disk": (4.0 / 3.0, 1e-6, EUCLIDEAN),
    "halfplane": (0.5, 1e-6, EUCLIDEAN),
    "sector": (1.0002236, 1e-5, EUCLIDEAN),
    "sector-auto": (2.0 / 3.0, 1e-4, EUCLIDEAN),
    "strip": (8.4810667e-4, 1e-4, CHORDAL),
    "strip-shift": (0.55396892, 1e-6, EUCLIDEAN),
    "mobius-of-strip": (6.7733649e-3, 1e-4, EUCLIDEAN),
}

# name -> (per-ring infima, c_estimate)
RATIO_TABLE = {
    "identity": ((1.01514, 1.05231, 1.10579), 1.01514),
    "disk": ((1.00836, 1.05161, 1.10542), 1.00836),
    "halfplane": ((1.00000, 1.00000, 1.10289), 1.00000),
    "sector": ((1.00504, 1.05126, 1.10524), 1.00504),
    "sector-auto": ((1.00502, 1.05126, 1.10524), 1.00502),
    "strip-shift": ((1.00499, 1.05126, 1.10524), 1.00499),
}

# name -> omission scan infimum
OMISSION_TABLE = {
    "identity": 5.263158e-01,
    "disk": 5.087720e-01,
    "halfplane": 5.000000e-01,
    "sector": 5.013812e-01,
    "sector-auto": 5.008041e-01,
    "strip": 5.043503e-01,
    "strip-shift": 5.025699e-01,
}


@pytest.mark.parametrize("name", sorted(NORMALIZED_SUP_TABLE))
def test_normalized_sup(name, catalog):
    want, tol, interior_ok = NORMALIZED_SUP_TABLE[name]
    got = normalized_sup(catalog[name].expr)
    assert abs(got.sup - want) < tol, (name, got.sup)
    assert got.interior_ok == interior_ok, name


def test_normalized_sup_below_one_on_convex_fixtures(catalog):
    for name, (_, _, interior_ok) in NORMALIZED_SUP_TABLE.items():
        if name == "mobius-of-strip":
            continue
        got = normalized_sup(catalog[name].expr)
        assert got.sup < 1.0, (name, got.sup)
        assert interior_ok


@pytest.mark.parametrize("name", sorted(CLUSTER_TABLE))
def test_near_one_clusters(name, catalog):
    count, whole_ring = CLUSTER_TABLE[name]
    got = near_one_clusters(catalog[name].expr)
    assert got.count == count, (name, got.count)
    assert got.whole_ring == whole_ring, name
    assert got.pmax < 1.0
    if not whole_ring:
        assert len(got.spans) == count


def test_clusters_empty_when_sup_is_zero(catalog):
    got = near_one_clusters(catalog["identity"].expr)
    assert got.pmax == 0.0
    # tau = 1 - 1.5 (1 - pmax) < 0 means the whole ring trivially
    # clears the cut, reported as a single full-circle run
    assert got.whole_ring


@pytest.mark.parametrize("name", sorted(DELTA_TABLE))
def test_delta_f(name, catalog):
    want, rtol, metric = DELTA_TABLE[name]
    got = delta_f(catalog[name].expr)
    assert got.metric == metric, name
    assert abs(got.value - want) < rtol * max(want, 1e-3), (name, got.value)


def test_delta_deep_refinement_shrinks_tangent_disk():
    shallow = delta_f(MobiusOfStrip(0.25), passes=3)
    deep = delta_f(MobiusOfStrip(0.25), passes=6)
    assert deep.value < shallow.value
    assert deep.value < 1e-4


def test_boundary_polyline_guards(catalog):
    with pytest.raises(DegenerateDomain):
        boundary_polyline(Halfplane(-1.0), r=0.5)
    with pytest.raises(DegenerateDomain):
        boundary_polyline(Halfplane(-1.0), r=1.0)
    with pytest.raises(DegenerateDomain):
        boundary_polyline(Halfplane(-1.0), n=512)


def test_boundary_polyline_defaults(catalog):
    for name in ("identity", "halfplane", "strip"):
        poly = boundary_polyline(catalog[name].expr)
        assert poly.vertices().size == 8192, name
        seg_a, seg_b = poly.segments()
        assert seg_a.size == 8192
        # consecutive points stay close on a fine ring image
        assert np.all(np.isfinite(seg_a)) and np.all(np.isfinite(seg_b))


@pytest.mark.parametrize("name", sorted(RATIO_TABLE))
def test_quasidisk_ratio_scan(name, ratio_reports):
    per_ring, c_est = RATIO_TABLE[name]
    got = ratio_reports[name]
    assert not got.collapsed, name
    assert abs(got.c_estimate - c_est) < 1e-4, (name, got.c_estimate)
    for want, have in zip(per_ring, got.inf_ratio_per_ring):
        assert abs(have - want) < 1e-4, (name, have, want)
    assert got.c_estimate == min(got.inf_ratio_per_ring)


def test_ratio_scan_collapses_on_tangent_disk(ratio_reports):
    got = ratio_reports["mobius-of-strip"]
    assert got.collapsed
    assert got.c_estimate < 0.05
    # the collapse deepens with the probe ring
    ratios = got.inf_ratio_per_ring
    assert ratios[0] > ratios[1] > ratios[2]


def test_ratio_scan_rejects_strip_conjugates(catalog, ratio_reports):
    with pytest.raises(DegenerateDomain):
        quasidisk_ratio_scan(Strip())
    assert ratio_reports["strip"] is None


def _reflect_to_infinity(monkeypatch, rings, angles, lost):
    """Patch the ratio scan's reflect_grid so every probe on the rings
    whose indices are in lost reflects to the point at infinity."""
    def patched(expr, meta):
        zs, ws, rs, b2 = reflect_grid(expr, meta)
        rs = rs.reshape(len(rings), angles).copy()
        rs[list(lost)] = INFINITY
        return zs, ws, rs.ravel(), b2

    monkeypatch.setattr(quasidisk, "reflect_grid", patched)


def test_ratio_scan_flags_a_ring_that_reflects_to_infinity(monkeypatch):
    expr, rings, angles = Disk(0.5), (0.9, 0.99, 0.999), 256
    plain = quasidisk_ratio_scan(expr, rings, angles)
    _reflect_to_infinity(monkeypatch, rings, angles, lost=(0,))
    got = quasidisk_ratio_scan(expr, rings, angles)
    assert got.all_infinite == (True, False, False)
    assert got.inf_ratio_per_ring[0] == math.inf
    assert repr(got.arg_inf[0]) == "(nan+nanj)"
    assert got.inf_ratio_per_ring[1:] == plain.inf_ratio_per_ring[1:]
    assert got.arg_inf[1:] == plain.arg_inf[1:]
    assert got.c_estimate == min(plain.inf_ratio_per_ring[1:])
    assert plain.all_infinite == (False, False, False)


def test_ratio_scan_refuses_when_every_ring_reflects_to_infinity(monkeypatch):
    rings, angles = (0.9, 0.99), 128
    _reflect_to_infinity(monkeypatch, rings, angles, lost=(0, 1))
    with pytest.raises(DegenerateDomain, match="every probe ring"):
        quasidisk_ratio_scan(Disk(0.5), rings, angles)


def test_ratio_scan_of_a_subnormal_image_refuses_without_a_warning():
    """affine(identity, a=1e-320) has a subnormal f'(0), which leaves every
    reflection NaN; the normalization, which the scan's strip-conjugate gate
    reads first, refuses it as out of double range before any reflection or
    distance query, and with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDoubleRange, match="not a normal double"):
            quasidisk_ratio_scan(Affine(Identity(), 1e-320 + 0j, 0j), (0.9, 0.99), 128)


def test_a_tiny_image_scores_as_many_segment_pairs_as_its_inner_map(monkeypatch):
    """The distance queries see the map at its own scale.  At a raw span of
    2^-665 (about 1e-200) the box tree's squared gaps underflowed to 0, every
    box touched every probe, and the scan scored every (probe, segment)
    pair: 9.4 s against 0.16 s for the identity."""
    score, pairs = geometry._BoxTree._segment_distance, []

    def counted(self, q, seg):
        pairs.append(q.size)
        return score(self, q, seg)

    monkeypatch.setattr(geometry._BoxTree, "_segment_distance", counted)
    counts = []
    for expr in (Identity(), Affine(Identity(), 2.0 ** -665 + 0j, 0j)):
        pairs.clear()
        quasidisk_ratio_scan(expr)
        counts.append(sum(pairs))
    assert counts[1] == counts[0] > 0


def test_cluster_runs_wrap_past_angle_zero(monkeypatch):
    """A run that straddles angle 0 is one span from its last sample
    before 2 pi to its first after 0; spans follow the ring from the
    first sample below the cut, and a one-sample run starts and ends at
    the same angle."""
    expr = Halfplane(-1.0)
    a2 = evaluate.taylor(expr)[1]
    n = quasidisk.CLUSTER_ANGLES
    assert n == 4096
    profile = np.full(n, 0.5)
    profile[4090:] = profile[:4] = 0.99  # wraps: samples 4090..4095 and 0..3
    profile[100:200] = 0.99
    profile[2048] = 0.99
    monkeypatch.setattr(quasidisk, "normalize_values", lambda e, z: profile / a2)
    got = near_one_clusters(expr)
    assert got.pmax == pytest.approx(0.99, abs=1e-15)
    assert got.tau == pytest.approx(0.985, abs=1e-14)
    assert (got.count, got.whole_ring) == (3, False)
    step = math.pi / 2048  # 2 pi / 4096
    want = ((100 * step, 199 * step), (math.pi, math.pi), (4090 * step, 3 * step))
    np.testing.assert_allclose(got.spans, want, rtol=1e-15, atol=0.0)
    assert got.spans[1] == (math.pi, math.pi)
    # a ring maximum at or above 1 puts the cut above it: no run at all
    profile[2048] = 1.2
    got = near_one_clusters(expr)
    assert (got.count, got.whole_ring, got.spans) == (0, False, ())


def _reference_spans(above, angles):
    """The loop the cluster scan replaced: runs from the diff of the
    0-padded ring, rolled to its first sample below the cut."""
    first_out = int(np.argmin(above))
    rolled = np.roll(above, -first_out)
    edges = np.diff(np.concatenate([[0], rolled.astype(int), [0]]))
    spans = []
    for s, e in zip(np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]):
        a = 2.0 * math.pi * ((s + first_out) % angles) / angles
        b = 2.0 * math.pi * ((e - 1 + first_out) % angles) / angles
        spans.append((float(a), float(b)))
    return tuple(spans)


def test_cluster_runs_match_the_reference_loop(monkeypatch):
    expr = Halfplane(-1.0)
    a2 = evaluate.taylor(expr)[1]
    n = quasidisk.CLUSTER_ANGLES
    rng = np.random.default_rng(20)
    rings = [rng.uniform(size=n) < share for share in (1e-3, 0.02, 0.3, 0.7, 0.98, 0.999)]
    rings += [np.repeat(rng.uniform(size=n // 64) < 0.5, 64) for _ in range(4)]
    rings += [np.roll(np.arange(n) < k, -j) for k, j in ((1, 0), (1, 5), (n - 1, 7), (100, 50))]
    for above in rings:
        profile = np.where(above, 0.99, 0.5)
        monkeypatch.setattr(quasidisk, "normalize_values", lambda e, z: profile / a2)
        got = near_one_clusters(expr)
        assert np.array_equal(np.abs(a2 * (profile / a2)) > got.tau, above)
        assert got.spans == _reference_spans(above, n)
        assert got.count == len(got.spans) and not got.whole_ring


@pytest.mark.parametrize("name", sorted(OMISSION_TABLE))
def test_koebe_omission_scan(name, omission_reports):
    want = OMISSION_TABLE[name]
    got = omission_reports[name]
    assert not got.collapsed, name
    assert abs(got.inf_value - want) < 1e-5, (name, got.inf_value)
    assert got.inf_value > 0.45


@pytest.mark.parametrize("name", sorted(OMISSION_TABLE) + ["mobius-of-strip"])
def test_omission_probe_stays_inside_the_descent_cap(name, catalog, omission_reports):
    """The polar descent starts on a probe ring inside R_CAP and stays there;
    only the deep strip-end probes of a strip-built recentering go beyond."""
    assert max(PROBE_RINGS) < R_CAP
    got = omission_reports[name]
    deep = strip_structure(Koebe(catalog[name].expr, got.base_at)) is not None
    assert abs(got.probe_at) <= (np.nextafter(1.0, 0.0) if deep else R_CAP), name


def test_omission_scan_collapses_on_tangent_disk(omission_reports):
    got = omission_reports["mobius-of-strip"]
    assert got.collapsed
    assert got.inf_value < 5e-3


def test_scan_caches_stay_bounded():
    """Each omission scan caches the renormalization of one recentered node
    per base point, so a process scanning many distinct maps fills the
    caches past their bound; they evict rather than grow."""
    caches = (evaluate.taylor, evaluate._koebe_scalars, evaluate.shift_a2)
    misses = evaluate._koebe_scalars.cache_info().misses
    for k in range(25):
        koebe_omission_scan(MobiusShift(Disk(0.1 + 0.01 * k)), passes=0)
    assert evaluate._koebe_scalars.cache_info().misses - misses > evaluate.CACHE_SIZE
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == evaluate.CACHE_SIZE
        assert info.currsize <= evaluate.CACHE_SIZE


def test_omission_and_ratio_verdicts_agree(ratio_reports, omission_reports):
    for name, ratio in ratio_reports.items():
        if ratio is None:
            continue
        assert ratio.collapsed == omission_reports[name].collapsed, name


def test_lemma32_demo_rows():
    rows = lemma32_demo()
    assert [row.a for row in rows] == [(0.25 + 0j), (0.01 + 0j), 0.25j]
    for row in rows:
        assert row.sup_norm_dev < 1e-10, row.a
        assert row.delta < 1e-2, row.a
        assert row.delta_metric == EUCLIDEAN
    # smaller tangency parameter means slower collapse at fixed depth
    assert rows[1].delta > rows[0].delta
    # the parameter modulus controls the rate, not its phase
    assert abs(rows[2].delta - rows[0].delta) < 1e-9
