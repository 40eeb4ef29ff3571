"""Nearest-distance queries against their exhaustive-search oracles.

The oracles below compare every probe with every segment or cloud point
in blocks, with the same per-pair formula the tree evaluates at its
leaves, so the tree must agree with them exactly, not just closely.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LEAVES, annulus

from awr import geometry, quasidisk
from awr.catalog import FIXTURE_EXPRS
from awr.errors import DegenerateDomain
from awr.evaluate import jet_eval
from awr.expr import Affine, Koebe, MobiusShift
from awr.extended import is_infinite
from awr.geometry import _BoxTree, cloud_distances, segment_distances
from awr.grids import GridMeta
from awr.parser import parse_expr
from awr.quasidisk import (
    CLIP_RADIUS,
    RATIO_RINGS,
    boundary_polyline,
    quasidisk_ratio_scan,
)
from awr.record import fields
from awr.reflection import reflect_grid


def oracle_segment_distances(points, seg_a, seg_b, chunk=256):
    p = np.asarray(points, dtype=complex).ravel()
    a = np.asarray(seg_a, dtype=complex).ravel()
    b = np.asarray(seg_b, dtype=complex).ravel()
    if a.size == 0:
        return np.full(p.shape, np.inf)
    d = b - a
    den = np.abs(d) ** 2
    den = np.where(den > 0.0, den, 1.0)
    out = np.empty(p.shape, dtype=float)
    for k in range(0, p.size, chunk):
        blk = p[k : k + chunk, None]
        t = np.real((blk - a[None, :]) * np.conjugate(d)[None, :]) / den[None, :]
        t = np.clip(t, 0.0, 1.0)
        nearest = a[None, :] + t * d[None, :]
        out[k : k + chunk] = np.min(np.abs(blk - nearest), axis=1)
    return out.reshape(np.shape(points))


def oracle_cloud_distances(points, cloud, chunk=1024):
    p = np.asarray(points, dtype=complex).ravel()
    c = np.asarray(cloud, dtype=complex).ravel()
    if c.size == 0:
        return np.full(p.shape, np.inf)
    out = np.empty(p.shape, dtype=float)
    for k in range(0, p.size, chunk):
        blk = p[k : k + chunk, None]
        out[k : k + chunk] = np.min(np.abs(blk - c[None, :]), axis=1)
    return out.reshape(np.shape(points))


@st.composite
def polylines(draw):
    """Vertex chains mixing every segment shape the scans produce.

    Steps have lengths from 1e-4 to 4e4 in random directions; runs of
    axis-aligned collinear steps, zero steps (degenerate segments and
    duplicate points) and one clip-crossing jump out to the clip radius
    and back are spliced in.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(seed)
    length = 10.0 ** rng.uniform(-4.0, math.log10(4e4), n)
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    kind = rng.integers(0, 6, n)
    # consecutive kind-0 steps share one axis direction: collinear runs
    angle = np.where(kind == 0, 0.5 * math.pi * (np.cumsum(kind != 0) % 4), angle)
    length = np.where(kind == 1, 0.0, length)
    steps = length * np.exp(1j * angle)
    if draw(st.booleans()):
        k = int(rng.integers(0, n + 1))
        out = 0.999 * CLIP_RADIUS * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        steps = np.concatenate([steps[:k], [out, -out], steps[k:]])
    return rng.uniform(-10.0, 10.0) + np.cumsum(np.concatenate([[0j], steps]))


def clipped_zigzag(n, angle):
    """A short zigzag at the origin, a jump out to the clip radius at the
    given angle, and the zigzag again 0.01 above, run backwards.

    The long segments are cut into pieces whose boxes cover the zigzag,
    so many probes walk greedily into a leaf of the long segments while
    a short segment outside that leaf's box is nearer.
    """
    k = np.arange(n)
    zig = 0.05 * k + 0.02j * (k % 2)
    out = 0.999 * CLIP_RADIUS * np.exp(1j * angle)
    return np.concatenate([zig, [out], zig[::-1] + 0.01j])


GREEDY_MISS_EXAMPLES = [
    (clipped_zigzag(16, 0.25 * math.pi), 0),
    (clipped_zigzag(40, 0.3), 1),
    (clipped_zigzag(64, 0.25 * math.pi), 2),
]


def probe_points(verts, seed):
    """Probes at a random scale, near the vertices, and on them."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 5.0)
    return np.concatenate([
        scale * (rng.normal(size=150) + 1j * rng.normal(size=150)),
        verts[rng.integers(0, verts.size, 50)] * (1.0 + 1e-9 * rng.normal(size=50)),
        verts[:3],
    ])


@given(verts=polylines(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(verts=GREEDY_MISS_EXAMPLES[0][0], seed=GREEDY_MISS_EXAMPLES[0][1])
@example(verts=GREEDY_MISS_EXAMPLES[1][0], seed=GREEDY_MISS_EXAMPLES[1][1])
@example(verts=GREEDY_MISS_EXAMPLES[2][0], seed=GREEDY_MISS_EXAMPLES[2][1])
def test_tree_matches_oracle_exactly(verts, seed):
    probes = probe_points(verts, seed)
    a, b = verts[:-1], verts[1:]
    got = segment_distances(probes, a, b)
    assert np.array_equal(got, oracle_segment_distances(probes, a, b))
    got = cloud_distances(probes, verts)
    assert np.array_equal(got, oracle_cloud_distances(probes, verts))


@pytest.mark.parametrize("block", [1, 3, 7])
@given(verts=polylines(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
@example(verts=GREEDY_MISS_EXAMPLES[2][0], seed=GREEDY_MISS_EXAMPLES[2][1])
def test_leaf_block_edges_keep_the_tree_exact(block, verts, seed):
    """Blocks that split one probe's leaves, or one leaf's segments,
    across calls leave every distance bitwise equal to the oracles."""
    probes = probe_points(verts, seed)
    a, b = verts[:-1], verts[1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK_PAIRS", block)
        got_seg = segment_distances(probes, a, b)
        got_cloud = cloud_distances(probes, verts)
    assert np.array_equal(got_seg, oracle_segment_distances(probes, a, b))
    assert np.array_equal(got_cloud, oracle_cloud_distances(probes, verts))


def greedy_leaf_distances(probes, a, b):
    """Distances to the segments of the leaf a nearer-box walk ends in."""
    tree = _BoxTree(a, b)
    leaf = np.zeros(probes.size, dtype=np.intp)
    for lo_x, lo_y, hi_x, hi_y in tree.boxes[1:]:
        def gap(node):
            gx = np.maximum(np.maximum(lo_x[node] - probes.real, probes.real - hi_x[node]), 0.0)
            gy = np.maximum(np.maximum(lo_y[node] - probes.imag, probes.imag - hi_y[node]), 0.0)
            return gx * gx + gy * gy
        leaf = 2 * leaf + (gap(2 * leaf + 1) < gap(2 * leaf))
    out = np.empty(probes.size)
    for i, node in enumerate(leaf):
        start = tree.leaf_starts[node]
        seg = tree.owner[tree.order[start : start + tree.leaf_sizes[node]]]
        out[i] = oracle_segment_distances(probes[i : i + 1], a[seg], b[seg])[0]
    return out


@pytest.mark.parametrize("verts,seed", GREEDY_MISS_EXAMPLES)
def test_examples_defeat_the_greedy_leaf(verts, seed):
    """The pinned examples keep probes whose greedy leaf is not the
    nearest, for segments and for clouds, so the exactness property
    runs the pruned descent past a loose seed."""
    probes = probe_points(verts, seed)
    a, b = verts[:-1], verts[1:]
    assert np.any(greedy_leaf_distances(probes, a, b) > oracle_segment_distances(probes, a, b))
    assert np.any(greedy_leaf_distances(probes, verts, verts) > oracle_cloud_distances(probes, verts))


def test_empty_families_and_shapes():
    probes = np.array([[0j, 1 + 1j], [2j, -3.0 + 0j]])
    empty = np.empty(0, dtype=complex)
    assert np.all(segment_distances(probes, empty, empty) == np.inf)
    assert np.all(cloud_distances(probes, empty) == np.inf)
    assert segment_distances(empty, [0j], [1 + 0j]).shape == (0,)
    got = segment_distances(probes, [0j], [1 + 0j])
    assert got.shape == (2, 2)
    assert np.array_equal(got, [[0.0, 1.0], [2.0, 3.0]])


def test_non_finite_probes_get_nan():
    probes = np.array([np.nan + 0j, complex(np.inf, 0.0), 0.5 + 1j])
    got = segment_distances(probes, [0j], [1 + 0j])
    assert np.isnan(got[0]) and np.isnan(got[1])
    assert got[2] == 1.0
    got = cloud_distances(probes, [0j, 1 + 0j])
    assert np.isnan(got[0]) and np.isnan(got[1])
    assert got[2] == abs(0.5 + 1j - 1.0)


# Interior samples of the oracle's closed image, beside the polyline vertices.
INTERIOR_RINGS = (0.3, 0.6, 0.9, 0.975, 0.99, 0.995)


def oracle_inf_ratios(expr, rings, angles):
    """Per-ring infima of the ratio scan, ring by ring, with the oracles.

    The reflected point is measured against the closed image: the
    polyline and a cloud of interior samples, none on a ring beyond the
    polyline's.  The scan measures it against the polyline alone; the
    two agree because R_w never lies in the closed image.
    """
    rings = tuple(sorted(rings))
    poly = boundary_polyline(expr, n=8192, r=max(1.0 - (1.0 - rings[-1]) / 20.0, 0.995))
    seg_a, seg_b = poly.segments()
    cloud = [poly.vertices()]
    for rr in INTERIOR_RINGS:
        v = jet_eval(expr, rr * np.exp(2j * np.pi * np.arange(1024) / 1024)).f0
        cloud.append(v[np.isfinite(v) & (np.abs(v) <= CLIP_RADIUS)])
    cloud = np.concatenate(cloud)
    _, ws, rs, _ = reflect_grid(expr, GridMeta(rings=rings, angles=angles))
    out = []
    for w, refl in zip(ws.reshape(len(rings), angles), rs.reshape(len(rings), angles)):
        finite_r = ~is_infinite(refl)
        d_w = oracle_segment_distances(w, seg_a, seg_b)
        rf = refl[finite_r]
        d_r = np.minimum(oracle_segment_distances(rf, seg_a, seg_b),
                         oracle_cloud_distances(rf, cloud))
        ratio = np.full(angles, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[finite_r] = d_r / d_w[finite_r]
        usable = np.isfinite(ratio)
        out.append(float(np.min(ratio[usable])) if np.any(usable) else math.inf)
    return tuple(out)


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_ratio_scan_matches_oracle_on_fixtures(name, expr):
    angles = 256
    try:
        got = quasidisk_ratio_scan(expr, angles=angles)
    except DegenerateDomain:
        assert name == "strip"
        return
    assert got.inf_ratio_per_ring == oracle_inf_ratios(expr, RATIO_RINGS, angles)


@st.composite
def composites(draw):
    """A leaf under up to three koebe, affine and mobius-shift layers."""
    expr = draw(LEAVES)
    for kind in draw(st.lists(st.sampled_from("KAM"), max_size=3)):
        if kind == "K":
            expr = Koebe(expr, draw(annulus(0.0, 0.97)))
        elif kind == "A":
            scale = draw(annulus(0.2, 5.0))
            expr = Affine(expr, scale, complex(*draw(st.tuples(st.floats(-2.0, 2.0),
                                                               st.floats(-2.0, 2.0)))))
        else:
            expr = MobiusShift(expr)
    return expr


@given(expr=composites(), rings=st.sampled_from([RATIO_RINGS, (0.45, 0.85)]),
       angles=st.integers(256, 512))
@settings(max_examples=12, deadline=None)
def test_ratio_scan_matches_closed_image_oracle_on_composites(expr, rings, angles):
    """The scan measures R_w against the boundary polyline alone; the
    oracle measures it against the closed image, interior samples
    included.  They agree because R_w is never in the closed image: the
    paper's theorem keeps the mediatrix of [w, R_w] outside each convex
    leaf domain, and the reflection commutes with the disk automorphism
    before the leaf and the Mobius map after it.  The shallow ring set
    puts the polyline on its floor radius, the oracle's deepest interior
    ring."""
    try:
        got = quasidisk_ratio_scan(expr, rings=rings, angles=angles)
    except DegenerateDomain:
        return
    assert got.inf_ratio_per_ring == oracle_inf_ratios(expr, rings, angles)


@pytest.mark.parametrize("name", ["halfplane", "strip-shift"])
def test_ratio_scan_queries_match_oracles_on_unbounded_fixtures(name, monkeypatch):
    """Every distance the ratio scan asks for on the unbounded fixtures,
    whose polylines are truncated short of the boundary and close with
    long segments, is bitwise equal to exhaustive search.  There the
    greedy leaf is often wrong and the far corner bounds the descent."""
    seen = []

    def record(*args):
        seen.append((args, segment_distances(*args)))
        return seen[-1][1]

    monkeypatch.setattr(quasidisk, "segment_distances", record)
    quasidisk_ratio_scan(dict(FIXTURE_EXPRS)[name], angles=512)
    ((args, got),) = seen
    _, seg_a, seg_b = args
    length = np.abs(seg_b - seg_a)
    assert np.max(length) > 100.0 * np.mean(length)
    assert np.array_equal(got, oracle_segment_distances(*args))


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_ratio_scan_queries_evaluate_few_leaf_pairs(name, expr, monkeypatch):
    """At the default grid, the ratio scan's one query, against the
    segments, evaluates at most 24 (probe, segment) pairs per probe,
    seed leaf included; the worst today is about 18, on strip-shift.  A
    descent whose cap stops tightening below the seed evaluates far
    more."""
    queries = []
    query, segment_distance = _BoxTree.query, _BoxTree._segment_distance

    def counted_query(tree, p):
        queries.append([p.size, 0])
        return query(tree, p)

    def counted_segment_distance(tree, q, seg):
        queries[-1][1] += seg.size
        return segment_distance(tree, q, seg)

    monkeypatch.setattr(_BoxTree, "query", counted_query)
    monkeypatch.setattr(_BoxTree, "_segment_distance", counted_segment_distance)
    try:
        quasidisk_ratio_scan(expr)
    except DegenerateDomain:
        assert name == "strip"
        return
    assert len(queries) == 1
    ((seg_probes, seg_pairs),) = queries
    assert seg_pairs <= 24 * seg_probes


def assert_same_fields(got, want):
    for name in fields(want):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b, equal_nan=True), name


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name", ["sector", "strip-shift"])
def test_leaf_block_size_keeps_ratio_profiles(name, block, ratio_reports, monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_PAIRS", block)
    got = quasidisk_ratio_scan(dict(FIXTURE_EXPRS)[name])
    assert_same_fields(got, ratio_reports[name])


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_ratio_scan_memory_stays_bounded(name, expr):
    """At the default grid the scan's traced peak stays at or under
    12 MB; it is 6.3-9.3 MB today, and was 12.8-20.1 MB while the
    queries scored every (probe, leaf) pair at once."""
    if name == "strip":
        return
    assert traced_peak_mb(lambda: quasidisk_ratio_scan(expr)) <= 12.0


def test_large_ratio_scan_memory_stays_bounded():
    """3 x 32,768 angles, the most the grid cap lets one ring set take
    at 3 rings: 70 MB today, 226 MB with unblocked queries."""
    expr = parse_expr("sector(a=0.5)")
    assert traced_peak_mb(lambda: quasidisk_ratio_scan(expr, angles=32768)) <= 100.0


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, awr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
