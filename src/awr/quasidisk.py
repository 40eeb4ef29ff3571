"""Normalization scans, omitted-value detection, and quasidisk ratios.

The scans here probe the global geometry of an image domain: how the
Mobius-normalized map behaves near the unit circle, how close the
omitted value f(0) - 1/c comes to the image, and whether the reflected
points keep a uniform distance ratio from the boundary.  A collapsing
ratio or a vanishing omitted-value distance both witness that the image
fails the quasidisk criteria, which for the catalog happens exactly on
the strip-conjugate family.

The ratio needs the boundary alone: by the paper's theorem R_w never
lies in the closed image of a convex leaf, and the reflection's
equivariance carries this to every map the grammar builds.
"""

from __future__ import annotations

import math

import numpy as np

from .deepscan import deep_min, strip_structure
from .domain import Domain
from .errors import DegenerateDomain, PoleInDomain
from .evaluate import A2_ZERO_TOL, jet_eval, normalization, taylor
from .expr import Koebe, MapExpr, MobiusOfStrip, Strip
from .extended import INFINITY, chordal, is_infinite
from .geometry import segment_distances
from .grids import (
    DEFAULT_A_LIST,
    DEFAULT_PASSES,
    DELTA_ANGLES,
    DELTA_RINGS,
    NORM_ANGLES,
    NORM_RINGS,
    R_CAP,
    RATIO_ANGLES,
    RATIO_RINGS,
    GridMeta,
    check_passes,
    grid_points,
    at_polar,
    polar,
    refine_on_grid,
    ring_points,
)
from .jets import extremum
from .record import Record
from .reflection import reflect_grid

CLIP_RADIUS = 1e6
COLLAPSE_THRESHOLD = 0.05
EUCLIDEAN = "euclidean"
CHORDAL = "chordal"
CLUSTER_RING = 0.9999  # near_one_clusters samples this ring at CLUSTER_ANGLES angles
CLUSTER_ANGLES = 4096


def normalize_values(expr: MapExpr, z):
    """f* = x/(1 + c x), x = f - f(0) (`evaluate.normalization`): f'(0) times the shifted
    map of F = x/f'(0), f/(1 + a2 f) when normalized; |c f*| is scale-free."""
    f0, _, c = normalization(expr)
    x = jet_eval(expr, np.asarray(z, dtype=complex)).f0 - f0
    with np.errstate(all="ignore"):  # an overflowed f gives inf / inf, a NaN the scans mask
        den = 1.0 + c * x
        if np.any(np.abs(den) < A2_ZERO_TOL):
            raise PoleInDomain("1 + c (f - f(0)) vanishes on the sample grid")
        return x / den


class NormalizedSup(Record):
    """Grid supremum of |c f*| (|a2 f*| for a normalized f), below 1 on convex images."""

    sup: float
    arg: complex
    interior_ok: bool


def normalized_sup(expr: MapExpr,
                   meta: GridMeta = GridMeta(rings=NORM_RINGS, angles=NORM_ANGLES)) -> NormalizedSup:
    """Sup over a grid of |c f*|; trivially 0 when c = 0."""
    c = normalization(expr)[2]
    if c == 0:
        return NormalizedSup(sup=0.0, arg=0j, interior_ok=True)
    pts = grid_points(meta)
    k, sup = extremum(np.abs(c * normalize_values(expr, pts)), largest=True)
    return NormalizedSup(sup=sup, arg=complex(pts.flat[k]), interior_ok=bool(sup < 1.0))


class ClusterReport(Record):
    """Angular clusters where |c f*| approaches its ring maximum."""

    ring: float
    pmax: float
    tau: float
    count: int
    whole_ring: bool
    spans: tuple


def near_one_clusters(expr: MapExpr) -> ClusterReport:
    """Count maximal angular runs with |c f*| above an adaptive cut.

    The cut tau = 1 - 1.5 (1 - pmax) scales with how close the ring
    maximum pmax gets to 1, so the run count is stable for the
    unbounded catalog maps: one full-circle run for half-plane images,
    two isolated runs for sector and shifted-strip images.
    """
    ring, angles = CLUSTER_RING, CLUSTER_ANGLES
    p = np.abs(normalization(expr)[2] * normalize_values(expr, ring_points((ring,), angles)[0]))
    pmax = extremum(p, largest=True)[1]
    tau = 1.0 - 1.5 * (1.0 - pmax)
    above = p > tau
    if bool(np.all(above)):
        return ClusterReport(
            ring=ring, pmax=pmax, tau=tau, count=1, whole_ring=True,
            spans=((0.0, 2.0 * np.pi),),
        )
    # Rolled to its first sample below the cut, no run wraps past the end;
    # a run starts where its left neighbour is below and ends where its right one is.
    first_out = int(np.argmin(above))
    rolled = np.roll(above, -first_out)
    starts = np.nonzero(rolled & ~np.roll(rolled, 1))[0]
    ends = np.nonzero(rolled & ~np.roll(rolled, -1))[0]
    a = 2.0 * math.pi * ((starts + first_out) % angles) / angles
    b = 2.0 * math.pi * ((ends + first_out) % angles) / angles
    spans = tuple(zip(a.tolist(), b.tolist()))
    return ClusterReport(
        ring=ring, pmax=pmax, tau=tau, count=len(spans), whole_ring=False, spans=spans,
    )


class DeltaReport(Record):
    """Distance from the omitted value f(0) - 1/c (`evaluate.normalization`) to the sampled image.

    When c = 0 the omitted value is the point at infinity and the
    distance is chordal; otherwise it is Euclidean.  A vanishing value
    detects the strip-conjugate family.
    """

    value: float
    metric: str
    arg_inf: complex


def delta_f(expr: MapExpr, grid: GridMeta = GridMeta(rings=DELTA_RINGS, angles=DELTA_ANGLES),
            passes: int = DEFAULT_PASSES) -> DeltaReport:
    """Inf of the omitted-value distance with boundary-deep refinement.

    The coarse grid is refined two ways and the smaller value wins: a
    local polar descent toward the unit circle (radius capped just
    inside it), and, for maps built from the strip, evaluation at
    probes exponentially close to the strip-end prime ends, where the
    image runs out toward the omitted value when and only when that
    value sits on the boundary.
    """
    check_passes(passes)
    f0, _, c = normalization(expr)
    metric, dist = ((EUCLIDEAN, lambda f: np.abs(f - (f0 - 1.0 / c))) if c else
                    (CHORDAL, lambda f: chordal(f, INFINITY)))
    pts = grid_points(grid)
    k, best = extremum(dist(jet_eval(expr, pts).f0))
    arg = complex(pts.flat[k])

    fn = at_polar(lambda z: dist(jet_eval(expr, z).f0)[0])
    rings, (i, j) = grid.rings, divmod(k, grid.angles)
    r0, th0 = rings[i], 2.0 * np.pi * j / grid.angles
    dr = max(r0 - rings[i - 1] if i > 0 else r0, 1.0 - r0)
    v, r_ref, th_ref = refine_on_grid(fn, r0, th0, fn(r0, th0), 2.0 * np.pi / grid.angles,
                                      (0.0, R_CAP), dr=dr, passes=passes)
    if v < best:
        best = v
        arg = polar(r_ref, th_ref)

    struct = strip_structure(expr)
    if struct is not None:
        v, omega = deep_min(struct, dist, passes, 129)
        if v < best:
            best, arg = v, omega
    return DeltaReport(value=best, metric=metric, arg_inf=arg)


class BoundaryPolyline(Record):
    """Image of a near-unit ring, used as the boundary discretization.

    points keeps the raw ordered samples; kept marks the ones inside
    the clip radius that distance queries may use.  Consecutive kept
    duplicates are dropped at construction.
    """

    points: np.ndarray
    kept: np.ndarray

    def segments(self):
        """Endpoint arrays of segments joining consecutive kept points."""
        pts = self.points
        keep = self.kept
        n = pts.size
        idx = np.nonzero(keep)[0]
        if idx.size < 2:
            return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
        nxt = (idx + 1) % n
        good = keep[nxt]
        return pts[idx[good]], pts[nxt[good]]

    def vertices(self) -> np.ndarray:
        return self.points[self.kept]


def boundary_polyline(expr: MapExpr, n: int = 8192, r: float = 0.999975) -> BoundaryPolyline:
    """Sample f on the ring |z| = r as a boundary polyline."""
    if not (0.99 <= r < 1.0):
        raise DegenerateDomain(f"polyline radius {r} outside [0.99, 1)")
    if n < 1024:
        raise DegenerateDomain("polyline needs at least 1024 points")
    f0, a1, _ = normalization(expr)  # clipped as (f - f(0))/f'(0), so the clip is scale-free
    vals = jet_eval(expr, ring_points((r,), n)[0]).f0
    finite = np.isfinite(vals)
    keep = finite & (np.abs(np.where(finite, vals - f0, 0.0)) <= CLIP_RADIUS * abs(a1))
    # Drop consecutive duplicates among kept points.
    kept_idx = np.nonzero(keep)[0]
    if kept_idx.size >= 2:
        same = np.abs(np.diff(vals[kept_idx])) == 0.0
        keep[kept_idx[1:][same]] = False
    if int(np.sum(keep)) < 2:
        raise DegenerateDomain("boundary polyline collapsed")
    return BoundaryPolyline(points=vals, kept=keep)


class RatioProfile(Record):
    """Per-ring infima of d(R_w, closed image) / d(w, boundary); the
    numerator is d(R_w, boundary), since R_w is never in the closed image.
    inf_ratio_per_ring and arg_inf take both from the sampled polyline;
    exact_ratio_per_ring and exact_arg_inf take them on the same probes from
    the closed-form boundary (`domain.Domain`), so no ring moves another."""

    rings: tuple
    inf_ratio_per_ring: tuple
    arg_inf: tuple
    c_estimate: float
    all_infinite: tuple
    collapsed: bool
    exact_ratio_per_ring: tuple
    exact_arg_inf: tuple


def quasidisk_ratio_scan(expr: MapExpr, rings=RATIO_RINGS, angles: int = RATIO_ANGLES) -> RatioProfile:
    """Reflection distance ratios per probe ring.

    The boundary is discretized on the ring of radius
    max(1 - (1 - r_max)/20, 0.995), beyond the deepest probe ring r_max,
    and both w and R_w are measured against that polyline alone.  The
    paper's theorem puts the mediatrix of [w, R_w] outside a convex
    image, so R_w is never in its closure: otherwise the open segment
    (w, R_w), midpoint included, would lie in the image.  Every leaf
    domain is convex and the reflection is equivariant under the
    disk automorphism before the leaf and the Mobius map after it, so
    this holds for every map the grammar builds.  A probe counts exactly
    where R_w is finite, and a ring with no usable ratio is flagged; with
    none on any ring the scan refuses, naming infinity only if every R_w is.
    A quasidisk keeps the ratio bounded below; the tangent-disk images
    collapse at the tangency cusp.  The exact ratios use `domain.Domain`.
    """
    if normalization(expr)[2] == 0 and not Domain.of(expr).bounded:
        raise DegenerateDomain(
            "strip-conjugate map reflects its axis to infinity; "
            "use delta_f or koebe_omission_scan instead"
        )
    rings = tuple(sorted(float(r) for r in rings))
    meta = GridMeta(rings=rings, angles=angles)
    r_b = 1.0 - (1.0 - rings[-1]) / 20.0
    poly = boundary_polyline(expr, n=8192, r=max(r_b, 0.995))
    seg_a, seg_b = poly.segments()

    zs, ws, rs, _ = reflect_grid(expr, meta)
    if np.all(is_infinite(rs)):
        raise DegenerateDomain("every probe ring reflected to infinity")
    # One query per boundary takes the image points and the finite reflections together.
    finite_r = np.isfinite(rs)
    probes = np.concatenate([ws, rs[finite_r]])
    ratio = np.full((2, ws.size), np.inf)  # to the polyline, then to the closed-form boundary
    with np.errstate(all="ignore"):  # a polyline of subnormal span overflows the box keys
        d_seg = segment_distances(probes, seg_a, seg_b)
        d_exact = Domain.of(expr).boundary_distance(probes)
        for k, d in enumerate((d_seg, d_exact)):
            ratio[k, finite_r] = d[ws.size :] / d[: ws.size][finite_r]
    zs, ratio = zs.reshape(len(rings), angles), ratio.reshape(2, len(rings), angles)

    usable = np.isfinite(ratio)
    # with no usable ratio on any ring every sample is masked, and extremum refuses
    c_estimate = extremum(np.where(usable[0], ratio[0], np.nan))[1]
    # Per ring: the least finite ratio, or inf at nan+nanj when none is finite.
    flags = ~np.any(usable, axis=2)
    j = np.argmin(np.where(usable, ratio, np.inf), axis=2)
    infima = np.where(flags, np.inf, np.take_along_axis(ratio, j[..., None], 2)[..., 0]).tolist()
    args = np.where(flags, complex(np.nan, np.nan), zs[np.arange(len(rings)), j]).tolist()
    deepest, shallowest = infima[0][-1], infima[0][0]
    collapsed = bool(math.isfinite(deepest) and deepest < COLLAPSE_THRESHOLD
                     and math.isfinite(shallowest) and deepest < 0.5 * shallowest)
    return RatioProfile(
        rings=rings,
        inf_ratio_per_ring=tuple(infima[0]),
        arg_inf=tuple(args[0]),
        c_estimate=c_estimate,
        all_infinite=tuple(flags[0].tolist()),
        collapsed=collapsed,
        exact_ratio_per_ring=tuple(infima[1]),
        exact_arg_inf=tuple(args[1]),
    )


class OmissionReport(Record):
    """Inf of |b2 g + 1| over recenterings g and probe points."""

    inf_value: float
    base_at: complex
    probe_at: complex
    collapsed: bool


BASE_RINGS = (0.3, 0.6, 0.9)
BASE_ANGLES = 16
PROBE_RINGS = (0.5, 0.9, 0.99)
PROBE_ANGLES = 64


def koebe_omission_scan(
    expr: MapExpr,
    base_grid: GridMeta = None,
    passes: int = DEFAULT_PASSES,
) -> OmissionReport:
    """Scan how close recentered maps come to their omitted value.

    Each base point z0 yields the recentered map g with coefficient b2;
    the scanned quantity |b2 g(z) + 1| measures the scaled distance
    from g(z) to the omitted value -1/b2.  Bases with b2 = 0 contribute
    the constant 1.  Refinement deepens the probes only: toward the
    strip ends via exponentially close samples when g is strip-built,
    and otherwise by a local polar descent from a probe, all of which lie
    inside its radius cap R_CAP.  An infimum collapsing to 0 detects
    omitted values on the image boundary.
    """
    check_passes(passes)
    # BASE_ANGLES is below GridMeta's 64-angle floor, so the default is a bare ring set.
    bases = ring_points(BASE_RINGS, BASE_ANGLES) if base_grid is None else grid_points(base_grid)
    bases = np.concatenate([[0j], bases.ravel()])
    probes = ring_points(PROBE_RINGS, PROBE_ANGLES).ravel()

    def candidate(z0):
        """(value, base, probe, recentered map, its b2) of one base."""
        g_expr = Koebe(expr, complex(z0))
        b2 = taylor(g_expr)[1]  # g is normalized by construction; the score keeps b2's bits
        if normalization(g_expr)[2] == 0:
            return 1.0, complex(z0), 0j, None, 0j
        m, v = extremum(np.abs(b2 * jet_eval(g_expr, probes).f0 + 1.0))
        return v, complex(z0), complex(probes[m]), g_expr, b2

    # the first least candidate; the leading inf entry wins where no base scores below inf
    best, best_base, best_probe, best_expr, best_b2 = min(
        [(math.inf, 0j, 0j, None, 0j)] + [candidate(z0) for z0 in bases], key=lambda c: c[0])

    if best_expr is not None:

        def score(g):
            return np.abs(best_b2 * g + 1.0)

        struct = strip_structure(best_expr)
        if struct is not None:
            v, omega = deep_min(struct, score, passes, 65)
            if v < best:
                best, best_probe = v, omega
        else:
            fn = at_polar(lambda z: score(jet_eval(best_expr, z).f0)[0])
            pr, pt = abs(best_probe), math.atan2(best_probe.imag, best_probe.real)
            v, r_ref, th_ref = refine_on_grid(fn, pr, pt, fn(pr, pt), 2.0 * np.pi / PROBE_ANGLES,
                                              (0.0, R_CAP), dr=max(1.0 - pr, 0.1), passes=passes)
            if v < best:
                best, best_probe = v, polar(r_ref, th_ref)
    return OmissionReport(
        inf_value=best,
        base_at=best_base,
        probe_at=best_probe,
        collapsed=bool(best < COLLAPSE_THRESHOLD),
    )


class Lemma32Row(Record):
    """Strip-conjugate family diagnostics for one parameter value."""

    a: complex
    delta: float
    delta_metric: str
    sup_norm_dev: float


def lemma32_demo(a_sequence=DEFAULT_A_LIST):
    """Normalization collapse along the tangent-disk family.

    For each parameter a, the map v -> v/(1 + a v) composed with the
    strip map has normalized form identically equal to the strip map,
    and its omitted-value distance vanishes; the demo reports both the
    sup deviation |f* - L| on |z| <= 0.9 and delta at a deep refinement
    (six exponential passes) so even tiny parameters register as
    strip-conjugate.
    """
    rows = []
    rs = ring_points((0.3, 0.6, 0.9), 256).ravel()
    l_vals = jet_eval(Strip(), rs).f0
    for a in a_sequence:
        f_expr = MobiusOfStrip(complex(a))
        dev = extremum(np.abs(normalize_values(f_expr, rs) - l_vals), largest=True)[1]
        rep = delta_f(f_expr, passes=6)
        rows.append(
            Lemma32Row(
                a=complex(a),
                delta=rep.value,
                delta_metric=rep.metric,
                sup_norm_dev=dev,
            )
        )
    return rows
