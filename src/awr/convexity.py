"""Certificates tied to convexity of the image domain.

Three numerical checks live here.  The mediatrix scan verifies that the
perpendicular bisector of each segment from an image point to its
reflection separates the reflection from the image domain.  The
coefficient scan verifies the sharp lower bound Re(a2 f) >= -1/2 and
its pointwise strengthening on (f - f(0))/f'(0).  The proof check reproduces
the Schur-type coefficient inequality behind the separation theorem for
a set of recentering points.

A mediatrix margin is a linear functional of the base value, so its
least value over the base grid sits on the grid's convex hull.  The hull
is computed once per scan; each probe is then scored only on a small
window around the hull vertex its gap direction selects, and the window
is accepted only under a check that makes the result equal, bit for
bit, to scoring every base.  Probes that fail the check are scored
against every base that can reach the minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParam, CoincidentPoints, DegenerateDomain, OutOfDoubleRange
from .evaluate import at_own_scale, jet_eval, normalization, taylor, value
from .expr import MapExpr
from .extended import is_infinite
from .grids import DEFAULT_ZETAS, R_CAP, GridMeta, at_polar, polar, refine_on_grid, ring_points
from .jets import Jet3, extremum, nonzero, refuse_at
from .record import Record
from .reflection import reflect_grid

CONTACT_TOL = 1e-3


class LineSpec(Record):
    """A line in the image plane: point, unit tangent, unit normal.

    The normal points toward the side containing the image domain.
    """

    point: complex
    tangent: complex
    normal: complex


def mediatrix(w, r) -> LineSpec:
    """Perpendicular bisector of the segment from w to its reflection r."""
    w = complex(w)
    if is_infinite(r):
        raise DegenerateDomain("reflection at infinity has no mediatrix")
    r = complex(r)
    gap = w - r
    if abs(gap) <= 1e-13 * max(abs(w), abs(r)):  # relative: any affine scale passes
        raise CoincidentPoints("image point and reflection coincide")
    n = gap / abs(gap)
    return LineSpec(point=(w + r) / 2.0, tangent=1j * n, normal=n)


class MediatrixReport(Record):
    """Worst-case separation margins of a mediatrix scan.

    Margins are normalized by the segment length, so an image point on
    the segment midpoint scores 0 and the image point w itself scores
    1/2.  contact means some margin dropped below CONTACT_TOL, i.e. the
    mediatrix comes arbitrarily close to the image closure; passed means
    no margin is below -1e-9.  Every probe is scored (n_checked) or
    vacuous (n_vacuous).
    """

    min_margin: float
    probe_at: complex
    base_at: complex
    contact: bool
    n_vacuous: int
    n_checked: int
    probe_z: np.ndarray
    probe_w: np.ndarray
    probe_r: np.ndarray
    probe_margin: np.ndarray
    passed: bool


# Rounding allowance of the hull tests, per unit of magnitude of the
# values and offsets involved.
HULL_ROUNDING = 64.0 * np.finfo(float).eps
# The window search is used only when |gap|^2 and the largest base value
# lie inside SAFE_RANGE, and |mid| is at most MID_REACH times that value.
# No product then overflows, and none underflows enough to outgrow the
# rounding allowance.  Farther midpoints round v - mid so coarsely that
# a window would span most of the hull; the few such pairs of a scan are
# scored densely.
SAFE_RANGE = (1e-100, 1e100)
MID_REACH = 1e6
# (probe, base) scores held at once: the window and the dense scoring
# run over blocks of probes this many scores wide, so their temporaries
# stay at a few hundred kB whatever the grid.
BLOCK_SCORES = 1 << 15


def _hull_support(vals: np.ndarray, allowance: float):
    """The convex hull of the values, and the values that can minimize a linear functional.

    Returns (hull, support, depth).  hull holds the vertices of the
    convex hull, counterclockwise (Andrew's monotone chain).  The chain
    runs only on the values that lie within allowance of the boundary of
    the octagon of extreme values in eight directions (Akl-Toussaint);
    the others are deeper than allowance inside the hull as well.
    support holds, in order, the indices of the values within allowance
    of the hull's boundary, so duplicates and collinear points stay, and
    depth[e, i] is the distance of vals[support[i]] from the line of
    edge e, from hull[e] to hull[e + 1], positive inside.  With
    allowance = HULL_ROUNDING (max |v| + reach), any other value
    evaluates strictly above the minimum of Re((v - c) conj(g)) for every
    offset c with |c| <= reach, so the minimum and its first index are
    the same as over all values.  If a value is not finite, or the hull
    has fewer than three vertices, hull is empty and support holds every
    index.
    """
    everything = np.empty(0, dtype=complex), np.arange(vals.size), None
    if not np.all(np.isfinite(vals)):
        return everything

    def depth(corners, pts):
        """Distance of each point from each edge line, positive inside."""
        edge = np.roll(corners, -1) - corners
        length = np.abs(edge)[:, None]
        return np.imag(np.conjugate(edge)[:, None] * (pts[None, :] - corners[:, None])) / length

    u = np.exp(0.25j * np.pi * np.arange(8))
    octagon = vals[np.argmax(np.real(vals[None, :] * np.conjugate(u)[:, None]), axis=1)]
    # a repeated extreme value makes an empty edge, whose depth is NaN
    cand = np.flatnonzero(np.any(depth(octagon, vals) <= allowance, axis=0))
    if cand.size < 3:  # depths that leave double range can keep no candidate
        return everything

    def chain(seq):
        out = []
        for p in seq:
            # pop while out[-2], out[-1], p do not turn counterclockwise
            while len(out) >= 2 and ((out[-1] - out[-2]).conjugate() * (p - out[-2])).imag <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    # distinct values by real, then imaginary part: np.unique's bits (the stable
    # sort keeps the first of +-0.0) without its first call's numpy.ma import
    pts = np.sort(vals[cand], kind="stable")
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    hull = np.asarray(chain(pts.tolist()) + chain(pts[::-1].tolist()))
    if hull.size < 3:
        return everything
    dist = depth(hull, vals[cand])
    kept = np.any(dist <= allowance, axis=0)
    return hull, cand[kept], dist[:, kept]


def _dense_margins(vals: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Least margin over all the given values for each pair (w, r), and its first index."""
    margin = np.empty(w.shape)
    arg = np.empty(w.shape, dtype=int)
    chunk = max(1, BLOCK_SCORES // vals.size)
    for k in range(0, w.size, chunk):
        ww = w[k : k + chunk]
        rr = r[k : k + chunk]
        gap = ww - rr
        mid = (ww + rr) / 2.0
        scale = np.abs(gap) ** 2
        m = np.real(
            (vals[None, :] - mid[:, None]) * np.conjugate(gap)[:, None]
        ) / scale[:, None]
        j = np.argmin(m, axis=1)
        margin[k : k + chunk] = m[np.arange(j.size), j]
        arg[k : k + chunk] = j
    return margin, arg


def _support_vertex(hull: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Index of the hull vertex that minimizes Re(v conj(gap)), for each gap.

    Along a counterclockwise hull the angles of the inward edge normals
    increase through one turn; the minimizing vertex is the one whose two
    edges' inward normals bracket gap, found by a binary search.
    """
    inward = np.unwrap(np.angle(1j * (np.roll(hull, -1) - hull)))
    return np.searchsorted(np.concatenate([inward - 2.0 * np.pi, inward]), np.angle(gap)) % hull.size


def _min_margins(base_vals: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Least margin over the bases for each pair (w, r), and its first base index.

    The margin Re((v - mid) conj(gap)) / |gap|^2, with gap = w - r and
    mid = (w + r) / 2, is a linear functional of the base value v, so
    its minimum sits at a vertex k of the hull support, found by
    _support_vertex.  Each pair is scored only on a window: the vertices
    k - 2 .. k + 2 and the other support values near the edges between
    them.  Of tied minima the one of least support index wins, as in a
    dense argmin.  The window is accepted when vertices k - 2 and k + 2
    score above the least of vertices k - 1, k, k + 1 by more than the
    rounding allowance.  The scores of a convex polygon's vertices are
    unimodal, so some vertex j among k - 1, k, k + 1 then minimizes over
    the hull, and every support value away from the edges of j scores
    above the window's minimum.  Every other pair, and every pair of a
    hull with fewer than five vertices, is scored against the whole
    support, as is any pair outside the magnitudes the allowance covers.
    The hull, the support, the allowance and the window table are built
    once for all pairs; the scoring then runs over blocks of pairs, so its
    memory does not grow with their number.
    """
    with np.errstate(all="ignore"):  # gaps and scores may leave double range
        gap = w - r
        mid = (w + r) / 2.0
        scale = np.abs(gap) ** 2
        mid_abs = np.abs(mid)
        vmax = float(np.max(np.abs(base_vals), initial=0.0))
        reach = float(np.max(mid_abs, initial=0.0))
        hull, support, depth = _hull_support(base_vals, HULL_ROUNDING * (vmax + reach))
        vals = base_vals[support]
        lo, hi = SAFE_RANGE
        n = hull.size
        margin = np.empty(w.shape)
        pos = np.zeros(w.shape, dtype=int)
        dense = np.ones(w.shape, dtype=bool)
        if n >= 5 and lo < vmax < hi:
            allowance = HULL_ROUNDING * (vmax + min(reach, MID_REACH * vmax))
            ring = (np.arange(n)[:, None] + np.arange(-2, 3)) % n
            # support position of the first copy of each of vertices k - 2 .. k + 2
            first = np.argmax(vals == hull[:, None], axis=1)[ring]
            # window k: those vertices, then the other support values near
            # edges k - 2 .. k + 1, padded with vertex k
            near = np.any(depth[ring[:, :4]] <= allowance, axis=1)
            near[np.arange(n)[:, None], first] = False
            size = np.sum(near, axis=1)
            extra = np.argsort(~near, axis=1)[:, : np.max(size)]
            extra = np.where(np.arange(extra.shape[1]) < size[:, None], extra, first[:, 2:3])
            win = np.concatenate([first, extra], axis=1).T.copy()

            block = max(1, BLOCK_SCORES // win.shape[0])
            for k in range(0, w.size, block):
                b = slice(k, k + block)
                g, c, sc = gap[b], mid[b], scale[b]
                cols = np.take(win, _support_vertex(hull, g), axis=1)
                m = np.real((vals[cols] - c) * np.conjugate(g)) / sc
                least = np.minimum.reduce(m[1:4])
                tol = allowance / np.sqrt(sc)
                dense[b] = ~((m[0] > least + tol) & (m[4] > least + tol) & (sc > lo)
                             & (sc < hi) & (mid_abs[b] <= MID_REACH * vmax))
                # a NaN score (a zero gap) matches no column; such pairs are scored densely
                p = np.minimum.reduce(np.where(m == np.minimum.reduce(m), cols, support.size - 1))
                # the chosen base's own score keeps the sign a dense argmin gives a tie of 0.0 and -0.0
                margin[b] = np.real((vals[p] - c) * np.conjugate(g)) / sc
                pos[b] = p
        if np.any(dense):
            margin[dense], pos[dense] = _dense_margins(vals, w[dense], r[dense])
        return margin, support[pos]


# The mediatrix scan's probes: 64 rings approaching the unit circle
# geometrically from 0.5 down to distance PROBE_FLOOR, 256 angles each.
PROBE_FLOOR = 1e-4
PROBE_GRID = GridMeta(
    rings=tuple(1.0 - np.logspace(math.log10(0.5), math.log10(PROBE_FLOOR), 64)), angles=256
)
# Bases stay in |z| <= BASE_CAP, where every catalog image point is far
# from the boundary contact locus.
BASE_CAP = 0.55


def mediatrix_scan(expr: MapExpr, base_radii: int = 16, base_angles: int = 64) -> MediatrixReport:
    """Scan separation margins of the PROBE_GRID probes against a base grid, at the map's own
    scale (`evaluate.at_own_scale`): a margin is scale-free, and a subnormal f'(0) is refused.

    A probe is scored exactly where its reflection is finite; one whose b2 vanishes reflects to
    infinity and counts as vacuous.  A probe whose jet or reflection leaves double range refuses
    the scan (the range rule of `evaluate.jet_eval` and `reflection`).
    """
    bases = ring_points(np.linspace(0.0, BASE_CAP, base_radii), base_angles).ravel()
    base_vals = at_own_scale(expr, jet_eval(expr, bases).f0)
    zs, ws, rs, _ = reflect_grid(expr, PROBE_GRID)
    n_vacuous = int(np.sum(is_infinite(rs)))
    probe_margin = np.full(zs.shape, np.nan)
    probe_argbase = np.zeros(zs.shape, dtype=int)
    k = np.nonzero(np.isfinite(rs))[0]
    probe_margin[k], probe_argbase[k] = _min_margins(*base_vals, *at_own_scale(expr, ws[k], rs[k]))

    finite = np.isfinite(probe_margin)
    n_checked = int(np.sum(finite))
    i, min_margin = extremum(np.where(finite, probe_margin, np.nan))
    return MediatrixReport(
        min_margin=min_margin,
        probe_at=complex(zs[i]),
        base_at=complex(bases[probe_argbase[i]]),
        contact=bool(min_margin < CONTACT_TOL),
        n_vacuous=n_vacuous,
        n_checked=n_checked,
        probe_z=zs,
        probe_w=ws,
        probe_r=rs,
        probe_margin=probe_margin,
        passed=bool(min_margin >= -1e-9),
    )


COEFF_RINGS = (0.3, 0.6, 0.9, 0.99, 0.999, 0.9999)
COEFF_ANGLES = 2048


class CoefficientReport(Record):
    """Worst cases of the second-coefficient functional scan, read on
    F = (f - f(0))/f'(0) with a2(F) F = c (f - f(0)); the a2 field is f's.

    inf_lhs refines inf Re(a2(F) F) with radii allowed up to R_CAP,
    since the infimum is attained only on the boundary.  The residual
    field is the pointwise slack of the strengthened bound

        Re(a2(F) F(z)) + 1/2 - (1 - |z|^2) |F(z)/z|^2 / 2 >= 0

    evaluated on the grid rings, never refined toward the boundary where
    it cancels below double precision.  It is identically 0 on a half-plane
    image, so residual_ok tests each sample against -1e-9 times the sum of
    its three terms' magnitudes, not an absolute -1e-9; min_residual is the
    least absolute residual.
    """

    a2: complex
    inf_lhs: float
    arg_inf: complex
    min_residual: float
    arg_residual: complex
    lower_ok: bool
    residual_ok: bool
    passed: bool


def coefficient_bound_scan(expr: MapExpr) -> CoefficientReport:
    """Scan Re(a2 F) >= -1/2, F = (f - f(0))/f'(0), and its pointwise strengthening."""
    rings, angles = COEFF_RINGS, COEFF_ANGLES
    f0, a1, c = normalization(expr)
    pts = ring_points(rings, angles)
    x = jet_eval(expr, pts).f0 - f0
    radii = np.asarray(rings, dtype=float)[:, None]
    with np.errstate(all="ignore"):  # a large f overflows to inf, on the grid and in the refinement
        lhs_all = np.real(c * x)
        tail = 0.5 * (1.0 - radii * radii) * np.abs(x / pts / abs(a1)) ** 2
        res_all = lhs_all + 0.5 - tail
        res_rel = res_all / (np.abs(lhs_all) + 0.5 + tail)  # per sample, against its terms' size

        i, j = divmod(extremum(lhs_all)[0], angles)
        r_hi = rings[i + 1] if i + 1 < len(rings) else R_CAP
        best_v, best_r, best_th = refine_on_grid(
            # c times the point's scalar x: an array product rounds differently
            at_polar(lambda z: np.real(c * (value(expr, z)[0] - f0))), rings[i],
            2.0 * np.pi * j / angles, float(lhs_all[i, j]), 2.0 * np.pi / angles,
            (rings[max(i - 1, 0)], r_hi),
        )
    arg_inf = polar(best_r, best_th)

    k, min_res = extremum(res_all)
    lower_ok, residual_ok = bool(best_v >= -0.5 - 1e-6), bool(extremum(res_rel)[1] >= -1e-9)
    return CoefficientReport(
        a2=taylor(expr)[1],
        inf_lhs=best_v,
        arg_inf=arg_inf,
        min_residual=min_res,
        arg_residual=complex(pts.flat[k]),
        lower_ok=lower_ok,
        residual_ok=residual_ok,
        passed=lower_ok and residual_ok,
    )


TAYLOR_SWITCH = 1e-4
ZETA_MIN = 1e-2


class ProofSample(Record):
    """Per-recentering outcome of the separation proof check."""

    zeta: complex
    slack: float
    h_at_zero: complex
    re_g_min: float
    sup_h: float
    inf_h: float
    passed: bool


def _quotient_terms(expr: MapExpr, j: Jet3, zeta: complex):
    """q = (f(z) - f(zeta))/(z - zeta) and q' for f's jet j at z, Taylor-switched near zeta."""
    jz = jet_eval(expr, complex(zeta))
    d = j.at - zeta
    q = (j.f0 - jz.f0) / d
    qp = (j.f1 * d - (j.f0 - jz.f0)) / (d * d)
    near = np.abs(d) < TAYLOR_SWITCH
    if np.any(near):
        dn = d[near]
        q[near] = jz.f1 + jz.f2 * dn / 2.0 + jz.f3 * dn * dn / 6.0
        qp[near] = jz.f2 / 2.0 + jz.f3 * dn / 3.0
    return q, qp


def proof_machinery_check(expr: MapExpr, zetas=DEFAULT_ZETAS):
    """Check the Schur-type inequality behind the separation theorem.

    For each recentering point zeta, the function
    F(z) = (zeta z / (f(zeta) - f(0))) (f(z) - f(zeta))/(z - zeta), the
    same for f and A f + B, is univalent with F(0) = 0, F'(0) = 1 when f
    has convex image; G = z F'/F is starlike-type with Re G >= 1/2, and
    h(z) = (1/G(z) - 1)/z maps into the closed unit disk.  Three checks
    run on a sample grid: Re G >= 1/2, sup |h| <= 1, and the coefficient slack

        (1 - |a1(G)|^2) - |a2(G) - a1(G)^2| >= 0

    computed from third-order jets at the origin.  Half-plane images
    sit exactly on the equality case, with h a unimodular constant.

    A zeta with |zeta| < ZETA_MIN raises BadParam: the slack comes from
    the quotient (f(z) - f(zeta))/(z - zeta) at z = 0, whose rounding
    error grows like eps/|zeta|^2, so a small zeta makes the equality
    case fail falsely (slack -1.3e-8 on the half-plane at 1e-4).
    """
    for size in (abs(complex(z)) for z in zetas):
        if size < ZETA_MIN:
            raise BadParam(f"|zeta| = {size:.3g} is below ZETA_MIN = {ZETA_MIN}, "
                           "where the slack loses eps/|zeta|^2")
    a1f, a2f, a3f = taylor(expr)
    f0 = normalization(expr)[0]
    samples = []
    all_pass = True
    rr = ring_points((0.3, 0.7, 0.95), 128).ravel()
    ring = jet_eval(expr, rr)
    jf0 = Jet3(f0, a1f, 2.0 * a2f, 6.0 * a3f, at=0.0 + 0j)
    for zeta in zetas:
        zeta = complex(zeta)
        fz = complex(value(expr, np.asarray([zeta]))[0])
        den = Jet3(-zeta, 1.0 + 0j, 0.0 + 0j, 0.0 + 0j, at=0.0 + 0j)
        q0 = (jf0 - fz) / den
        scale = zeta / nonzero(fz - f0, zeta, "f(zeta) - f(0) is 0 at zeta = {}")
        f2 = scale * q0.f1
        f3 = scale * q0.f2 / 2.0
        a1g = f2
        a2g = 2.0 * f3 - f2 * f2
        slack = (1.0 - abs(a1g) ** 2) - abs(a2g - a1g * a1g)
        refuse_at(not math.isfinite(slack), zeta, OutOfDoubleRange,
                  "the slack at zeta = {} leaves double range")

        with np.errstate(all="ignore"):  # q rounds to 0 where f(z) rounds to f(zeta)
            q, qp = _quotient_terms(expr, ring, zeta)
            g = 1.0 + rr * qp / q
            h = -qp / (q + rr * qp)
        re_g_min = extremum(np.real(g))[1]
        sup_h = extremum(np.abs(h), largest=True)[1]
        inf_h = extremum(np.abs(h))[1]
        ok = bool(
            slack >= -1e-9
            and sup_h <= 1.0 + 1e-9
            and re_g_min >= 0.5 - 1e-6
        )
        all_pass = all_pass and ok
        samples.append(
            ProofSample(
                zeta=zeta,
                slack=float(slack),
                h_at_zero=complex(-a1g),
                re_g_min=re_g_min,
                sup_h=sup_h,
                inf_h=inf_h,
                passed=ok,
            )
        )
    return all_pass, samples
