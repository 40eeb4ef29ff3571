"""Certificates tied to convexity of the image domain.

Three numerical checks live here.  The mediatrix scan verifies that the
perpendicular bisector of each segment from an image point to its
reflection separates the reflection from the image domain.  The
coefficient scan verifies the sharp lower bound Re(a2 f) >= -1/2
together with its pointwise strengthening.  The proof check reproduces
the Schur-type coefficient inequality behind the separation theorem for
a set of recentering points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, DegenerateDomain
from .evaluate import jet_eval, taylor, value
from .expr import MapExpr
from .extended import is_infinite
from .grids import GridMeta, polar, refine_on_grid, ring_points
from .jets import Jet3
from .reflection import reflect_grid

CONTACT_TOL = 1e-3
VACUOUS_TOL = 1e-12


@dataclass(frozen=True)
class LineSpec:
    """A line in the image plane: point, unit tangent, unit normal.

    The normal points toward the side containing the image domain.
    """

    point: complex
    tangent: complex
    normal: complex

    def signed_distance(self, p):
        """Euclidean distance to the line, positive on the image side."""
        return np.real((p - self.point) * np.conjugate(self.normal))


def mediatrix(w, r) -> LineSpec:
    """Perpendicular bisector of the segment from w to its reflection r."""
    w = complex(w)
    if is_infinite(r):
        raise DegenerateDomain("reflection at infinity has no mediatrix")
    r = complex(r)
    gap = w - r
    if abs(gap) < 1e-13 * (1.0 + abs(w)):
        raise CoincidentPoints("image point and reflection coincide")
    n = gap / abs(gap)
    return LineSpec(point=(w + r) / 2.0, tangent=1j * n, normal=n)


@dataclass(frozen=True)
class MediatrixReport:
    """Worst-case separation margins of a mediatrix scan.

    Margins are normalized by the segment length, so an image point on
    the segment midpoint scores 0 and the image point w itself scores
    1/2.  contact means some margin dropped below CONTACT_TOL, i.e. the
    mediatrix comes arbitrarily close to the image closure.
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


def _hull_support(vals: np.ndarray, reach: float) -> np.ndarray:
    """Indices, in order, of the values that can minimize a linear functional.

    The minimum of Re((v - c) conj(g)) over the values v sits on the
    boundary of their convex hull (Andrew's monotone chain).  Kept are
    the values within a rounding allowance of that boundary, so
    duplicates and collinear points stay, and every value that is not
    finite.  Any dropped value evaluates strictly above the minimum for
    every offset c with |c| <= reach, so the minimum and its first index
    are the same as over all values.
    """
    finite = np.isfinite(vals)
    pts = np.unique(vals[finite])  # sorted by real part, then imaginary part

    def chain(seq):
        out = []
        for p in seq:
            # pop while out[-2], out[-1], p do not turn counterclockwise
            while len(out) >= 2 and ((out[-1] - out[-2]).conjugate() * (p - out[-2])).imag <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = np.asarray(chain(pts.tolist()) + chain(pts[::-1].tolist()))
    if hull.size < 3:
        return np.arange(vals.size)
    edge = np.roll(hull, -1) - hull
    v = np.where(finite, vals, 0.0)
    depth = np.min(
        np.imag(np.conjugate(edge)[:, None] * (v[None, :] - hull[:, None]))
        / np.abs(edge)[:, None],
        axis=0,
    )
    allowance = 64.0 * np.finfo(float).eps * (np.max(np.abs(pts)) + reach)
    return np.flatnonzero(~finite | (depth <= allowance))


def _min_margins(base_vals: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Least margin over the bases for each pair (w, r), and its first base index.

    A margin is a linear functional of the base value, so only the bases
    on the boundary of their convex hull are compared.
    """
    support = _hull_support(base_vals, float(np.max(np.abs(w + r) / 2.0, initial=0.0)))
    vals = base_vals[support]
    margin = np.empty(w.shape)
    argbase = np.empty(w.shape, dtype=int)
    chunk = 2048
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
        argbase[k : k + chunk] = support[j]
    return margin, argbase


def mediatrix_scan(
    expr: MapExpr,
    base_radii: int = 16,
    base_angles: int = 64,
    probe_rings: int = 64,
    probe_angles: int = 256,
    probe_floor: float = 1e-4,
    base_cap: float = 0.55,
) -> MediatrixReport:
    """Scan separation margins over probe and base grids.

    Probes approach the unit circle geometrically down to distance
    probe_floor; bases stay in |z| <= base_cap where every catalog image
    point is far from the boundary contact locus.  Probes whose local b2
    vanishes reflect to infinity and are counted as vacuous.
    """
    rings = tuple(1.0 - np.logspace(math.log10(0.5), math.log10(probe_floor), probe_rings))
    meta = GridMeta(rings=rings, angles=probe_angles)
    zs, ws, rs, _ = reflect_grid(expr, meta)

    bases = ring_points(np.linspace(0.0, base_cap, base_radii), base_angles).ravel()
    base_vals = jet_eval(expr, bases).f0

    vac = is_infinite(rs)
    ok = ~vac & np.isfinite(ws) & np.isfinite(zs)
    n_vacuous = int(np.sum(vac))

    probe_margin = np.full(zs.shape, np.nan)
    probe_argbase = np.zeros(zs.shape, dtype=int)
    idx = np.nonzero(ok)[0]
    probe_margin[idx], probe_argbase[idx] = _min_margins(base_vals, ws[idx], rs[idx])

    finite = np.isfinite(probe_margin)
    n_checked = int(np.sum(finite))
    i = int(np.nanargmin(np.where(finite, probe_margin, np.nan)))
    min_margin = float(probe_margin[i])
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
    )


COEFF_RINGS = (0.3, 0.6, 0.9, 0.99, 0.999, 0.9999)
COEFF_ANGLES = 2048
COEFF_R_CAP = 1.0 - 1e-7


@dataclass(frozen=True)
class CoefficientReport:
    """Worst cases of the second-coefficient functional scan.

    inf_lhs refines inf Re(a2 f) with radii allowed up to COEFF_R_CAP,
    since the infimum is attained only on the boundary.  The residual
    field is the pointwise slack of the strengthened bound

        Re(a2 f(z)) + 1/2 - (1 - |z|^2) |f(z)/z|^2 / 2 >= 0

    evaluated on the grid rings, never refined toward the boundary where
    it cancels below double precision.
    """

    a2: complex
    inf_lhs: float
    arg_inf: complex
    min_residual: float
    arg_residual: complex
    lower_ok: bool
    residual_ok: bool


def coefficient_bound_scan(
    expr: MapExpr,
    rings=COEFF_RINGS,
    angles: int = COEFF_ANGLES,
) -> CoefficientReport:
    """Scan Re(a2 f) >= -1/2 and its pointwise strengthening."""
    a2 = taylor(expr)[1]
    pts = ring_points(rings, angles)
    f = jet_eval(expr, pts).f0
    lhs_all = np.real(a2 * f)
    radii = np.asarray(rings, dtype=float)[:, None]
    res_all = lhs_all + 0.5 - 0.5 * (1.0 - radii * radii) * np.abs(f / pts) ** 2

    i, j = np.unravel_index(int(np.nanargmin(lhs_all)), lhs_all.shape)

    def lhs_at(r, t):
        return float(np.real(a2 * value(expr, np.asarray([polar(r, t)]))[0]))

    r_hi = rings[i + 1] if i + 1 < len(rings) else COEFF_R_CAP
    best_v, best_r, best_th = refine_on_grid(
        lhs_at, rings[i], 2.0 * np.pi * j / angles, float(lhs_all[i, j]),
        2.0 * np.pi / angles, (rings[max(i - 1, 0)], r_hi),
    )
    arg_inf = polar(best_r, best_th)

    k, l = np.unravel_index(int(np.nanargmin(res_all)), res_all.shape)
    min_res = float(res_all[k, l])
    return CoefficientReport(
        a2=complex(a2),
        inf_lhs=best_v,
        arg_inf=arg_inf,
        min_residual=min_res,
        arg_residual=complex(pts[k, l]),
        lower_ok=bool(best_v >= -0.5 - 1e-6),
        residual_ok=bool(min_res >= -1e-9),
    )


DEFAULT_ZETAS = (
    0.3 + 0.0j,
    -0.5 + 0.0j,
    0.6j,
    -0.2 - 0.6j,
    0.55 + 0.35j,
    -0.8 + 0.0j,
    -0.99 + 0.0j,
    0.9j,
)

TAYLOR_SWITCH = 1e-4


@dataclass(frozen=True)
class ProofSample:
    """Per-recentering outcome of the separation proof check."""

    zeta: complex
    slack: float
    h_at_zero: complex
    re_g_min: float
    sup_h: float
    inf_h: float
    passed: bool


def _quotient_terms(expr: MapExpr, z: np.ndarray, zeta: complex):
    """q = (f(z) - f(zeta))/(z - zeta) and q', Taylor-switched near zeta."""
    j = jet_eval(expr, z)
    jz = jet_eval(expr, complex(zeta))
    d = z - zeta
    with np.errstate(divide="ignore", invalid="ignore"):
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
    F(z) = (zeta z / f(zeta)) (f(z) - f(zeta))/(z - zeta) is univalent
    with F(0) = 0, F'(0) = 1 when f has convex image; G = z F'/F is
    starlike-type with Re G >= 1/2, and h(z) = (1/G(z) - 1)/z maps into
    the closed unit disk.  Three consequences are tested on a sample
    grid: Re G >= 1/2, sup |h| <= 1, and the coefficient slack

        (1 - |a1(G)|^2) - |a2(G) - a1(G)^2| >= 0

    computed from third-order jets at the origin.  Half-plane images
    sit exactly on the equality case, with h a unimodular constant.
    """
    a1f, a2f, a3f = taylor(expr)
    samples = []
    all_pass = True
    rr = ring_points((0.3, 0.7, 0.95), 128).ravel()
    for zeta in zetas:
        zeta = complex(zeta)
        fz = complex(value(expr, np.asarray([zeta]))[0])
        jf0 = Jet3(0.0 + 0j, a1f, 2.0 * a2f, 6.0 * a3f, at=0.0 + 0j)
        den = Jet3(-zeta, 1.0 + 0j, 0.0 + 0j, 0.0 + 0j, at=0.0 + 0j)
        q0 = (jf0 - Jet3.constant(fz, 0.0 + 0j)) / den
        scale = zeta / fz
        f2 = scale * q0.f1
        f3 = scale * q0.f2 / 2.0
        a1g = f2
        a2g = 2.0 * f3 - f2 * f2
        slack = (1.0 - abs(a1g) ** 2) - abs(a2g - a1g * a1g)

        q, qp = _quotient_terms(expr, rr, zeta)
        g = 1.0 + rr * qp / q
        h = -qp / (q + rr * qp)
        re_g_min = float(np.nanmin(np.real(g)))
        sup_h = float(np.nanmax(np.abs(h)))
        inf_h = float(np.nanmin(np.abs(h)))
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
