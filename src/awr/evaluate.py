"""Jet evaluation of map expressions on the open unit disk, and their normal form.

`jet_eval` returns the third-order jet of an expression at ``z``.  A
scalar and an ndarray ``z`` share one recursion and the one rule of
`jets`: an array masks a singular point with NaN, so grid scans can
reduce with nan-aware aggregates, and a scalar raises (DomainViolation
outside the open disk, PoleAtPoint on a vanishing denominator through
`jets.nonzero`, CriticalPoint on a vanishing renormalization
derivative, OutOfDoubleRange when Python complex arithmetic overflows).
A masked entry leaves the other entries' bits unchanged.

Every map is one Mobius map after one closed-form leaf after one disk
automorphism, f = post(leaf(pre(z))) with pre(z) = lam (z - a) / (1 -
conj(a) z), |lam| = 1.  `normal_form` is the one walk over the
combinator nodes that builds it.  Recenterings move (lam, a) in closed
form, so pre never leaves the automorphism group; every other layer
multiplies into the Mobius matrix post.

Per-expression scalars (renormalization data at a base point, the
second Taylor coefficient used by the Mobius shift) are cached on the
hashable expression nodes, in least-recently-used caches of
CACHE_SIZE entries each.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CoincidentPoints, CriticalPoint, DomainViolation, OutOfDoubleRange
from .expr import (
    Affine,
    Disk,
    Halfplane,
    Identity,
    Koebe,
    MapExpr,
    MobiusOfStrip,
    MobiusShift,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from .extended import INFINITY, is_infinite
from .jets import Jet3, _is_array, mobius_jet, nonzero
from .record import Record, replace

# Each koebe_omission_scan caches one recentered node per base point (49),
# so an unbounded cache grows with every map a long process scans; every
# subcommand run on the eight catalog fixtures needs 400 entries.
CACHE_SIZE = 1024
A2_ZERO_TOL = 1e-12


def sector_auto_params(a: complex) -> tuple[complex, float, complex]:
    """Derived constants (c, beta, b) for the automorphism-based sector map.

    c is unimodular because 1 - conj(a) = conj(1 - a).
    """
    a = complex(a)
    c = -(1.0 - np.conj(a)) / (1.0 - a)
    beta = (1.0 - abs(a) ** 2) / (2.0 * (1.0 - a.real))
    b = 1.0 / (a * c - 1.0)
    return complex(c), beta, complex(b)


def _pow_jet(w: Jet3, p: float) -> Jet3:
    """Jet of w(z)**p (principal branch) given the jet of w."""
    u = w.f0
    g0 = u**p
    g1 = p * g0 / u
    g2 = (p - 1.0) * g1 / u
    g3 = (p - 2.0) * g2 / u
    outer = Jet3(g0, g1, g2, g3, u)
    return outer.compose(w)


@lru_cache(maxsize=CACHE_SIZE)
def _koebe_scalars(inner: MapExpr, z0: complex) -> tuple[complex, complex]:
    """(f(z0), k) for the renormalized precomposition (f(sigma_z0) - f(z0)) k,
    k = 1/((1 - |z0|^2) f'(z0)): the one place that forms k, after refusing
    a divisor that rounds to 0."""
    j = jet_eval(inner, complex(z0))
    if j.f1 == 0:
        raise CriticalPoint(f"derivative vanishes at renormalization point {z0}")
    den = nonzero((1.0 - abs(z0) ** 2) * complex(j.f1), z0, "(1 - |z0|^2) f'(z0) rounds to 0 at z0 = {}")
    return complex(j.f0), 1.0 / den


@lru_cache(maxsize=CACHE_SIZE)
def shift_a2(inner: MapExpr) -> complex:
    """Second Taylor coefficient f''(0)/2 used by the Mobius shift."""
    return complex(jet_eval(inner, 0.0 + 0.0j).f2) / 2.0


def _jet(expr: MapExpr, z) -> Jet3:
    if isinstance(expr, Identity):
        return Jet3.identity(z)

    if isinstance(expr, (Disk, Halfplane)):
        # not mobius_jet: its det = 1 rounds halfplane(c=-1+0i)'s a2 to 1+0j, not 1-0j
        x = expr.x if isinstance(expr, Disk) else expr.c
        den = nonzero(1.0 + x * z, z, "mobius denominator vanishes at z = {}")
        d2 = den * den
        return Jet3(z / den, 1.0 / d2, -2.0 * x / (d2 * den), 6.0 * x * x / (d2 * d2), z)

    if isinstance(expr, SectorReal):
        wj = mobius_jet(z, 1.0 + z, 1.0 - z, -1.0, 2.0)
        return (_pow_jet(wj, expr.a) - 1.0) * (0.5 / expr.a)

    if isinstance(expr, Strip):
        d = nonzero(1.0 - z * z, z, "strip denominator vanishes at z = {}")
        d2 = d * d
        return Jet3(np.arctanh(z), 1.0 / d, 2.0 * z / d2, (2.0 + 6.0 * z * z) / (d2 * d), z)

    if isinstance(expr, StripShift):
        return _jet(expr.lower(), z)

    if isinstance(expr, MobiusOfStrip):
        lj = _jet(Strip(), z)
        return lj / (lj * expr.a + 1.0)

    if isinstance(expr, SectorAuto):
        c, beta, b = sector_auto_params(expr.a)
        wj = mobius_jet(z, 1.0 + z, 1.0 + c * z, c, 1.0 - c)
        return (_pow_jet(wj, beta) - 1.0) * (-b)

    if isinstance(expr, Koebe):
        z0 = expr.z0
        fz0, k = _koebe_scalars(expr.inner, z0)
        zb = np.conj(z0)
        sj = mobius_jet(z, z + z0, 1.0 + zb * z, zb, 1.0 - abs(z0) ** 2)
        return (_jet(expr.inner, sj.f0).compose(sj) - fz0) * k

    if isinstance(expr, MobiusShift):
        a2 = shift_a2(expr.inner)
        fj = _jet(expr.inner, z)
        if a2 == 0:
            return fj
        return fj / (fj * a2 + 1.0)

    if isinstance(expr, Affine):
        return _jet(expr.inner, z) * expr.A + expr.B

    raise TypeError(f"unknown expression node {type(expr).__name__}")


def jet_eval(expr: MapExpr, z) -> Jet3:
    """Third-order jet of ``expr`` at ``z`` (scalar or ndarray); every scalar jet is built here."""
    with np.errstate(all="ignore"):  # numpy arrays and scalars overflow to inf or NaN
        if _is_array(z):
            z = np.asarray(z, dtype=complex)
            return _jet(expr, np.where(np.abs(z) < 1.0, z, np.nan))
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainViolation(f"|z| = {abs(z)} is not inside the open unit disk")
        try:
            j = _jet(expr, z)
            if not np.isfinite((j.f0, j.f1, j.f2, j.f3)).all():  # * and + overflow silently
                raise OverflowError("a field is not finite")
            return j
        except ArithmeticError as err:  # Python complex ** overflows; divisors pass jets.nonzero
            raise OutOfDoubleRange(f"the jet at z = {z} leaves double range: {err}") from None


def value(expr: MapExpr, z):
    """Map value alone (same conventions as jet_eval)."""
    return jet_eval(expr, z).f0


@lru_cache(maxsize=CACHE_SIZE)
def taylor(expr: MapExpr) -> tuple[complex, complex, complex]:
    """First three Taylor coefficients (a1, a2, a3) at the origin."""
    j = jet_eval(expr, 0.0 + 0.0j)
    return complex(j.f1), complex(j.f2) / 2.0, complex(j.f3) / 6.0


def normalization(expr: MapExpr) -> tuple[complex, complex, complex]:
    """(f(0), f'(0), c) of F = (f - f(0))/f'(0), c = a2/f'(0)^2 so a2(F) F = c (f - f(0)),
    for every coefficient rule; c is 0 where |a2| <= A2_ZERO_TOL |f'(0)|, the one such test.
    A koebe recentering is normalized by construction but computes f(0) and f'(0) only to
    rounding; they read as exactly 0 and 1, so its rules keep the bits of f itself."""
    j = jet_eval(expr, 0.0 + 0.0j)
    f0, f1, a2 = complex(j.f0), complex(j.f1), complex(j.f2) / 2.0
    if abs(f0) + abs(f1 - 1.0) <= 1e-12:
        f0, f1 = 0j, 1.0 + 0j
    return f0, f1, (0j if abs(a2) <= A2_ZERO_TOL * abs(f1) else a2 / f1 / f1)


class Mobius(Record):
    """w -> (a w + b) / (c w + d) on the extended plane."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        # singular only when ad - bc cancels: w -> 1e-15 w has a tiny det but is regular
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-14 * min(1.0, abs(self.a * self.d) + abs(self.b * self.c)):
            raise CoincidentPoints(f"mobius coefficients are singular, det = {det}")

    def __call__(self, w):
        """Values at w as a complex ndarray: a 0-d array for a scalar w.
        Infinity maps to at_infinity(), so is_affine decides it."""
        w = np.asarray(w, dtype=complex)
        inf_mask = is_infinite(w)
        with np.errstate(all="ignore"):
            den = self.c * w + self.d
            vals = (self.a * w + self.b) / den
        vals = np.where(den == 0, INFINITY, vals)
        return np.where(inf_mask, self.at_infinity(), vals)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    @property
    def is_affine(self) -> bool:
        # The pole -d/c lies beyond 1e13.  c and d alone decide it, so an
        # affine map composed after (koebe, affine) never changes the answer.
        return abs(self.c) <= 1e-13 * abs(self.d)

    def pole(self):
        """Preimage of infinity."""
        if self.is_affine:
            return INFINITY
        return -self.d / self.c

    def at_infinity(self):
        """Image of infinity."""
        if self.is_affine:
            return INFINITY
        return self.a / self.c

    def apply_jet(self, j: Jet3) -> Jet3:
        """Jet of self o j."""
        w = j.f0
        det = self.a * self.d - self.b * self.c
        return mobius_jet(w, self.a * w + self.b, self.c * w + self.d, self.c, det).compose(j)


class DiskAutomorphism(Record):
    """z -> lam (z - a) / (1 - conj(a) z) with |lam| = 1 and |a| < 1."""

    lam: complex = 1.0 + 0.0j
    a: complex = 0.0j

    def after(self, z0: complex) -> "DiskAutomorphism":
        """self o sigma_z0, sigma_z0(z) = (z + z0) / (1 + conj(z0) z): with
        u = 1 - a conj(z0), a -> (a - z0) / u and lam -> lam u / conj(u),
        renormalized so rounding keeps |lam| = 1."""
        u = 1.0 - self.a * z0.conjugate()
        lam = self.lam * u / u.conjugate()
        return DiskAutomorphism(lam / abs(lam), (self.a - z0) / u)


class NormalForm(Record):
    """f = post(leaf(pre(z))): a disk automorphism, a closed-form leaf, a Mobius map."""

    pre: DiskAutomorphism
    leaf: MapExpr
    post: Mobius


def normal_form(expr: MapExpr) -> NormalForm:
    """Collapse an expression tree to (pre, leaf, post).

    strip-shift lowers to koebe(strip), and mobius-of-strip(a) is the
    strip leaf with post w/(1 + a w).  koebe at z0 moves pre by sigma_z0
    and puts w -> k (w - f(z0)), k = 1/((1 - |z0|^2) f'(z0)) from
    `_koebe_scalars`, after post.
    """
    if isinstance(expr, StripShift):
        return normal_form(expr.lower())
    if isinstance(expr, MobiusOfStrip):
        return NormalForm(DiskAutomorphism(), Strip(), Mobius(1.0, 0.0, expr.a, 1.0))
    if isinstance(expr, Koebe):
        inner = normal_form(expr.inner)
        f0, k = _koebe_scalars(expr.inner, expr.z0)
        renorm = Mobius(k, -k * f0, 0.0, 1.0)
        return NormalForm(inner.pre.after(expr.z0), inner.leaf, renorm.compose(inner.post))
    if isinstance(expr, MobiusShift):
        inner = normal_form(expr.inner)
        shift = Mobius(1.0, 0.0, taylor(expr.inner)[1], 1.0)
        return replace(inner, post=shift.compose(inner.post))
    if isinstance(expr, Affine):
        inner = normal_form(expr.inner)
        return replace(inner, post=Mobius(expr.A, expr.B, 0.0, 1.0).compose(inner.post))
    return NormalForm(DiskAutomorphism(), expr, Mobius(1.0, 0.0, 0.0, 1.0))
