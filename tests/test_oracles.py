"""Independent oracles for the jet engine and the deep boundary probes.

Everything here checks library output against a computation that shares
no code with the library: Cauchy-integral coefficients from plain FFT
sampling, central finite differences, symbolic series, closed-form
Schwarzians, and high-precision evaluation with mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from awr.catalog import FIXTURE_EXPRS
from awr.deepscan import deep_strip_values, strip_ends, strip_structure
from awr.evaluate import jet_eval, taylor
from awr.expr import (
    Affine,
    Disk,
    Halfplane,
    Koebe,
    MobiusOfStrip,
    MobiusShift,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from awr.nehari import schwarzian
from awr.reflection import reflect

BASE_POINTS = (0.0 + 0.0j, 0.3 + 0.2j, -0.25 - 0.1j)
FFT_RHO = 1e-2
FFT_N = 64


def fft_derivatives(expr, z0, rho=FFT_RHO, n=FFT_N):
    """Derivatives f, f', f'', f''' at z0 via the Cauchy integral,
    discretized as an FFT over a small circle around z0."""
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = z0 + rho * np.exp(1j * theta)
    vals = jet_eval(expr, ring).f0
    coeffs = np.fft.fft(vals) / n
    return tuple(coeffs[k] / rho**k * math.factorial(k) for k in range(4))


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
@pytest.mark.parametrize("z0", BASE_POINTS)
def test_jets_match_cauchy_integral(name, expr, z0):
    f0, f1, f2, f3 = fft_derivatives(expr, z0)
    j = jet_eval(expr, z0)
    scale = max(abs(j.f0), abs(j.f1), 1.0)
    assert abs(j.f0 - f0) <= 1e-10 * scale
    assert abs(j.f1 - f1) <= 1e-9 * max(abs(j.f1), 1.0)
    assert abs(j.f2 - f2) <= 1e-8 * max(abs(j.f2), 1.0)
    assert abs(j.f3 - f3) <= 1e-6 * max(abs(j.f3), 1.0)


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_jet_derivative_chain_finite_differences(name, expr):
    """f1 differentiates f0, f2 differentiates f1, f3 differentiates f2."""
    h = 1e-5
    for z0 in (0.1 + 0.15j, -0.3 + 0.4j):
        jp = jet_eval(expr, z0 + h)
        jm = jet_eval(expr, z0 - h)
        j = jet_eval(expr, z0)
        for got, lo, hi in ((j.f1, jm.f0, jp.f0),
                            (j.f2, jm.f1, jp.f1),
                            (j.f3, jm.f2, jp.f2)):
            fd = (hi - lo) / (2.0 * h)
            assert abs(got - fd) <= 1e-6 * max(abs(got), 1.0)


def _symbolic_series():
    z = sp.Symbol("z")
    half = sp.Rational(1, 2)
    ratio = (1 + z) / (1 - z)
    sector_auto = sp.Rational(2, 3) * (ratio ** sp.Rational(3, 4) - 1)
    return z, [
        (Disk(0.5), z / (1 + half * z)),
        (Halfplane(-1.0), z / (1 - z)),
        (SectorReal(0.5), ratio**half - 1),
        (Strip(), sp.atanh(z)),
        (MobiusOfStrip(0.25), sp.atanh(z) / (1 + sp.atanh(z) / 4)),
        (SectorAuto(0.5), sector_auto),
    ]


def test_taylor_matches_symbolic_series():
    z, cases = _symbolic_series()
    for expr, sym in cases:
        series = sp.series(sym, z, 0, 4).removeO()
        want = [complex(series.coeff(z, k)) for k in (1, 2, 3)]
        got = taylor(expr)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (expr, got, want)


def test_schwarzian_closed_forms():
    """Wedge maps have Schwarzian 2(1-alpha^2)/(1-z^2)^2 where alpha is
    the aperture exponent; strip-built maps are the alpha = 0 case."""
    rng = np.random.default_rng(3)
    zs = 0.9 * np.sqrt(rng.uniform(0, 1, 60)) * np.exp(2j * np.pi * rng.uniform(0, 1, 60))
    cases = [
        (SectorReal(0.25), 0.25),
        (SectorReal(0.5), 0.5),
        (SectorReal(0.9), 0.9),
        (SectorAuto(0.5), 0.75),
        (Strip(), 0.0),
        (MobiusOfStrip(0.25), 0.0),
        (MobiusOfStrip(0.25j), 0.0),
    ]
    for expr, alpha in cases:
        got = schwarzian(expr, zs)
        want = 2.0 * (1.0 - alpha * alpha) / (1.0 - zs**2) ** 2
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_schwarzian_precomposition_cocycle_strip_shift():
    """S(L o sigma) = (S L o sigma) sigma'^2 for the shift automorphism."""
    rng = np.random.default_rng(5)
    zs = 0.9 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    x = 0.7
    sig = (zs + 1j * x) / (1 - 1j * x * zs)
    sigp = (1 - x * x) / (1 - 1j * x * zs) ** 2
    want = 2.0 / (1.0 - sig**2) ** 2 * sigp**2
    got = schwarzian(StripShift(x), zs)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


DEEP_EXPRS = (
    pytest.param(Strip(), id="Strip"),
    pytest.param(MobiusOfStrip(0.25), id="MobiusOfStrip"),
    pytest.param(StripShift(0.7), id="StripShift"),
    pytest.param(MobiusShift(MobiusOfStrip(0.25j)), id="MobiusShift"),
    # pre composed from two or three recenterings
    pytest.param(Koebe(Koebe(Strip(), 0.5 + 0.3j), -0.4 + 0.6j), id="koebe-koebe-strip"),
    pytest.param(Koebe(Affine(MobiusOfStrip(0.3 + 0.2j), 1.0 + 1.0j, 0.5), 0.9 + 0.1j),
                 id="koebe-affine-mobius-of-strip"),
    pytest.param(MobiusShift(Koebe(Koebe(StripShift(0.4), 0.95 + 0.2j), -0.7 - 0.6j)),
                 id="shift-koebe-koebe-strip-shift"),
)


@pytest.mark.parametrize("expr", DEEP_EXPRS)
def test_deep_probe_values_match_mpmath(expr):
    """The closed-form deep probes agree with brute-force evaluation of
    post(atanh(pre(z))) at 1 - |z| = 1e-30 carried out in 80-digit
    arithmetic.  At that depth z itself is not representable in doubles,
    so this is the only honest cross-check."""
    struct = strip_structure(expr)
    assert struct is not None
    exponent = 30.0
    taus = np.array([-2.0, 0.0, 1.0, 5.0])
    got = deep_strip_values(struct, exponent, taus)

    mpmath.mp.dps = 80
    eps = mpmath.mpf(10) ** (-30)
    # pre(z) = lam (z - a) / (1 - conj(a) z), taken as exact from its doubles
    lam, a = mpmath.mpc(struct.pre.lam), mpmath.mpc(struct.pre.a)
    post = struct.post
    want = []
    for end in strip_ends(struct):
        # The boundary anchor must itself be solved at high precision:
        # its double rounding (~1e-17) would swamp the 1e-30 probe depth.
        omega = (end.e + lam * a) / (mpmath.conj(a) * end.e + lam)
        for tau in taus:
            z = omega * (1 - eps) * mpmath.exp(1j * mpmath.mpf(tau) * eps)
            t = lam * (z - a) / (1 - mpmath.conj(a) * z)
            v = mpmath.atanh(t)
            w = (mpmath.mpc(post.a) * v + mpmath.mpc(post.b)) / (
                mpmath.mpc(post.c) * v + mpmath.mpc(post.d))
            want.append(complex(w))
    want = np.array(want)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12


@pytest.mark.parametrize("name,expr", FIXTURE_EXPRS)
def test_reflection_formula_from_scratch(name, expr):
    """R_w rebuilt from FFT derivatives alone matches reflect()."""
    for z0 in (0.3 + 0.2j, -0.25 - 0.1j, 0.45 + 0.0j):
        f0, f1, f2, _ = fft_derivatives(expr, z0)
        u = 1.0 - abs(z0) ** 2
        denom = np.conjugate(z0) - u * f2 / (2.0 * f1)
        got = reflect(expr, z0)
        assert abs(got.w - f0) < 1e-10 * max(1.0, abs(f0))
        if abs(denom) < 1e-8:
            # degenerate direction: the reflection escapes to infinity
            assert got.r_is_inf
        else:
            want = f0 + u * f1 / denom
            assert abs(got.r - want) < 1e-7 * max(1.0, abs(want))
