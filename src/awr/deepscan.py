"""Log-parametrized probes near the ends of strip-built maps.

Maps built on the strip map L degenerate along the two boundary points
carrying the ends of the image strip.  Limits like the omitted-point
distance are only reached at probe depths far beyond double resolution
(after a few refinement passes 1 - |z| is around 1e-2048), so instead
of raising precision the probes are parametrized by (E, tau) with

    z = omega_e (1 - eps) exp(i tau eps),   eps = 10^{-E},

where omega_e is the boundary preimage of strip end e = +-1 under the
precomposed automorphism T.  To first order in eps

    e - T(z) = eps (1 - i tau) K_e,   K_e = omega_e T'(omega_e),

and e K_e is a positive real (boundary derivative of a disk
automorphism), so the inner strip value has the closed form

    L = e/2 * (log 2 + E log 10 - log(1 - i tau) - log(e K_e))

with every term an ordinary double.  The remaining layers (Koebe
renormalizations, Mobius-of-strip, shifts, affine maps) act on the L
value as one composed Mobius map.  Dropped corrections are O(eps)
absolute, invisible at these depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParam, ConsistencyError
from .evaluate import jet_eval, taylor
from .expr import Affine, Koebe, MapExpr, MobiusOfStrip, MobiusShift, Strip, StripShift
from .reflection import Mobius

LN2 = float(np.log(2.0))
LN10 = float(np.log(10.0))

# Exponent schedule for refinement passes: pass k probes 1 - |z| = 10^-E_k.
BASE_EXPONENT = 4.0

# Cap on refinement passes.  Pass k probes strip values of size about
# 8^k: on the catalog, squaring them for the chordal metric overflows
# from k = 165 and pass_exponent(k) * LN10 itself from k = 341, after
# which every deep value is NaN.  At 64 they stay below 1e59, the local
# brackets (8x smaller each pass) have been under double resolution near
# the unit circle since about pass 20, and a scan takes under a second.
MAX_PASSES = 64


def pass_exponent(k: int) -> float:
    """Depth exponent for refinement pass k (pass 0 is the plain grid)."""
    return BASE_EXPONENT * (8.0 ** k)


def check_passes(passes: int) -> None:
    """Refuse more than MAX_PASSES refinement passes."""
    if passes > MAX_PASSES:
        raise BadParam(f"{passes} refinement passes exceed the cap of {MAX_PASSES}")


@dataclass(frozen=True)
class StripStructure:
    """f = post(L(pre(z))) with pre a disk automorphism, post a Mobius map."""

    pre: Mobius
    post: Mobius


def strip_structure(expr: MapExpr):
    """Decompose a map into Mobius layers around a strip core, else None."""
    if isinstance(expr, Strip):
        return StripStructure(Mobius.identity(), Mobius.identity())
    if isinstance(expr, StripShift):
        return strip_structure(expr.lower())
    if isinstance(expr, MobiusOfStrip):
        return StripStructure(Mobius.identity(), Mobius(1.0, 0.0, expr.a, 1.0))
    if isinstance(expr, Koebe):
        inner = strip_structure(expr.inner)
        if inner is None:
            return None
        z0 = expr.z0
        j = jet_eval(expr.inner, z0)
        k = 1.0 / ((1.0 - abs(z0) ** 2) * j.f1)
        sigma = Mobius(1.0, z0, np.conjugate(z0), 1.0)
        renorm = Mobius(k, -k * j.f0, 0.0, 1.0)
        return StripStructure(inner.pre.compose(sigma), renorm.compose(inner.post))
    if isinstance(expr, MobiusShift):
        inner = strip_structure(expr.inner)
        if inner is None:
            return None
        a2 = taylor(expr.inner)[1]
        shift = Mobius(1.0, 0.0, a2, 1.0)
        return StripStructure(inner.pre, shift.compose(inner.post))
    if isinstance(expr, Affine):
        inner = strip_structure(expr.inner)
        if inner is None:
            return None
        aff = Mobius(expr.A, expr.B, 0.0, 1.0)
        return StripStructure(inner.pre, aff.compose(inner.post))
    return None


@dataclass(frozen=True)
class StripEnd:
    """One strip end: label e = +-1, boundary preimage, boundary factor."""

    e: int
    omega: complex
    kappa: float


def strip_ends(struct: StripStructure):
    """The two boundary preimages of the strip ends, with their factors."""
    t = struct.pre
    det = t.a * t.d - t.b * t.c
    ends = []
    for e in (1, -1):
        omega = t.inverse()(complex(e))
        k_e = omega * det / (t.c * omega + t.d) ** 2
        kappa = e * k_e
        if abs(kappa.imag) > 1e-9 * abs(kappa) or kappa.real <= 0:
            raise ConsistencyError(
                f"boundary factor for end {e} is not positive real: {k_e}"
            )
        ends.append(StripEnd(e=e, omega=complex(omega), kappa=float(kappa.real)))
    return ends


def default_taus(n: int = 129) -> np.ndarray:
    """Transverse samples covering the full strip width: tau = tan(psi)."""
    psi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n + 2)[1:-1]
    return np.tan(psi)


def deep_strip_values(struct: StripStructure, exponent: float, taus=None):
    """Map values along deep probe fans at both strip ends.

    exponent is E in 1 - |z| = 10^-E; taus the transverse grid.  Returns
    a flat complex array of f values (both ends concatenated).
    """
    if taus is None:
        taus = default_taus()
    taus = np.asarray(taus, dtype=float)
    out = []
    for end in strip_ends(struct):
        lam = 0.5 * (
            LN2
            + exponent * LN10
            - np.log(1.0 - 1j * taus)
            - np.log(end.kappa)
        )
        out.append(struct.post(end.e * lam))
    return np.concatenate(out)
