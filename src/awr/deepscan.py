"""Log-parametrized probes along the strip ends.

Maps whose normal form f = post(L(pre(z))) (see `evaluate`) has the
strip leaf L degenerate along the two boundary points carrying the ends
of the image strip.  Limits like the omitted-point distance are only
reached at probe depths far beyond double resolution (after a few
refinement passes 1 - |z| is around 1e-2048), so instead of raising
precision the probes are parametrized by (E, tau) with

    z = omega_e (1 - eps) exp(i tau eps),   eps = 10^{-E},

where omega_e = pre^{-1}(e) is the boundary preimage of strip end
e = +-1.  To first order in eps

    e - pre(z) = eps (1 - i tau) e kappa_e,
    kappa_e = e omega_e pre'(omega_e) = (1 - |a|^2) / |1 - conj(a) omega_e|^2,

so kappa_e is positive by construction and the strip value has the
closed form

    L = e/2 * (log 2 + E log 10 - log(1 - i tau) - log kappa_e)

with every term an ordinary double; post maps it to the image.  Dropped
corrections are O(eps) absolute, invisible at these depths.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError
from .evaluate import NormalForm, normal_form
from .expr import MapExpr, Strip
from .jets import extremum
from .record import Record

LN2 = float(np.log(2.0))
LN10 = float(np.log(10.0))

# Exponent schedule for refinement passes: pass k probes 1 - |z| = 10^-E_k.
BASE_EXPONENT = 4.0


def pass_exponent(k: int) -> float:
    """Depth exponent for refinement pass k (pass 0 is the plain grid)."""
    return BASE_EXPONENT * (8.0 ** k)


def strip_structure(expr: MapExpr):
    """The normal form of a map with the strip leaf, else None."""
    nf = normal_form(expr)
    return nf if isinstance(nf.leaf, Strip) else None


class StripEnd(Record):
    """One strip end: label e = +-1, boundary preimage, boundary factor."""

    e: int
    omega: complex
    kappa: float


def strip_ends(struct: NormalForm):
    """The two boundary preimages of the strip ends, with their factors."""
    pre = struct.pre
    ends = []
    for e in (1, -1):
        # pre^{-1}(e), in numpy complex division like the recorded outputs
        omega = complex((e + pre.lam * pre.a) / (np.conj(pre.a) * e + pre.lam))
        kappa = (1.0 - abs(pre.a) ** 2) / abs(1.0 - pre.a.conjugate() * omega) ** 2
        if not (math.isfinite(kappa) and kappa > 0.0):
            raise ConsistencyError(f"boundary factor for end {e} is not positive: {kappa}")
        ends.append(StripEnd(e=e, omega=omega, kappa=kappa))
    return ends


def default_taus(n: int = 129) -> np.ndarray:
    """Transverse samples covering the full strip width: tau = tan(psi)."""
    psi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n + 2)[1:-1]
    return np.tan(psi)


def deep_strip_values(struct: NormalForm, exponent: float, taus):
    """Map values along deep probe fans at both strip ends.

    exponent is E in 1 - |z| = 10^-E; taus the transverse grid.  Returns
    a flat complex array of f values (both ends concatenated).
    """
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


def deep_min(struct: NormalForm, score, passes: int, n_taus: int):
    """(least score, its end's omega) over the deep values of passes 1..passes,
    or (inf, None) for none; ties keep the earlier pass, then probe."""
    taus = default_taus(n_taus)
    ends = strip_ends(struct)
    best, omega = math.inf, None
    for k in range(1, passes + 1):
        m, v = extremum(score(deep_strip_values(struct, pass_exponent(k), taus)))
        if v < best:
            best, omega = v, ends[m // taus.size].omega
    return best, omega
