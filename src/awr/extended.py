"""Riemann-sphere arithmetic helpers.

The point at infinity is represented by the sentinel ``INFINITY``
(``complex(inf, inf)``).  Any complex value with a non-finite real or
imaginary part is treated as infinite; NaN payloads are *not* conflated
with infinity, and `chordal` passes them through as NaN.
"""

from __future__ import annotations

import numpy as np

INFINITY = complex(float("inf"), float("inf"))


def is_infinite(w) -> bool:
    """True when ``w`` represents the point at infinity.

    Works on scalars and ndarrays (returns a bool array for the latter).
    """
    w = np.asarray(w, dtype=complex)
    out = np.isinf(w.real) | np.isinf(w.imag)
    if out.ndim == 0:
        return bool(out)
    return out


def chordal(u, v):
    """Chordal distance on the Riemann sphere.

    d(u, v) = 2|u - v| / sqrt((1+|u|^2)(1+|v|^2)), with the usual
    limits when either argument is infinite.  Vectorized; broadcasting
    follows numpy rules.  NaN inputs propagate as NaN; huge ones are scaled.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    u_inf = is_infinite(u)
    v_inf = is_infinite(v)
    u_fin = np.where(u_inf, 0.0, u)
    v_fin = np.where(v_inf, 0.0, v)
    au, av = np.abs(u_fin), np.abs(v_fin)
    with np.errstate(all="ignore"):  # the squares overflow past 1.3e154, su sv past 1.8e308
        su, sv = np.sqrt(1.0 + au**2), np.sqrt(1.0 + av**2)
        near = 2.0 * np.abs(u_fin - v_fin) / (su * sv)
        scaled = ~np.isfinite(su * sv)  # there the roots come from hypot, and with
        su, sv = np.where(scaled, np.hypot(1.0, au), su), np.where(scaled, np.hypot(1.0, av), sv)
        m = np.maximum(np.maximum(au, av), 1.0)  # m = max(|u|, |v|, 1) no step overflows
        far = 2.0 * np.abs(u_fin / m - v_fin / m) * (m / np.maximum(su, sv)) / np.minimum(su, sv)
    both = u_inf & v_inf
    out = np.where(
        both,
        0.0,
        np.where(
            u_inf,
            2.0 / sv,
            np.where(v_inf, 2.0 / su, np.where(scaled, far, near)),
        ),
    )
    if out.ndim == 0:
        return float(out)
    return out.astype(float)
