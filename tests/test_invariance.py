"""A verdict does not depend on how a map is written: affine(g, a, b) and
koebe(g, z0) move g's image only by an affine map, and the paper's
statements are about the image alone, so every map subcommand must answer
for them as g does (ROADMAP item 3)."""

import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import LAYERS, LEAVES, OUTER_SCALES, OUTER_SHIFTS, annulus, build, run, wrap

from awr import errors
from awr.convexity import CONTACT_TOL
from awr.evaluate import A2_ZERO_TOL, jet_eval, normalization, taylor
from awr.expr import Halfplane, MobiusOfStrip, SectorReal, Strip, StripShift
from awr.extended import is_infinite
from awr.grids import ring_points
from awr.jets import extremum
from awr.nehari import NEHARI_TOL
from awr.parser import format_expr
from awr.quasidisk import CLUSTER_ANGLES, CLUSTER_RING, COLLAPSE_THRESHOLD, near_one_clusters, normalize_values
from awr.reflection import B2_TOL

# The ten subcommands that read --map, with the flags they run with here (reflect's
# grid is only drawn, so it is svg's).
MAP_COMMANDS = {
    "certify": [], "reflect": ["--z", "0.3+0.4i", "--rings", "0.5,0.8,0.95", "--angles", "128"],
    "mediatrix-scan": [], "coeff-bound": [], "proof-check": [], "normalize": [], "delta": [],
    "quasidisk": ["--csv", ""], "omission-scan": [], "svg": ["--z", "0.3+0.4i"],
}
FIGURES = ("reflect", "mediatrix-scan", "quasidisk", "svg")
# lines whose value is the map's own point or coefficient, read back through (a, b)
SCALED_LINES = {("coeff-bound", "a2"), ("reflect", "w"), ("reflect", "r"), ("delta", "delta")}
# The printed values that decide a subcommand's verdicts, by line name (a proof-check
# line's name follows "zeta{k}.", a ring's precedes "["), with their thresholds.
THRESHOLDS = {
    ("certify", "sup"): (2.0 + NEHARI_TOL,), ("reflect", "b2"): (B2_TOL,),
    ("mediatrix-scan", "min_margin"): (-1e-9, CONTACT_TOL), ("coeff-bound", "inf_lhs"): (-0.5 - 1e-6,),
    # residual_ok reads the residual against its terms' size, at least 1/2
    ("coeff-bound", "min_residual"): (-1e-9,), ("proof-check", "slack"): (-1e-9,),
    ("proof-check", "sup_h"): (1.0 + 1e-9,), ("proof-check", "re_g_min"): (0.5 - 1e-6,),
    ("normalize", "sup"): (1.0,), ("quasidisk", "inf_ratio"): (COLLAPSE_THRESHOLD,),
    ("omission-scan", "inf_value"): (COLLAPSE_THRESHOLD,),
}
# leaves whose recentering moves verdicts that Track B mends (KNOWN_DISAGREEMENTS)
STRIP_LEAVES = (Strip, StripShift, MobiusOfStrip)

EPS = np.finfo(float).eps
# 2^j for j in [-900, 900], weighted to the ends
POWERS_OF_TWO = st.one_of(st.integers(-900, 900), st.integers(-900, -880), st.integers(880, 900))
# The scans multiply parts of f's values and divide them by others; such a product must
# stay a normal double (2^-1022) with two rounding-size factors (eps^2 = 2^-106) to spare
CLEAR_OF_SUBNORMAL = 2.0 ** -916
# ("A", (a, b)) postcomposes w -> a w + b, ("K", z0) recenters (conftest's `wrap`)
REWRITES = st.one_of(
    POWERS_OF_TWO.map(lambda j: ("A", (complex(2.0 ** j), 0j))),
    st.tuples(OUTER_SCALES, OUTER_SHIFTS).map(lambda p: ("A", p)),
    annulus(0.0, 0.9).map(lambda z0: ("K", z0)),
)


def _tolerance(rewrite):
    """0 at an exact power-of-two scale, else the affine bound the property derives (1e-6 under koebe)."""
    if rewrite[0] == "K":
        return 1e-6
    a, b = rewrite[1]
    return 0.0 if b == 0 and a.imag == 0 and math.frexp(a.real)[0] == 0.5 else 1e-6 + 1e5 * EPS * abs(b) / abs(a)


def _number(text):
    """A printed value as a float or complex where it is one, so +-0 compare equal; else its text."""
    try:
        return complex(text[:-1] + "j") if text.endswith("i") else float(text)
    except ValueError:
        return text


def _printed_error(x):
    """The rounding of a value as the CLI prints it: a float to six decimals, or to six
    of an exponent form outside [1e-3, 1e7); a complex value in full."""
    return 0.0 if isinstance(x, complex) else 1e-6 * (1.0 if x == 0 or 1e-3 <= abs(x) < 1e7 else abs(x))


def _clear_of_subnormal(g, j):
    """Whether f = 2^j g keeps 2^-|j| p^2/q above CLEAR_OF_SUBNORMAL, for p the least and q
    the largest of the nonzero real and imaginary parts of g's jet at 0 (a subnormal p fails
    at every j: g's own value has lost digits); a jet refused at 0 passes, as a refusal.

    Exact scaling needs f's values, and the products the scans form from them, to stay
    normal doubles.  f''(0) of disk(x=7.9e-226) at j = -298 is subnormal, and coeff-bound's
    a2 and proof-check's sup_h lose digits.  At j = -984 a half-plane's f'(0) = 2^j (3.94 +
    8.8e-16i) has a subnormal imaginary part, and so has w.  At j = -990 the jet of
    disk(x=6.1e-5) is normal at 0, but the Schwarzian's complex quotients form subnormal
    products on the grid, and certify's sup moves in its seventh digit; koebe(identity,
    z0=4.3e-90+0i) does so at j = -134, where f''(0)/f'(0) is about 1e-89.  So j stops at
    -900.  A quotient by f scales by 2^-j: at j = 572 the proof check divides by f(zeta) -
    f(0) of halfplane(c=1+2.9e-136i), whose reciprocal has a subnormal imaginary part, and
    zeta1.slack reads 0 against -1.527468e-151."""
    try:
        jet = jet_eval(g, 0j)
    except errors.AwrError:
        return True
    parts = [abs(p) for v in (jet.f0, jet.f1, jet.f2, jet.f3) for p in (v.real, v.imag) if p]
    return min(parts) ** 2 / max(parts) > math.ldexp(CLEAR_OF_SUBNORMAL, abs(j))


def _cluster_cut_margin(g):
    """How near a sample of |c f*| comes to near_one_clusters' cut, which decides
    normalize's cluster_count and whole_ring and prints no line."""
    p = np.abs(normalization(g)[2] * normalize_values(g, ring_points((CLUSTER_RING,), CLUSTER_ANGLES)[0]))
    return extremum(np.abs(p - near_one_clusters(g).tau))[1]


def _near_threshold(command, pairs, tol):
    """Whether a value that decides one of the command's verdicts, as g printed
    it, is within tol (and its printed rounding) of its threshold."""
    values = [(_number(text), THRESHOLDS.get((command, key.split("[")[0].rpartition(".")[2]), ()))
              for key, text in pairs]
    return any(abs(abs(a) - t if isinstance(a, complex) else a - t) <= tol * (1.0 + abs(a)) ** 2
               + _printed_error(a) for a, thresholds in values for t in thresholds)


def _agree(a, b, bound):
    """a and b within bound, or the same kind of non-finite value."""
    if np.isfinite(a) and np.isfinite(b):
        return abs(b - a) <= bound
    return (is_infinite(a), np.isnan(a)) == (is_infinite(b), np.isnan(b))


@pytest.mark.parametrize("command", MAP_COMMANDS)
@settings(max_examples=30, deadline=None)
@given(leaf=LEAVES, layers=LAYERS, rewrite=REWRITES)
@example(leaf=SectorReal(0.5), layers=[], rewrite=("A", (10 + 0j, 0j)))  # inf_lhs read -49.988820
@example(leaf=SectorReal(0.5), layers=[], rewrite=("A", (10 + 0j, -2 + 0j)))
@example(leaf=Halfplane(-1 + 0j), layers=[], rewrite=("A", (3 + 0j, 0j)))  # delta read 2.833289e-13, not 3 x 0.5
@example(leaf=Halfplane(-1 + 0j), layers=[], rewrite=("A", (1 + 0j, 1 + 0j)))  # zeta0.slack read -8.221111
# the ratio scan refused it as strip-conjugate
@example(leaf=Halfplane(-1 + 0j), layers=[], rewrite=("A", (1e-13 + 0j, 0j)))
@example(leaf=MobiusOfStrip(0.25 + 0j), layers=[], rewrite=("A", (1e-12 + 0j, 0j)))
def test_every_map_subcommand_answers_as_its_inner_map(command, leaf, layers, rewrite):
    """f = wrap(g, rewrite) answers as g does, within tol (`_tolerance`):
    - affine(g, a=2^j, b=0), tol = 0: the same exit code, every line equal
      (a2, w, r and a Euclidean delta 2^j times g's) and the same figures;
    - affine(g, a, b): exit codes and verdicts agree unless a deciding value
      is within tol of its threshold, and a scale-free value v (a scaled one
      once (a, b) is undone) within tol (1 + |v|)^2 and the printed rounding;
    - koebe(g, z0), leaves outside STRIP_LEAVES: the exit code alone.
    Of tol = 1e-6 + 1e5 eps |b|/|a|, 1e-6 covers golden-section refinements
    that branch apart on a last bit; f = a g + b carries eps |b|/|a| on g's
    scale, which the proof check's divisions by (z - zeta)^2, |z - zeta| down
    to 0.01, multiply by up to 1e4.  Next to a pole of the normalization a
    value moves like its square (normalize's sup).  Locations, counts and
    figures move with a last bit, so only tol = 0 compares them; a chordal
    delta is compared only on whether it vanishes.  Rounding may put g and f
    on either side of the cut |a2(F)| = A2_ZERO_TOL that makes c exactly 0;
    such draws are skipped."""
    g = build(leaf, layers)
    f = wrap(g, rewrite)
    tol = _tolerance(rewrite)
    if rewrite[0] == "K":
        assume(not isinstance(leaf, STRIP_LEAVES))
    elif tol == 0:
        assume(_clear_of_subnormal(g, math.frexp(rewrite[1][0].real)[1] - 1))
    else:
        a1, a2, _ = taylor(g)
        assume(abs(abs(a2 / a1) - A2_ZERO_TOL) > 1e-9 * A2_ZERO_TOL)
    figure = command in FIGURES and tol == 0
    with tempfile.TemporaryDirectory() as tmp:
        figs = [os.path.join(tmp, f"{k}.svg") for k in range(2)]
        runs = [run([command, "--map", format_expr(e), *MAP_COMMANDS[command],
                     *(["--svg", fig] if figure else [])]) for e, fig in zip((g, f), figs)]
        if figure:
            written = [Path(fig).read_bytes() if os.path.exists(fig) else None for fig in figs]
            assert written[1] == written[0]
    (code, out, _), (code_f, out_f, _) = runs
    pairs, pairs_f = ([line.split(" = ", 1) for line in o.splitlines()] for o in (out, out_f))
    loose = bool(tol) and _near_threshold(command, pairs, tol)
    if command == "normalize" and tol and rewrite[0] == "A" and code != 2:
        loose = loose or _cluster_cut_margin(g) <= tol
    assert code_f == code or loose, (code, code_f)
    if rewrite[0] == "K" or code_f != code:
        return

    scale, shift = rewrite[1]
    assert [key for key, _ in pairs_f] == [key for key, _ in pairs]
    chordal = ["metric", "chordal"] in pairs
    for (key, a), (_, b) in zip(pairs, pairs_f):
        a, b, scaled = _number(a), _number(b), (command, key) in SCALED_LINES
        if key in ("map", "svg") or (chordal and key == "arg_inf"):
            continue
        if chordal and key == "delta":  # the chordal distance to infinity is not scale-free
            assert (b == 0) == (a == 0), key
        elif isinstance(a, str) or key == "cluster_count":  # a verdict, or the metric's name
            assert b == a or (loose and key != "metric"), key
        elif not tol or not (key.startswith(("n_", "arg")) or key.endswith("_at")):  # not a count or location
            bound = tol * (1.0 + abs(a)) ** 2 + (
                _printed_error(a) + _printed_error(b) / (abs(scale) if scaled else 1.0) if tol or scaled else 0.0)
            if scaled and np.isfinite(b):
                b = b / abs(scale) if key == "delta" else (b - shift * (key != "a2")) / scale
            assert _agree(a, b, bound), (key, a, b)


# Recentered maps whose exit code is not the inner map's: (command, inner map,
# z0, the ROADMAP item that mends it).  Each mend moves bench goldens (Track B).
KNOWN_DISAGREEMENTS = [
    ("certify", "strip", "0.999999+0i", "item 6: sup reads 2.000000 with n_failed = 2"),
    ("proof-check", "identity", "0.999999+0i", "item 8: zeta0.sup_h reads 1.000001"),
    ("coeff-bound", "halfplane(c=-1+0i)", "0.999999+0i", "item 8: the relative residual reads -8.6e-7"),
    ("quasidisk", "strip", "0+0.5i", "items 2 and 7: the strip is refused, its recentering is not"),
    ("quasidisk", "mobius-of-strip(a=0.25+0i)", "0+0.5i", "item 7: the cusp is not seen as collapsed"),
    ("omission-scan", "mobius-of-strip(a=0.25+0i)", "0.3+0i", "item 7: the cusp is not seen as collapsed"),
    ("omission-scan", "mobius-of-strip(a=0.25+0i)", "0+0.5i", "item 7: the cusp is not seen as collapsed"),
    ("normalize", "mobius-of-strip(a=0.25+0i)", "0.99+0i", "item 2: the exact f* sup"),
]


@pytest.mark.parametrize("command,inner,z0", [
    pytest.param(command, inner, z0, marks=pytest.mark.xfail(strict=True, reason=reason),
                 id=f"{command} koebe({inner}, z0={z0})")
    for command, inner, z0, reason in KNOWN_DISAGREEMENTS])
def test_known_recentering_disagreements(command, inner, z0):
    flags = MAP_COMMANDS[command]
    assert run([command, "--map", f"koebe({inner}, z0={z0})", *flags])[0] == run([command, "--map", inner, *flags])[0]
