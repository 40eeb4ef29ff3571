import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from awr import cli
from awr.catalog import FIXTURE_EXPRS, build_map
from awr.evaluate import Mobius, jet_eval
from awr.expr import (
    Affine,
    Disk,
    Halfplane,
    Identity,
    Koebe,
    MobiusOfStrip,
    MobiusShift,
    SectorAuto,
    SectorReal,
    Strip,
    StripShift,
)
from awr.extended import chordal
from awr.grids import grid_points, polar
from awr.reflection import jet_reflection

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code, args=(), cwd=None):
    """Run code in a new interpreter on this checkout; its last stderr line."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stderr.splitlines()[-1]


def run(argv):
    """Run the CLI in-process; returns (exit code, stdout text, stderr text)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = int(exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def catalog():
    """Fixture catalog built once: name -> MappingSpec."""
    return {name: build_map(expr) for name, expr in FIXTURE_EXPRS}


@pytest.fixture(scope="session")
def fixture_names():
    return [name for name, _ in FIXTURE_EXPRS]


@pytest.fixture(scope="session")
def ratio_reports(catalog):
    """Distance-ratio profiles per fixture, run once for the session.

    The strip maps to None: its reflection sends the whole axis to
    infinity, so the ratio scan refuses it as ill-posed.
    """
    from awr.errors import DegenerateDomain
    from awr.quasidisk import quasidisk_ratio_scan

    out = {}
    for name, spec in catalog.items():
        try:
            out[name] = quasidisk_ratio_scan(spec.expr)
        except DegenerateDomain:
            out[name] = None
    return out


@pytest.fixture(scope="session")
def omission_reports(catalog):
    """Omitted-direction scans per fixture, run once for the session."""
    from awr.quasidisk import koebe_omission_scan

    return {name: koebe_omission_scan(spec.expr)
            for name, spec in catalog.items()}


def disk_points(seed: int, n: int, rmax: float = 0.9) -> np.ndarray:
    """Deterministic cloud of probe points with |z| <= rmax."""
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * t)


# The hypothesis vocabulary of maps and disk points the property tests share.

ANGLES = st.floats(0.0, 2.0 * math.pi)


def annulus(rmin, rmax):
    """Complex numbers with rmin <= |z| <= rmax."""
    return st.tuples(st.floats(rmin, rmax), ANGLES).map(lambda p: polar(*p))


# every leaf kind, with the parameter ranges the benchmark draws from
LEAVES = st.one_of(
    st.just(Identity()),
    st.floats(-0.9, 0.9).map(Disk),
    ANGLES.map(lambda t: Halfplane(polar(1.0, t))),
    st.floats(0.1, 0.95).map(SectorReal),
    annulus(0.0, 0.8).map(SectorAuto),
    st.just(Strip()),
    st.floats(0.05, 0.95).map(StripShift),
    annulus(0.1, 1.0).map(MobiusOfStrip),
)


# ("K", z0) recenters, ("A", (A, B)) postcomposes an affine map, ("M",) shifts.
KOEBE = st.tuples(st.just("K"), annulus(0.0, 0.9))
AFFINE = st.tuples(st.just("A"), st.tuples(
    annulus(0.2, 5.0),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(lambda p: complex(*p))))
LAYERS = st.lists(st.one_of(KOEBE, AFFINE, st.just(("M",))), max_size=3)
# an outer affine map: |A| log-uniform on [1e-6, 1e6], with draws weighted to both ends
OUTER_SCALES = st.tuples(st.one_of(st.floats(-6.0, 6.0), st.floats(5.0, 6.0), st.floats(-6.0, -5.0)),
                         ANGLES).map(lambda p: polar(10.0 ** p[0], p[1]))
OUTER_SHIFTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda p: complex(*p))


def wrap(expr, layer):
    """expr under one layer of LAYERS."""
    if layer[0] == "K":
        return Koebe(expr, layer[1])
    if layer[0] == "A":
        return Affine(expr, *layer[1])
    return MobiusShift(expr)


def build(leaf, layers):
    """leaf under each layer in turn, innermost first."""
    expr = leaf
    for layer in layers:
        expr = wrap(expr, layer)
    return expr


def leaf_point(nf, z):
    """pre(z): the point of the leaf's disk that z stands for in the normal form nf."""
    return nf.pre.lam * (z - nf.pre.a) / (1.0 - np.conj(nf.pre.a) * z)


def random_mobius(rng: np.random.Generator) -> Mobius:
    """A Mobius map with Gaussian coefficients scaled to determinant 1,
    drawn again until the raw determinant exceeds 0.1."""
    while True:
        a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
        det = a * d - b * c
        if abs(det) > 0.1:
            s = 1.0 / np.sqrt(complex(det))
            return Mobius(a * s, b * s, c * s, d * s)


def mobius_equivariance_check(expr, mob: Mobius, meta):
    """Chordal residual between R(M o f) and M(R(f)) over a grid.

    The reflection construction commutes with Mobius post-composition;
    the residual should sit at rounding level.  Grid points where M o f
    has a pole (so the jet arithmetic degenerates) are excluded and
    counted.  Returns (max_residual, n_checked, n_excluded).
    """
    zs = grid_points(meta).ravel()
    j = jet_eval(expr, zs)
    lhs = mob(jet_reflection(j, zs)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        jm = mob.apply_jet(j)
    r_m = jet_reflection(jm, zs)[0]

    res = chordal(lhs, r_m)
    ok = ~np.isnan(res)
    n_excluded = int(np.size(res) - np.count_nonzero(ok))
    max_residual = float(np.max(res[ok])) if np.any(ok) else float("nan")
    return max_residual, int(np.count_nonzero(ok)), n_excluded


# Fifty grammar cases for the parse/print round-trip check, spanning
# every constructor, nesting, whitespace, and case-folding variants.
GRAMMAR_CASES = (
    "identity",
    "strip",
    "identity()",
    "strip()",
    "disk(x=0.5)",
    "disk(x=0.25)",
    "disk(x=-0.5)",
    "disk(x=0.9)",
    "disk(x=-0.999)",
    "halfplane(c=-1+0i)",
    "halfplane(c=1+0i)",
    "halfplane(c=0+1i)",
    "halfplane(c=0.6+0.8i)",
    "halfplane(c=-0.6-0.8i)",
    "sector(a=0.5)",
    "sector(a=0.25)",
    "sector(a=0.75)",
    "sector(a=0.999)",
    "sector-auto(a=0.5+0i)",
    "sector-auto(a=0.25-0.25i)",
    "sector-auto(a=0+0.5i)",
    "sector-auto(a=-0.3+0.2i)",
    "sector-auto(a=0+0i)",
    "strip-shift(x=0.7)",
    "strip-shift(x=0.1)",
    "strip-shift(x=0.999)",
    "mobius-of-strip(a=0.25+0i)",
    "mobius-of-strip(a=0+0.25i)",
    "mobius-of-strip(a=0.1-0.3i)",
    "mobius-of-strip(a=1+0i)",
    "koebe(strip, z0=0.7+0i)",
    "koebe(strip, z0=0+0.7i)",
    "koebe(identity, z0=0.3-0.2i)",
    "koebe(disk(x=0.5), z0=0.1+0.1i)",
    "koebe(sector(a=0.5), z0=-0.2+0.4i)",
    "koebe(halfplane(c=-1+0i), z0=0.25+0i)",
    "koebe(koebe(strip, z0=0+0.3i), z0=0.2+0i)",
    "mobius-shift(strip)",
    "mobius-shift(identity)",
    "mobius-shift(mobius-of-strip(a=0.25+0i))",
    "mobius-shift(koebe(strip, z0=0+0.7i))",
    "affine(identity, a=2+0i, b=1+0i)",
    "affine(strip, a=0.5+0.5i, b=0+0i)",
    "affine(disk(x=0.5), a=1-1i, b=-2+3i)",
    "affine(sector(a=0.5), b=0+1i, a=0+1i)",
    "  identity  ",
    "DISK( X = 0.5 )",
    "Koebe( Strip , Z0 = 0.7+0i )",
    "sector-AUTO(A=0.5+0i)",
    "MOBIUS-OF-STRIP(a=0.25+0i)",
)
