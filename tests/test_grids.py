"""The ring sampler and the polar refinement shared by every scan."""

import math

import numpy as np
import pytest

from awr import quasidisk
from awr.catalog import FIXTURE_EXPRS
from awr.errors import BadParam
from awr.grids import GridMeta, grid_points, polar, refine_on_grid, ring_points
from awr.record import replace


def test_ring_points_are_ring_major_and_unvalidated():
    z = ring_points((0.0, 0.5), 16)  # below GridMeta's 64-angle floor
    assert z.shape == (2, 16)
    assert np.all(z[0] == 0.0)
    assert np.allclose(np.abs(z[1]), 0.5)
    assert z[1, 4] == pytest.approx(0.5j)
    meta = GridMeta(rings=(0.3, 0.9), angles=128)
    assert np.array_equal(grid_points(meta), ring_points(meta.rings, meta.angles))


def bowl(r, t):
    return (r - 0.37) ** 2 + (t - 1.0) ** 2


@pytest.mark.parametrize("passes", [1, 3])
def test_refinement_descends_and_keeps_the_caller_best(passes):
    r0, t0 = 0.5, 1.02
    best, r, t = refine_on_grid(bowl, r0, t0, bowl(r0, t0), 0.05, (0.0, 0.9),
                                dr=0.2, passes=passes)
    assert best == bowl(r, t)
    assert abs(r - 0.37) < 1e-6 and abs(t - 1.0) < 1e-6
    # a best value no sweep can beat leaves the start point alone
    assert refine_on_grid(bowl, r0, t0, -1.0, 0.05, (0.0, 0.9), dr=0.2,
                          passes=passes) == (-1.0, r0, t0)


def test_refinement_stays_inside_the_radius_range_and_maximizes():
    def peak(r, t):
        return r + math.cos(t)

    # the refinement minimizes, so a maximum is refined as the least -peak
    neg, r, t = refine_on_grid(lambda r, t: -peak(r, t), 0.5, 0.01, -peak(0.5, 0.01), 0.1,
                               (0.4, 0.6))
    assert 0.4 <= r <= 0.6 and r > 0.59
    assert abs(t) < 1e-6
    assert -neg == pytest.approx(peak(r, t))


def test_refinement_runs_at_least_one_pass():
    best, r, t = refine_on_grid(bowl, 0.5, 1.02, bowl(0.5, 1.02), 0.05, (0.0, 0.9),
                                dr=0.2, passes=0)
    assert best < bowl(0.5, 1.02)


def test_refinement_stops_once_the_brackets_collapse():
    """Past about 20 passes both brackets are below double resolution;
    the refinement then stops evaluating, with the same result."""
    calls = []

    def counted(r, t):
        calls.append((r, t))
        return bowl(r, t)

    results, counts = [], []
    for passes in (3, 20, 40, 64):
        calls.clear()
        results.append(refine_on_grid(counted, 0.5, 1.02, bowl(0.5, 1.02), 0.05,
                                      (0.0, 0.9), dr=0.2, passes=passes))
        counts.append(len(calls))
    assert counts[0] < counts[1] and counts[1] == counts[2] == counts[3]
    assert results[1] == results[2] == results[3]
    # at theta = 0 the angle bracket stops at double resolution as well
    counts = []
    for passes in (40, 64):
        calls.clear()
        refine_on_grid(lambda r, t: counted(r, t + 1.0), 0.37, 0.0, 0.0, 0.05, (0.0, 0.9),
                       dr=0.2, passes=passes)
        counts.append(len(calls))
    assert counts[1] == counts[0]
    # a collapsed angle bracket alone leaves the r sweeps running
    best, r, t = refine_on_grid(bowl, 0.5, 1.0, bowl(0.5, 1.0), 0.0, (0.0, 0.9), dr=0.2,
                                passes=3)
    assert t == 1.0 and abs(r - 0.37) < 1e-6


def refine_pass_by_pass(fn, r, theta, best, dth, r_range, dr=1.0, passes=1):
    """refine_on_grid run one pass per call, so every pass runs."""
    for k in range(max(passes, 1)):
        best, r, theta = refine_on_grid(fn, r, theta, best, dth / 8.0**k, r_range,
                                        dr / 8.0**k, 1)
    return best, r, theta


@pytest.mark.parametrize("name", ["disk", "strip-shift", "strip", "mobius-of-strip"])
@pytest.mark.parametrize("passes", [3, 20, 64])
def test_collapsed_refinement_matches_every_pass_bitwise(name, passes, monkeypatch):
    """repr round-trips every float, so equal reprs are bitwise-equal reports."""
    expr = dict(FIXTURE_EXPRS)[name]
    got = [quasidisk.delta_f(expr, passes=passes),
           quasidisk.koebe_omission_scan(expr, passes=passes)]
    monkeypatch.setattr(quasidisk, "refine_on_grid", refine_pass_by_pass)
    want = [quasidisk.delta_f(expr, passes=passes),
            quasidisk.koebe_omission_scan(expr, passes=passes)]
    assert repr(got) == repr(want)


def test_polar():
    assert polar(2.0, 0.0) == 2.0
    assert polar(1.0, math.pi / 2) == pytest.approx(1j)


def test_grid_meta_checks_every_construction():
    """Positional, keyword, default and replaced grids all pass through
    the same checks and normalization."""
    grid = GridMeta((0.5, 0.9), 64)
    assert grid == GridMeta(rings=[0.5, 0.9], angles=64)
    assert grid.rings == (0.5, 0.9) and isinstance(grid.rings, tuple)
    assert GridMeta(angles=128) == replace(GridMeta(), angles=128)
    for bad in (lambda: GridMeta((0.5, 0.4)), lambda: GridMeta(rings=()),
                lambda: GridMeta((1.0,)), lambda: GridMeta(angles=63),
                lambda: replace(grid, angles=8), lambda: replace(grid, rings=(0.9, 0.5))):
        with pytest.raises(BadParam):
            bad()
