"""Expression validation and the fixture catalog's frozen metadata.

The a2 values are exact closed forms; convexity minima were measured
once on the standard certification grid and are pinned with loose
brackets so grid tweaks that preserve correctness do not break them.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ANGLES, LEAVES, annulus

from awr.catalog import (
    BOUNDED,
    FIXTURE_EXPRS,
    UNBOUNDED,
    build_map,
    validate_convexity,
)
from awr.errors import DegenerateDomain, ParamOutOfRange
from awr.evaluate import _koebe_scalars, jet_eval, normal_form, sector_auto_params, taylor
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
from awr.grids import GridMeta, polar, ring_points
from awr.jets import Jet3
from awr.nehari import CertReport
from awr.record import fields, replace
from awr.reflection import local_b2

A2_TABLE = {
    "identity": 0.0 + 0.0j,
    "disk": -0.5 + 0.0j,
    "halfplane": 1.0 + 0.0j,
    "sector": 0.5 + 0.0j,
    "sector-auto": 0.75 + 0.0j,
    "strip": 0.0 + 0.0j,
    "strip-shift": 2j * 0.7 / (1.0 + 0.49),
    "mobius-of-strip": -0.25 + 0.0j,
}

CONVEXITY_TABLE = {
    # name -> (certified, (min_lo, min_hi))
    "identity": (True, (0.5, 1.01)),
    "disk": (True, (0.2, 0.45)),
    "halfplane": (True, (1e-4, 1e-3)),
    "sector": (True, (5e-4, 2e-3)),
    "sector-auto": (True, (5e-4, 2e-3)),
    "strip": (True, (5e-4, 2e-3)),
    "strip-shift": (True, (2e-4, 1e-3)),
    "mobius-of-strip": (False, (-30.0, -5.0)),
}

BOUNDED_TABLE = {
    "identity": BOUNDED,
    "disk": BOUNDED,
    "halfplane": UNBOUNDED,
    "sector": UNBOUNDED,
    "sector-auto": UNBOUNDED,
    "strip": UNBOUNDED,
    "strip-shift": UNBOUNDED,
    "mobius-of-strip": UNBOUNDED,
}

OMITTED_ON_BOUNDARY = {"strip", "mobius-of-strip"}


def test_fixture_roster():
    assert [name for name, _ in FIXTURE_EXPRS] == [
        "identity", "disk", "halfplane", "sector", "sector-auto",
        "strip", "strip-shift", "mobius-of-strip",
    ]


def test_second_coefficients(catalog):
    for name, want in A2_TABLE.items():
        assert abs(catalog[name].a2 - want) < 1e-12, name


def test_convexity_certification(catalog):
    for name, (certified, (lo, hi)) in CONVEXITY_TABLE.items():
        spec = catalog[name]
        assert spec.convexity_certified == certified, name
        assert lo <= spec.convexity_min <= hi, (name, spec.convexity_min)


def test_convexity_check_refuses_a_grid_with_no_finite_sample():
    """At a = 1e-320 every f''/f' leaves double range: the check used to
    read the empty minimum as inf and certify the map."""
    with pytest.raises(DegenerateDomain):
        validate_convexity(Affine(SectorReal(0.5), 1e-320 + 0j, 0j))


def test_boundedness_hints(catalog):
    for name, want in BOUNDED_TABLE.items():
        assert catalog[name].bounded_hint == want, name


def test_mobius_of_strip_boundedness_rule():
    """L/(1 + aL) is bounded exactly when the pole -1/a of the outer
    Mobius map misses the closed image strip |Im| <= pi/4 of L."""
    # pole at -1/a: 0.25 -> -4 on the strip axis (unbounded);
    # 0.25j -> 4i well above it (bounded); 2j -> i/2 inside the open
    # strip, so the map is meromorphic with an actual pole (unbounded).
    assert build_map(MobiusOfStrip(0.25)).bounded_hint == UNBOUNDED
    assert build_map(MobiusOfStrip(0.25j)).bounded_hint == BOUNDED
    assert build_map(MobiusOfStrip(1.0j)).bounded_hint == BOUNDED
    assert build_map(MobiusOfStrip(2.0j)).bounded_hint == UNBOUNDED


def test_omitted_point_on_boundary_flags(catalog):
    for name, spec in catalog.items():
        assert spec.omitted_on_boundary == (name in OMITTED_ON_BOUNDARY), name


def test_strip_shift_is_imaginary_base_koebe():
    assert StripShift(0.7).lower() == Koebe(Strip(), 0.7j)
    j1 = jet_eval(StripShift(0.7), 0.2 - 0.3j)
    j2 = jet_eval(Koebe(Strip(), 0.7j), 0.2 - 0.3j)
    assert abs(j1.f0 - j2.f0) < 1e-14
    assert abs(j1.f3 - j2.f3) < 1e-12


def test_koebe_transform_of_identity_is_disk_map():
    spec = build_map(Koebe(Identity(), 0.5))
    assert abs(spec.a2 - (-0.5)) < 1e-12
    zs = np.array([0.1 + 0.2j, -0.4 + 0.1j, 0.6 - 0.3j])
    got = jet_eval(spec.expr, zs).f0
    want = jet_eval(Disk(0.5), zs).f0
    assert np.max(np.abs(got - want)) < 1e-12


def test_koebe_transform_at_origin_is_identity_op(catalog):
    for name, spec in catalog.items():
        moved = build_map(Koebe(spec.expr, 0.0))
        assert abs(moved.a2 - spec.a2) < 1e-10, name


def test_koebe_transform_of_strip_at_real_base_kills_a2():
    """The strip map recentred at a real point keeps a2 = 0: the image
    strip is symmetric about the new center, so the second coefficient
    has no direction to point in.  (At imaginary base points it is
    purely imaginary and nonzero.)"""
    for x in (0.3, 0.7, -0.5):
        spec = build_map(Koebe(Strip(), x))
        assert abs(spec.a2) < 1e-12, x
    spec = build_map(Koebe(Strip(), 0.7j))
    assert abs(spec.a2 - 2j * 0.7 / 1.49) < 1e-12


def test_sector_from_automorphism_params():
    spec = build_map(SectorAuto(0.5))
    c, beta, b = sector_auto_params(0.5)
    assert abs(c - (-1.0)) < 1e-12
    assert abs(beta - 0.75) < 1e-12
    assert abs(b - (-2.0 / 3.0)) < 1e-12
    assert abs(spec.a2 - 0.75) < 1e-12
    assert abs((spec.a2 * b).real + 0.5) < 1e-12

    build_map(SectorAuto(0.0))
    c0, beta0, b0 = sector_auto_params(0.0)
    assert abs(c0 - (-1.0)) < 1e-12
    assert abs(beta0 - 0.5) < 1e-12
    assert abs(b0 - (-1.0)) < 1e-12


def test_sector_auto_matches_real_sector_of_mean_aperture():
    """SectorFromAutomorphism(a) with real a equals SectorReal((1+a)/2)
    up to the closed-form normalization, so their Schwarzians agree."""
    from awr.nehari import schwarzian

    zs = np.array([0.2 + 0.1j, -0.4 - 0.2j, 0.5j])
    got = schwarzian(SectorAuto(0.5), zs)
    want = schwarzian(SectorReal(0.75), zs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_mobius_shift_kills_second_coefficient(catalog):
    for name, spec in catalog.items():
        shifted = build_map(MobiusShift(spec.expr))
        assert abs(shifted.a2) < 1e-12, name


def test_mobius_shift_of_strip_notes_identity():
    """With a2 = 0 already, the shift acts as the identity."""
    spec = build_map(MobiusShift(Strip()))
    zs = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    got = jet_eval(spec.expr, zs).f0
    want = jet_eval(Strip(), zs).f0
    assert np.max(np.abs(got - want)) < 1e-14


def test_mobius_shift_boundedness():
    assert build_map(MobiusShift(StripShift(0.7))).bounded_hint == BOUNDED
    assert build_map(MobiusShift(MobiusOfStrip(0.25))).bounded_hint == UNBOUNDED


@settings(max_examples=200, deadline=None)
@given(LEAVES, annulus(0.0, 0.95))
def test_koebe_second_coefficient_is_the_local_b2(leaf, z0):
    """The Koebe transform at z0 has a2 = (1 - |z0|^2) f''(z0)/(2 f'(z0)) - conj(z0)."""
    want = local_b2(jet_eval(leaf, z0), z0)
    assume(np.isfinite(want))
    got = taylor(Koebe(leaf, z0))[1]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=200, deadline=None)
@given(annulus(0.0, 0.95))
def test_sector_auto_second_coefficient(a):
    """a2 = -a c + b c (1 - |a|^2)/2, and Re(a2 b) = -1/2: the bound is sharp."""
    c, _, b = sector_auto_params(a)
    a2 = taylor(SectorAuto(a))[1]
    assert abs(a2 - (-a * c + 0.5 * b * c * (1.0 - abs(a) ** 2))) <= 1e-10
    assert abs((a2 * b).real + 0.5) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(SectorReal),
    st.tuples(st.floats(-12.0, 0.0), ANGLES).map(
        lambda p: SectorAuto(polar(1.0 - 10.0 ** p[0], p[1]))),
))
def test_sector_power_base_misses_the_branch_cut(leaf):
    """The power base w = (1 + z)/(1 + c z) of a sector leaf maps the disk onto
    an open half-plane whose edge passes through 0 and which holds 1 (see
    expr.SectorAuto), so the ring r = 0.999999 never meets (-inf, 0], down
    to 1 - |a| = 1e-12."""
    c = -1.0 if isinstance(leaf, SectorReal) else sector_auto_params(leaf.a)[0]
    z = ring_points((0.999999,), 4096)[0]
    w = (1.0 + z) / (1.0 + c * z)
    assert not np.any((w.real <= 0.0) & (np.abs(w.imag) < 1e-12))


def test_taylor_normalization(catalog):
    for name, spec in catalog.items():
        a1, a2, _ = taylor(spec.expr)
        assert abs(a1 - 1.0) < 1e-12, name
        assert abs(a2 - spec.a2) < 1e-12, name


@pytest.mark.parametrize("bad", [
    lambda: Disk(1.5),
    lambda: Disk(-1.0),
    lambda: Halfplane(0.5),
    lambda: SectorReal(0.0),
    lambda: SectorReal(1.0),
    lambda: SectorAuto(1.2),
    lambda: StripShift(0.0),
    lambda: StripShift(1.0),
    lambda: MobiusOfStrip(0.0),
    lambda: Koebe(Strip(), 1.0),
    lambda: Affine(Strip(), 0.0, 1.0),
])
def test_parameter_validation(bad):
    with pytest.raises(ParamOutOfRange):
        bad()


def test_nesting_depth_cap():
    expr = Strip()
    with pytest.raises(ParamOutOfRange):
        for _ in range(9):
            expr = MobiusShift(expr)


def test_affine_and_koebe_accept_valid_nesting():
    expr = Affine(MobiusShift(Koebe(Strip(), 0.1 + 0.1j)), 2.0, 1.0 - 1.0j)
    assert expr.depth() == 4


# Expressions are frozen records: per-type equality and hashing (the
# evaluation caches key on them), fixed reprs, and checks that run on
# every construction.

# one node of each leaf type; several share a field value
SAME_VALUED = (Identity(), Strip(), Disk(0.5), SectorReal(0.5), StripShift(0.5),
               SectorAuto(0.25), MobiusOfStrip(0.25))


def nested():
    return Affine(Koebe(MobiusShift(SectorReal(0.5)), 0.3 + 0.2j), 2.0, complex(0.0, -1.0))


def test_equal_nodes_hash_equal_and_types_never_compare_equal():
    assert nested() == nested() and hash(nested()) == hash(nested())
    assert nested() != Affine(Koebe(MobiusShift(SectorReal(0.5)), 0.3 + 0.2j), 2.0, 1j)
    for a in SAME_VALUED:
        for b in SAME_VALUED:
            assert (a == b) is (a is b), (a, b)
            assert (a != b) is (a is not b), (a, b)
    assert len(set(SAME_VALUED)) == len(SAME_VALUED)
    assert hash(Disk(0.5)) == hash(SectorReal(0.5))  # only equality tells them apart


def test_caches_keep_same_valued_nodes_of_different_types_apart():
    # z + a z^2 + (1 + 2 a^2) z^3 / 3 and z - x z^2 + x^2 z^3
    assert taylor(SectorReal(0.5)) == pytest.approx((1.0, 0.5, 0.5), abs=1e-15)
    assert taylor(Disk(0.5)) == pytest.approx((1.0, -0.5, 0.25), abs=1e-15)
    assert taylor(Strip())[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert taylor(Identity()) == (1.0, 0.0, 0.0)
    w = 1.3 / 0.7  # (1 + z) / (1 - z) at z = 0.3
    f, df = _koebe_scalars(SectorReal(0.5), 0.3 + 0j)
    assert f == pytest.approx(w ** 0.5 - 1.0, rel=1e-15)
    assert df == pytest.approx(w ** -0.5 / 0.49, rel=1e-15)
    f, df = _koebe_scalars(Disk(0.5), 0.3 + 0j)
    assert f == pytest.approx(0.3 / 1.15, rel=1e-15)
    assert df == pytest.approx(1.0 / 1.15 ** 2, rel=1e-15)


@pytest.mark.parametrize("record,name", [
    (Disk(0.5), "x"), (Koebe(Strip(), 0.1j), "z0"), (Identity(), "x"),
    (GridMeta(), "angles"), (Jet3.identity(0.1j), "f0"),
])
def test_records_are_frozen(record, name):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0.25)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == before


def test_records_take_fields_by_position_or_keyword():
    assert Koebe(inner=Strip(), z0=0.1j) == Koebe(Strip(), z0=0.1j) == Koebe(Strip(), 0.1j)
    assert Jet3(f0=1, f1=2, f2=3, f3=4, at=5) == Jet3(1, 2, 3, 4, 5)
    assert fields(Koebe) == ("inner", "z0") and fields(Identity()) == ()
    assert fields(Jet3) == ("f0", "f1", "f2", "f3", "at")
    assert replace(nested(), B=1j).B == 1j and replace(Disk(0.5), x=0.25) == Disk(0.25)
    for bad in (lambda: Koebe(Strip()), lambda: Koebe(Strip(), 0.1j, 0.2j),
                lambda: Koebe(Strip(), 0.1j, inner=Strip()), lambda: Disk(y=0.5)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ParamOutOfRange):
        replace(Disk(0.5), x=2.0)
    with pytest.raises(ParamOutOfRange):
        Koebe(z0=1.0, inner=Strip())


@pytest.mark.parametrize("build", [nested, GridMeta, lambda: normal_form(nested())],
                         ids=["MapExpr", "GridMeta", "NormalForm"])
def test_records_copy_and_pickle_through_the_constructor(build):
    """Copies and pickles rebuild a record from its field values, also
    after its hash has filled the frozen slot."""
    record = build()
    h = hash(record)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == h


# the reprs the nodes have always printed
FIXTURE_REPRS = {
    "identity": "Identity()",
    "disk": "Disk(x=0.5)",
    "halfplane": "Halfplane(c=(-1+0j))",
    "sector": "SectorReal(a=0.5)",
    "sector-auto": "SectorAuto(a=(0.5+0j))",
    "strip": "Strip()",
    "strip-shift": "StripShift(x=0.7)",
    "mobius-of-strip": "MobiusOfStrip(a=(0.25+0j))",
}


def test_reprs_are_unchanged():
    assert {name: repr(expr) for name, expr in FIXTURE_EXPRS} == FIXTURE_REPRS
    assert repr(nested()) == ("Affine(inner=Koebe(inner=MobiusShift(inner=SectorReal(a=0.5)), "
                              "z0=(0.3+0.2j)), A=(2+0j), B=-1j)")
    grid = GridMeta(rings=(0.5, 0.9), angles=128)
    assert repr(grid) == "GridMeta(rings=(0.5, 0.9), angles=128)"
    report = CertReport(sup_estimate=1.5, arg_sup=0.25 - 0.5j, grid=grid, passed=True,
                        t_parameter=0.75, n_failed=0)
    assert repr(report) == (
        "CertReport(sup_estimate=1.5, arg_sup=(0.25-0.5j), grid=GridMeta(rings=(0.5, 0.9), "
        "angles=128), passed=True, t_parameter=0.75, n_failed=0)")
