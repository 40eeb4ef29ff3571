"""End-to-end acceptance checks, one numbered block per certified
claim.  Each test pins the exact tolerances the package promises, on
the closed-form fixture catalog, and runs in seconds.

The one expected failure is marked strict xfail at the bottom of the
delta block: the shifted strip map omits a finite value at distance
about 0.55 from its image, so no refinement depth can push its delta
under the collapse threshold that the strip-conjugate maps meet.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import GRAMMAR_CASES, disk_points, random_mobius

from awr import cli
from awr.catalog import FIXTURE_EXPRS
from awr.convexity import (
    DEFAULT_ZETAS,
    coefficient_bound_scan,
    mediatrix_scan,
    proof_machinery_check,
)
from awr.expr import (
    Disk,
    Halfplane,
    Identity,
    Koebe,
    MobiusOfStrip,
    SectorReal,
    Strip,
    StripShift,
)
from awr.evaluate import jet_eval
from awr.grids import GridMeta
from awr.nehari import certify_nehari, nehari_functional, schwarzian_jet
from awr.parser import format_expr, parse_expr
from awr.quasidisk import (
    delta_f,
    near_one_clusters,
    normalize_values,
    normalized_sup,
    quasidisk_ratio_scan,
)
from awr.reflection import reflect, reflect_grid
from awr.extended import is_infinite


def certified_names(catalog):
    return [name for name, spec in catalog.items() if spec.convexity_certified]


# 1. extremal certification: the strip map attains the weighted
#    Schwarzian bound exactly, on the real axis, and every map with a
#    certified convex image passes the bound

def test_strip_attains_schwarzian_bound():
    report = certify_nehari(Strip())
    assert abs(report.sup_estimate - 2.0) < 1e-6
    assert abs(report.arg_sup.imag) < 1e-6
    assert report.passed


def test_bound_holds_on_all_convex_fixtures(catalog):
    names = certified_names(catalog)
    assert len(names) == 7
    for name in names:
        report = certify_nehari(catalog[name].expr)
        assert report.sup_estimate <= 2.0 + 1e-9, (name, report.sup_estimate)
        assert report.passed, name


# 2. Schwarzian invariance under the Mobius group

def test_mobius_primitives_have_zero_schwarzian():
    zs = disk_points(3, 256)
    for expr in (Identity(), Disk(0.5), Disk(-0.25), Halfplane(-1.0),
                 Halfplane(0.6 + 0.8j)):
        s = schwarzian_jet(jet_eval(expr, zs))
        assert np.max(np.abs(s)) < 1e-12, expr


def test_mobius_post_composition_invariance(catalog):
    rng = np.random.default_rng(42)
    zs = disk_points(7, 160)
    for name, spec in catalog.items():
        base = jet_eval(spec.expr, zs)
        s0 = schwarzian_jet(base)
        for _ in range(20):
            mob = random_mobius(rng)
            s1 = schwarzian_jet(mob.apply_jet(base))
            good = np.isfinite(s0) & np.isfinite(s1)
            assert np.max(np.abs((s1 - s0)[good])) < 1e-10, name


def test_koebe_cocycle_for_the_functional(catalog):
    zs = disk_points(11, 160)
    for name, spec in catalog.items():
        for z0 in (0.3 + 0.2j, -0.5 + 0.1j, 0.6j):
            sig = (zs + z0) / (1.0 + np.conjugate(z0) * zs)
            n_shifted = nehari_functional(Koebe(spec.expr, z0), zs)
            n_base = nehari_functional(spec.expr, sig)
            good = np.isfinite(n_shifted) & np.isfinite(n_base)
            assert np.max(np.abs((n_shifted - n_base)[good])) < 1e-10, name


# 3. reflection anchors

def test_reflection_at_origin_is_negative_reciprocal_a2(catalog):
    for name, spec in catalog.items():
        if abs(spec.a2) < 1e-12:
            continue
        sample = reflect(spec.expr, 0.0 + 0.0j)
        assert not sample.r_is_inf, name
        assert abs(sample.r - (-1.0 / spec.a2)) < 1e-10, name


def test_identity_reflection_is_inversion():
    sample = reflect(Identity(), 0.5 + 0.0j)
    assert abs(sample.r - 2.0) < 1e-12


def test_halfplane_reflection_is_line_mirror():
    sample = reflect(Halfplane(-1.0), 0.5 + 0.0j)
    assert abs(sample.w - 1.0) < 1e-12
    assert abs(sample.r - (-2.0)) < 1e-12
    zs, ws, rs, _ = reflect_grid(Halfplane(-1.0), GridMeta())
    finite = ~np.array([is_infinite(r) for r in rs])
    mirror = -1.0 - np.conjugate(ws[finite])
    assert np.max(np.abs(rs[finite] - mirror)) < 1e-10


# 4. second-coefficient bound with extremal contact

def test_coefficient_bound_on_convex_fixtures(catalog):
    for name in certified_names(catalog):
        report = coefficient_bound_scan(catalog[name].expr)
        assert report.inf_lhs > -0.5 - 1e-9, (name, report.inf_lhs)
        assert report.min_residual >= -1e-9, (name, report.min_residual)
        assert report.lower_ok and report.residual_ok, name


def test_disk_coefficient_infimum():
    report = coefficient_bound_scan(Disk(0.5))
    assert abs(report.inf_lhs - (-1.0 / 3.0)) < 1e-6


def test_sector_extremal_contact_versus_bounded_separation(catalog):
    sector = coefficient_bound_scan(SectorReal(0.5))
    assert sector.inf_lhs <= -0.498
    assert sector.arg_inf.real < -0.999
    for name in ("identity", "disk"):
        report = coefficient_bound_scan(catalog[name].expr)
        assert report.inf_lhs > -0.45, name


# 5. separation-line scan

def test_mediatrix_scan_on_convex_fixtures(catalog):
    contact = set()
    for name in certified_names(catalog):
        report = mediatrix_scan(catalog[name].expr)
        assert report.min_margin >= -1e-9, (name, report.min_margin)
        if report.contact:
            contact.add(name)
    assert contact == {"halfplane", "sector-auto"}


# 6. recentred Schwarz-Pick machinery

def test_proof_machinery_across_maps():
    for expr in (Identity(), Halfplane(-1.0), SectorReal(0.5), Disk(0.5),
                 Strip()):
        all_pass, samples = proof_machinery_check(expr)
        assert all_pass, expr
        assert len(samples) == len(DEFAULT_ZETAS) == 8
        for s in samples:
            assert s.re_g_min >= 0.5 - 1e-6, (expr, s.zeta)
            assert s.sup_h <= 1.0 + 1e-9, (expr, s.zeta)
            assert s.slack >= -1e-9, (expr, s.zeta)


def test_halfplane_is_the_unimodular_equality_case():
    _, samples = proof_machinery_check(Halfplane(-1.0))
    for s in samples:
        assert abs(s.sup_h - 1.0) < 1e-9
        assert abs(s.inf_h - 1.0) < 1e-9


# 7. normalization

def test_normalized_forms_of_halfplane_and_tangent_disk():
    zs = disk_points(5, 400)
    dev_h = np.abs(normalize_values(Halfplane(-1.0), zs) - zs)
    assert np.max(dev_h) < 1e-10
    l_vals = jet_eval(Strip(), zs).f0
    dev_m = np.abs(normalize_values(MobiusOfStrip(0.25), zs) - l_vals)
    assert np.max(dev_m) < 1e-10


def test_normalized_sup_below_one_on_convex_fixtures(catalog):
    for name in certified_names(catalog):
        got = normalized_sup(catalog[name].expr)
        assert got.sup < 1.0, (name, got.sup)
        assert got.interior_ok, name


def test_disk_normalized_sup_half():
    got = normalized_sup(Disk(0.5))
    assert got.sup <= 0.5 + 1e-6


def test_strip_shift_clusters_at_two_boundary_points():
    got = near_one_clusters(StripShift(0.7))
    assert got.count == 2
    assert not got.whole_ring


# 8. omitted-value distance detector

def test_delta_large_on_genuinely_bounded_reflections(catalog):
    for name in ("halfplane", "disk", "sector"):
        report = delta_f(catalog[name].expr)
        assert report.value >= 0.1, (name, report.value)


def test_delta_halfplane_value():
    report = delta_f(Halfplane(-1.0))
    assert abs(report.value - 0.5) < 1e-3


def test_delta_vanishes_on_strip_conjugates(catalog):
    for name in ("strip", "mobius-of-strip"):
        report = delta_f(catalog[name].expr, passes=3)
        assert report.value <= 1e-2, (name, report.value)


@pytest.mark.xfail(
    strict=True,
    reason="the shifted strip map is not strip-conjugate: it omits a "
           "finite value at distance about 0.55 from its image, so its "
           "delta cannot drop to the 1e-2 collapse threshold",
)
def test_delta_vanishes_on_shifted_strip():
    report = delta_f(StripShift(0.7), passes=3)
    assert report.value <= 1e-2


# 9. quasidisk dichotomy

def test_exact_reflection_fixtures_keep_ratio_near_one(ratio_reports):
    for name in ("identity", "halfplane"):
        assert ratio_reports[name].c_estimate >= 0.9, name


def test_sector_c_estimate_stable_across_ring_subsets():
    ests = []
    for rings in ((0.99,), (0.99, 0.999), (0.99, 0.999, 0.9995)):
        ests.append(quasidisk_ratio_scan(SectorReal(0.5), rings=rings).c_estimate)
    spread = (max(ests) - min(ests)) / min(ests)
    assert spread < 0.10, ests


def test_tangent_disk_ratio_collapse(ratio_reports):
    profile = ratio_reports["mobius-of-strip"]
    ratios = profile.inf_ratio_per_ring
    assert ratios[-1] < 0.05
    assert ratios[-1] < 0.5 * ratios[0]
    assert profile.collapsed


def test_omission_verdicts_agree_with_ratio_verdicts(ratio_reports,
                                                     omission_reports):
    compared = 0
    for name, ratio in ratio_reports.items():
        if ratio is None:
            # the strip refuses the ratio scan (axis reflects to
            # infinity); the omission scan still runs and stays safe
            assert not omission_reports[name].collapsed
            continue
        assert ratio.collapsed == omission_reports[name].collapsed, name
        compared += 1
    assert compared == 7


# 10. tangent-disk family demo

def test_tangent_disk_family_normalizes_to_strip():
    from awr.quasidisk import lemma32_demo

    rows = lemma32_demo(a_sequence=(0.25, 0.01, 0.25j))
    assert len(rows) == 3
    for row in rows:
        assert row.sup_norm_dev < 1e-10, row.a
        assert row.delta < 1e-2, row.a


# 11. CLI determinism and contract

def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = int(exc.code)
    return code, out.getvalue()


def test_fifty_grammar_round_trips():
    assert len(GRAMMAR_CASES) == 50
    for text in GRAMMAR_CASES:
        expr = parse_expr(text)
        assert parse_expr(format_expr(expr)) == expr, text


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    payloads = []
    for tag in ("x", "y"):
        path = tmp_path / f"{tag}.csv"
        code, _ = run_cli(["reflect", "--map", "sector(a=0.5)",
                           "--z", "0.2+0.3i", "--seed", "11",
                           "--csv", str(path)])
        assert code == 0
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]


def test_exit_code_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["certify", "--map", "strip"])
    assert code == 0 and "sup = 2.000000" in out
    code, out = run_cli(["reflect", "--map", "identity", "--z", "0.5+0i"])
    assert code == 0 and "r = 2+0i" in out
    code, out = run_cli(["quasidisk", "--map", "mobius-of-strip(a=0.25+0i)",
                         "--rings", "0.99,0.999,0.9995"])
    assert code == 1
    assert os.path.exists(cli.QUASIDISK_CSV_DEFAULT)
    code, _ = run_cli(["certify", "--map", "strip(("])
    assert code == 2
    code, _ = run_cli(["quasidisk", "--map", "strip"])
    assert code == 2


def test_catalog_command_passes_whole_suite():
    code, out = run_cli(["catalog"])
    assert code == 0
    assert "all_passed = True" in out
    assert len(FIXTURE_EXPRS) == 8


def test_readme_quickstart_prints_its_commented_values(capsys):
    """The README's Python block runs, and each print shows the value its
    `# value` comment names (the comment's first word, less a colon)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    wanted = [line.split("#", 1)[1].split()[0].rstrip(":")
              for line in block.splitlines() if line.startswith("print(")]
    assert len(wanted) == 3
    assert printed == wanted
