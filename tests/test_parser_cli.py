"""Map-expression grammar, pretty-printer round-trips, and the command
line contract: report lines, CSV determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAMMAR_CASES, SRC, fresh_python, run

from awr import catalog, cli, convexity, errors, evaluate, quasidisk, reflection, svgplot
from awr.errors import BadParam, MapSyntaxError, ParamOutOfRange, UnknownName
from awr.catalog import CONVEXITY_ANGLES, CONVEXITY_RINGS
from awr.convexity import COEFF_ANGLES, COEFF_RINGS
from awr.extended import is_infinite
from awr.expr import NODES, Disk, Identity, Koebe, MapExpr, SectorAuto, Strip, StripShift
from awr.grids import (DEFAULT_ANGLES, DEFAULT_RINGS, MAX_GRID_POINTS, MAX_LIST_VALUES, MAX_PASSES,
                       GridMeta, polar)
from awr.nehari import CERT_ANGLES, CERT_RINGS
from awr.parser import format_complex, format_expr, parse_complex, parse_expr
from awr.quasidisk import (
    DELTA_ANGLES,
    DELTA_RINGS,
    NORM_ANGLES,
    NORM_RINGS,
    RATIO_ANGLES,
    RATIO_RINGS,
    quasidisk_ratio_scan,
)


# parser basics

def test_bare_names():
    assert parse_expr("strip") == Strip()
    assert parse_expr("identity()") is not None


def test_nested_koebe_case():
    got = parse_expr("koebe(strip, z0=0.7+0i)")
    assert got == Koebe(Strip(), 0.7 + 0j)


def test_sector_auto_case():
    assert parse_expr("sector-auto(a=0.5+0i)") == SectorAuto(0.5 + 0j)


def test_whitespace_and_case_insensitive():
    a = parse_expr("koebe(strip, z0=0.7+0i)")
    assert parse_expr("  KOEBE ( STRIP , Z0 = 0.7+0i )  ") == a
    assert parse_expr("Disk(X=0.5)") == Disk(0.5)


def test_real_param_accepts_bare_real():
    assert parse_expr("disk(x=0.5)") == Disk(0.5)
    assert parse_expr("strip-shift(x=0.7)") == StripShift(0.7)


def test_complex_literals():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("-1") == -1.0
    assert parse_complex("0.25+0.5i") == 0.25 + 0.5j
    assert parse_complex("1-2i") == 1.0 - 2.0j
    assert parse_complex("0+0.25i") == 0.25j
    assert parse_complex("1e-3+2.5e2i") == 1e-3 + 250j


def test_imaginary_part_needs_explicit_sign():
    with pytest.raises(MapSyntaxError):
        parse_complex("0.25i")
    with pytest.raises(MapSyntaxError):
        parse_expr("sector-auto(a=0.5i)")


def test_format_complex():
    assert format_complex(2.0 + 0.0j) == "2+0i"
    assert format_complex(-1.0 + 0.0j) == "-1+0i"
    assert format_complex(0.25j) == "0+0.25i"
    assert format_complex(0.5 - 0.5j) == "0.5-0.5i"
    assert format_complex(-0.0 + 0.0j) == "0+0i"


def test_format_expr_canonical():
    assert format_expr(parse_expr("  STRIP ( )")) == "strip"
    assert format_expr(parse_expr("disk( x = 0.5 )")) == "disk(x=0.5)"
    assert (format_expr(parse_expr("koebe(strip,z0=0.7+0i)"))
            == "koebe(strip, z0=0.7+0i)")


# error reporting

def test_syntax_error_carries_offset():
    with pytest.raises(MapSyntaxError) as info:
        parse_expr("disk(x=0.5")
    assert info.value.offset == len("disk(x=0.5")
    with pytest.raises(MapSyntaxError) as info:
        parse_expr("disk(x=0.5) trailing")
    assert info.value.offset == len("disk(x=0.5) ")


@pytest.mark.parametrize("text, message, offset", [
    ("disk(x=)", "expected a number", 7),
    ("koebe(z0=0.3+0i, strip)", "inner map must be the first argument", 17),
])
def test_refusal_names_its_offset(text, message, offset):
    """A key with no number, and an inner map after a parameter, are refused
    at the offending character."""
    with pytest.raises(MapSyntaxError) as info:
        parse_expr(text)
    assert info.value.offset == offset
    assert str(info.value) == f"{message} (at offset {offset})"


def test_unknown_name():
    with pytest.raises(UnknownName):
        parse_expr("wedge(a=0.5)")


def test_bad_param_key():
    with pytest.raises(BadParam) as info:
        parse_expr("disk(radius=0.5)")
    assert "radius" in str(info.value)
    with pytest.raises(BadParam):
        parse_expr("disk(x=0.5, x=0.6)")
    with pytest.raises(BadParam):
        parse_expr("disk()")
    with pytest.raises(BadParam):
        # complex value for a real-only parameter
        parse_expr("disk(x=0.5+0.5i)")


def test_out_of_range_param_propagates():
    with pytest.raises(ParamOutOfRange):
        parse_expr("sector(a=1.5)")
    with pytest.raises(ParamOutOfRange):
        parse_expr("halfplane(c=0.5+0i)")


def test_oversized_text_rejected():
    text = "identity" + " " * 5000
    with pytest.raises(MapSyntaxError) as info:
        parse_expr(text)
    assert info.value.offset == 4096


@pytest.mark.parametrize("text", GRAMMAR_CASES)
def test_round_trip_identity(text):
    first = parse_expr(text)
    printed = format_expr(first)
    assert parse_expr(printed) == first
    # canonical form is a fixed point of the printer
    assert format_expr(parse_expr(printed)) == printed


def test_grammar_case_count():
    assert len(GRAMMAR_CASES) == 50
    assert len(set(GRAMMAR_CASES)) == 50


# Every node of the grammar, driven from expr.NODES: a valid argument
# list per node, and the value ranges the random trees draw from.
NODE_ARGS = {
    "identity": (),
    "disk": (("x", "0.5"),),
    "halfplane": (("c", "-1+0i"),),
    "sector": (("a", "0.5"),),
    "sector-auto": (("a", "0.5+0.1i"),),
    "strip": (),
    "strip-shift": (("x", "0.7"),),
    "mobius-of-strip": (("a", "0.25+0i"),),
    "koebe": (("z0", "0.3-0.2i"),),
    "mobius-shift": (),
    "affine": (("a", "2+0i"), ("b", "0+1i")),
}


def _node_text(name, inner, args):
    parts = [inner] if inner else []
    parts += [f"{key}={value}" for key, value in args]
    return f"{name}({', '.join(parts)})"


def _node_refusals():
    for name, node in sorted(NODES.items()):
        args = NODE_ARGS[name]
        inner = "strip" if node.NESTS else None
        yield name, "unknown-key", _node_text(name, inner, args + (("w", "0.5"),))
        yield name, "duplicate-key", _node_text(name, inner, args + (args or (("w", "0.5"),))[:1])
        wrong = None if node.NESTS else "strip"
        yield name, "inner-" + ("missing" if node.NESTS else "unwanted"), _node_text(name, wrong, args)
        if args:
            yield name, "missing-key", _node_text(name, inner, args[1:])
        for key, value in args:
            if "i" not in value:  # a real-only key
                yield name, "complex-for-real", _node_text(name, inner, tuple(
                    (k, "0.5+0.5i" if k == key else v) for k, v in args))


NODE_REFUSALS = list(_node_refusals())


def _concrete_nodes(cls=MapExpr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_nodes(sub)


def test_every_node_class_is_in_nodes_under_a_unique_name():
    classes = list(_concrete_nodes())
    names = [cls.NAME for cls in classes]
    assert len(set(names)) == len(names) == len(NODES)
    assert all(NODES[cls.NAME] is cls for cls in classes)
    assert set(NODE_ARGS) == set(NODES)


@pytest.mark.parametrize("name", sorted(NODES))
def test_every_node_parses_its_keys_in_field_order(name):
    node = NODES[name]
    keys = tuple(key for key, _ in NODE_ARGS[name])
    assert keys == tuple(field.lower() for field, _ in node.KINDS)
    # a real-only key is the one whose sample value is written without "i"
    assert [kind is float for _, kind in node.KINDS] == ["i" not in v for _, v in NODE_ARGS[name]]
    text = _node_text(name, "strip" if node.NESTS else None, NODE_ARGS[name])
    expr = parse_expr(text)
    assert type(expr) is node
    assert format_expr(expr) == (text if NODE_ARGS[name] or node.NESTS else name)


def test_every_refusal_kind_is_exercised():
    kinds = {kind for _, kind, _ in NODE_REFUSALS}
    assert kinds == {"unknown-key", "duplicate-key", "inner-missing", "inner-unwanted",
                     "missing-key", "complex-for-real"}


@pytest.mark.parametrize("name,kind,text", NODE_REFUSALS,
                         ids=[f"{name}-{kind}" for name, kind, _ in NODE_REFUSALS])
def test_every_node_refuses_bad_arguments(name, kind, text):
    with pytest.raises(BadParam):
        parse_expr(text)


def _unit_times(radius):
    return st.tuples(radius, st.floats(-math.pi, math.pi)).map(lambda p: polar(*p))


NODE_VALUES = {
    ("disk", "x"): st.floats(-0.99, 0.99),
    ("halfplane", "c"): _unit_times(st.just(1.0)),
    ("sector", "a"): st.floats(0.01, 0.99),
    ("sector-auto", "a"): _unit_times(st.floats(0.0, 0.99)),
    ("strip-shift", "x"): st.floats(0.01, 0.99),
    ("mobius-of-strip", "a"): _unit_times(st.floats(0.01, 100.0)),
    ("koebe", "z0"): _unit_times(st.floats(0.0, 0.99)),
    ("affine", "a"): _unit_times(st.floats(1e-3, 1e3)),
    ("affine", "b"): st.complex_numbers(max_magnitude=1e3, allow_nan=False),
}


def map_trees(depth):
    """Trees of every node, at most depth levels deep."""
    options = []
    for name, node in sorted(NODES.items()):
        if node.NESTS and depth == 1:
            continue
        parts = [map_trees(depth - 1)] if node.NESTS else []
        parts += [NODE_VALUES[name, field.lower()] for field, _ in node.KINDS]
        options.append(st.tuples(*parts).map(lambda args, node=node: node(*args)))
    return st.one_of(options)


@settings(max_examples=300, deadline=None)
@given(map_trees(3))
def test_format_then_parse_is_the_identity_on_random_trees(expr):
    assert expr.depth() <= 3
    printed = format_expr(expr)
    assert parse_expr(printed) == expr
    assert format_expr(parse_expr(printed)) == printed


# CLI contract

def test_certify_strip_report():
    code, out, _ = run(["certify", "--map", "strip"])
    assert code == 0
    lines = dict(
        line.split(" = ", 1) for line in out.strip().splitlines()
    )
    assert lines["sup"] == "2.000000"
    assert lines["passed"] == "True"
    assert lines["map"] == "strip"


def test_reflect_identity_report():
    code, out, _ = run(["reflect", "--map", "identity", "--z", "0.5+0i"])
    assert code == 0
    assert "r = 2+0i" in out.splitlines()


def test_quasidisk_collapse_exit_and_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run([
        "quasidisk", "--map", "mobius-of-strip(a=0.25+0i)",
        "--rings", "0.99,0.999,0.9995",
    ])
    assert code == 1
    assert "collapsed = True" in out
    assert os.path.exists(cli.QUASIDISK_CSV_DEFAULT)


def test_csv_outputs_are_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for path in (p1, p2):
        code, _, _ = run([
            "reflect", "--map", "disk(x=0.5)", "--z", "0.3+0.1i",
            "--seed", "7", "--csv", str(path),
        ])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"z_re,z_im,w_re,w_im")


def test_certify_csv_deterministic(tmp_path):
    p1 = tmp_path / "c1.csv"
    p2 = tmp_path / "c2.csv"
    for path in (p1, p2):
        run(["certify", "--map", "sector(a=0.5)", "--csv", str(path)])
    assert p1.read_bytes() == p2.read_bytes()


def test_certify_default_angle_count_keeps_the_default_grid():
    """--angles 4096 names the default angle count, so the report must be
    the plain run's; on this map the refined sup point moves when the
    ring at 0 is dropped."""
    text = "koebe(sector(a=0.5), z0=-0.2+0.1i)"
    assert run(["certify", "--map", text, "--angles", "4096"]) == run(["certify", "--map", text])


def test_grid_fallback_is_the_scan_default():
    parser = cli.build_parser()
    for command, default in (("certify", (CERT_RINGS, CERT_ANGLES)),
                             ("normalize", (NORM_RINGS, NORM_ANGLES)),
                             ("delta", (DELTA_RINGS, DELTA_ANGLES))):
        args = parser.parse_args([command, "--map", "identity"])
        assert (args.rings, args.angles) == default


def test_exit_zero_on_passing_fixtures():
    for text in ("identity", "disk(x=0.5)", "sector(a=0.5)"):
        code, _, _ = run(["certify", "--map", text])
        assert code == 0, text


def test_certify_passes_even_on_tangent_disk():
    # post-composition with a Mobius map cannot change the Schwarzian,
    # so even the collapsing map satisfies the weighted bound exactly
    code, out, _ = run(["certify", "--map", "mobius-of-strip(a=0.25+0i)"])
    assert code == 0
    assert "sup = 2.000000" in out


def test_exit_one_on_failed_certification():
    code, _, _ = run(["normalize", "--map", "mobius-of-strip(a=0.25+0i)"])
    assert code == 1
    code, out, _ = run(["omission-scan", "--map", "mobius-of-strip(a=0.25+0i)"])
    assert code == 1
    assert "collapsed = True" in out


def test_exit_one_when_convexity_guard_trips():
    code, out, _ = run(["mediatrix-scan", "--map", "mobius-of-strip(a=0.25+0i)"])
    assert code == 1
    assert "convexity_certified = False" in out


@pytest.mark.parametrize("command", ["mediatrix-scan", "coeff-bound", "proof-check"])
@pytest.mark.parametrize("text, sampled", [
    # a crescent between two circles tangent at the cusp
    ("mobius-of-strip(a=0+1e-3i)", "1.284782e-06"),
    # the pole -1/a is at tanh(-100), which rounds to -1: infinity is in the image
    ("mobius-of-strip(a=1e-2+0i)", "9.219930e-04"),
])
def test_the_gate_refuses_images_that_are_not_convex(command, text, sampled):
    """The sampled Re(1 + z f''/f') stays positive on these two maps, and
    a threshold on it certified them; the closed-form verdict refuses them
    as it refuses mobius-of-strip(a=0.25+0i), and prints the sample."""
    code, out, err = run([command, "--map", text])
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == ["convexity_certified = False", f"convexity_min = {sampled}"]


def test_an_accepted_request_draws_no_convexity_sample(monkeypatch):
    """Domain.convex alone decides the gate: with the sampled check made to
    fail, an accepted request prints its golden bytes."""
    monkeypatch.setattr(catalog, "validate_convexity", lambda *a: pytest.fail("the sample was drawn"))
    golden = json.loads((SRC.parent / "bench" / "goldens.json").read_text())["cli"]["coeff-bound.disk"]
    assert run(["coeff-bound", "--map", "disk(x=0.5)"]) == (golden["exit"], golden["stdout"], "")


def test_a_refused_request_draws_the_convexity_sample_once(monkeypatch):
    """A refusal prints the sampled convexity_min, from one draw."""
    calls = []
    sample = catalog.validate_convexity
    monkeypatch.setattr(catalog, "validate_convexity", lambda expr: calls.append(expr) or sample(expr))
    code, out, err = run(["coeff-bound", "--map", "mobius-of-strip(a=0+1e-3i)"])
    assert (code, err, len(calls)) == (1, "", 1)
    assert out.splitlines()[1:] == ["convexity_certified = False", "convexity_min = 1.284782e-06"]


def test_exit_two_on_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["certify", "--map", "strip("])
    assert code == 2
    assert "offset" in err
    code, _, err = run(["certify", "--map", "wedge(a=0.5)"])
    assert code == 2
    code, _, _ = run(["reflect", "--map", "identity"])  # missing --z
    assert code == 2
    # ill-posed request: ratio scan on a strip-conjugate map
    code, _, err = run(["quasidisk", "--map", "strip"])
    assert code == 2
    assert "DegenerateDomain" in err


@pytest.mark.parametrize("argv,message", [
    (["certify", "--map", "identity", "--rings", "0.5,abc"], "bad ring list"),
    (["delta", "--map", "disk(x=0.5)", "--passes", "x"], "bad pass count"),
    (["reflect", "--map", "identity", "--z", "1+i"], "bad number literal"),
])
def test_malformed_flag_values_exit_two(argv, message):
    """A ring list, pass count or probe point that does not parse is
    refused by argparse itself."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", ["delta", "omission-scan"])
def test_negative_passes_exit_two(command):
    code, out, err = run([command, "--map", "identity", "--passes", "-5"])
    assert code == 2
    assert out == ""
    assert "--passes" in err
    code, out, _ = run([command, "--map", "identity", "--passes", "0"])
    assert code == 0
    # over the cap: refused before any work, also on the strip, whose
    # deep probes overflow to NaN from pass 341 on
    for expr in ("identity", "strip"):
        code, out, err = run([command, "--map", expr, "--passes", str(MAX_PASSES + 1)])
        assert code == 2
        assert out == ""
        assert f"cap of {MAX_PASSES}" in err


def test_proof_check_near_the_origin_exits_two():
    """The half-plane is the equality case, with slack exactly 0; at
    zeta = 1e-4 rounding read -1.3e-8 and the check exited 1."""
    code, out, err = run(["proof-check", "--map", "halfplane(c=-1+0i)", "--zetas=0.0001+0i"])
    assert (code, out) == (2, "")
    assert err.startswith("error: BadParam: |zeta| = 0.0001")
    code, out, _ = run(["proof-check", "--map", "halfplane(c=-1+0i)", "--zetas=0.01+0i"])
    assert code == 0 and out.endswith("passed = True\n")


@pytest.mark.parametrize("argv", [
    ["proof-check", "--map", "disk(x=0.5)", "--zetas", ""],
    ["proof-check", "--map", "disk(x=0.5)", "--zetas", " , "],
    ["lemma32", "--a-list", ""],
])
def test_empty_sample_list_exits_two(argv):
    """An empty --zetas or --a-list is refused like an empty --rings,
    instead of passing over zero samples."""
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "needs at least one value" in err


def _values(n):
    """n distinct comma-separated complex literals in the disk."""
    return ",".join(f"{0.3 + 0.005 * k:.3f}+0.1i" for k in range(n))


@pytest.mark.parametrize("flag,argv,scan", [
    ("zetas", ["proof-check", "--map", "disk(x=0.5)"], (convexity, "proof_machinery_check")),
    ("a_list", ["lemma32"], (quasidisk, "lemma32_demo")),
])
def test_sample_lists_are_capped(flag, argv, scan, monkeypatch):
    """A --zetas or --a-list of MAX_LIST_VALUES values is read whole; one
    more is refused with exit 2 and one error line before any scan runs
    (a lemma32 value takes about 34 ms, and one argument can hold some
    12,000 values)."""
    option = "--" + flag.replace("_", "-")
    args = cli.build_parser().parse_args(argv + [f"{option}={_values(MAX_LIST_VALUES)}"])
    assert len(getattr(args, flag)) == MAX_LIST_VALUES
    monkeypatch.setattr(*scan, lambda *a: pytest.fail("the scan ran"))
    code, out, err = run(argv + [f"{option}={_values(MAX_LIST_VALUES + 1)}"])
    assert (code, out) == (2, "")
    assert err == f"error: BadParam: {MAX_LIST_VALUES + 1} values exceed the cap of {MAX_LIST_VALUES}\n"


def test_proof_check_runs_at_the_list_cap():
    code, out, err = run(["proof-check", "--map", "disk(x=0.5)", f"--zetas={_values(MAX_LIST_VALUES)}"])
    assert (code, err) == (0, "")
    assert f"n_zetas = {MAX_LIST_VALUES}\n" in out


HUGE_STRIP = "mobius-of-strip(a=1e103+0i)"
HUGE_SHIFT = "mobius-shift(affine(sector(a=0.5), a=1e308+0i, b=0+0i))"
TINY_SECTOR = "affine(sector(a=0.5), a=1e-320+0i, b=0+0i)"
# f'(0) = 1e-310 is subnormal, and c = a2/f'(0)^2 = 0.5/1e-310 overflows
SUBNORMAL_SECTOR = "affine(sector(a=0.5), a=1e-310+0i, b=0+0i)"
# f'(0) = 1e-250 is normal, but c = -1e70/1e-250 overflows
HUGE_C = "affine(mobius-of-strip(a=1e70+0i), a=1e-250+0i, b=0+0i)"
# f'(z0) = 1e-320 is not 0, but (1 - |z0|^2) f'(z0), the renormalization divisor, rounds to 0
TINY_KOEBE = "koebe(affine(identity, a=1e-320+0i, b=0+0i), z0=0+0.9999999999999999i)"
OUT_OF_RANGE_REQUESTS = [
    *(["reflect", "--map", m, "--z", "0.3+0.4i"] for m in (HUGE_STRIP, HUGE_SHIFT)),
    *([c, "--map", HUGE_STRIP] for c in ("normalize", "delta", "quasidisk", "omission-scan")),
    *([c, "--map", HUGE_SHIFT] for c in ("coeff-bound", "proof-check", "normalize", "delta",
                                          "quasidisk", "omission-scan", "mediatrix-scan")),
    # f'' overflows at 13 probes from z = 0.9995 to 0.9999 of the sector scaled by 1e300, which
    # evaluate.jet_eval refuses; the scan passed on the probes left (min_margin = 0.004588, the
    # sector's 0.001905)
    *(["mediatrix-scan", "--map", m] for m in (TINY_SECTOR, "affine(identity, a=1e-300+0i, b=1e300+0i)",
                                                TINY_KOEBE, "affine(sector(a=0.5), a=1e300+0i, b=0+0i)")),
    ["omission-scan", "--map", TINY_SECTOR],
    ["normalize", "--map", f"koebe({TINY_SECTOR}, z0=0.9999999999999999+0i)"],
    *(["proof-check", "--map", m] for m in (
        "sector(a=1e-300)", "strip-shift(x=0.9999999999999999)", "koebe(strip, z0=0+0.9999999999999999i)",
        "koebe(affine(sector(a=0.5), a=1e-200+0i, b=0+0i), z0=0+0.9999999999999999i)")),
    ["lemma32", "--a-list=1e308+0i"],
    ["coeff-bound", "--map", TINY_SECTOR],
    # a subnormal f'(0): evaluate.normalization's range rule
    ["quasidisk", "--map", "affine(identity, a=1e-320+0i, b=0+0i)"],
    ["reflect", "--map", SUBNORMAL_SECTOR, "--z", "0.3+0.4i"],
    *([c, "--map", SUBNORMAL_SECTOR] for c in ("coeff-bound", "proof-check", "delta", "quasidisk")),
    ["svg", "--map", SUBNORMAL_SECTOR, "--svg", os.devnull],
    ["delta", "--map", HUGE_C],
    # a jet that leaves double range inside the disk (evaluate.jet_eval's range rule); each scan
    # reported on the samples left: collapsed = False, where the tangent-disk map collapses;
    # inf_ratio[0.999000] = 1.046796, where the half-plane reads 1.000000; sup = inf; cluster_count
    # = 1, where the sector reads 2; a RuntimeWarning; and, from proof-check's own jet algebra
    # past jet_eval, zeta0.slack = nan
    *(["quasidisk", "--map", f"affine({m}, a=1e300+0i, b=0+0i)"]
      for m in ("mobius-of-strip(a=0.25+0i)", "halfplane(c=-1+0i)")),
    ["certify", "--map", "affine(strip-shift(x=0.7), a=1e304+0i, b=0+0i)"],
    ["normalize", "--map", "affine(sector-auto(a=0.5+0i), a=1e306+0i, b=0+0i)"],
    ["quasidisk", "--map", "affine(sector-auto(a=0.5+0.3i), a=1e306+0i, b=0+0i)"],
    ["omission-scan", "--map", "affine(halfplane(c=-1+0i), a=1e306+0i, b=0+0i)"],
    ["proof-check", "--map", "affine(identity, a=1.1235582092889474e+307+0i, b=0+0i)"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_REQUESTS, ids=[" ".join(a) for a in OUT_OF_RANGE_REQUESTS])
def test_numbers_out_of_double_range_exit_two(argv):
    """A request whose values overflow, underflow to 0 or leave no finite
    sample is ill-posed: exit 2, nothing on stdout, and stderr is one
    error line that names the library error.  These used to end in a
    traceback, and the last one certified a map with every convexity
    sample masked."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert issubclass(getattr(errors, line.split(":")[1].strip()), errors.AwrError)


def library_out_of_range():
    """(id, call) of the library calls behind the out-of-range requests."""
    for text in (HUGE_STRIP, HUGE_SHIFT):
        expr = parse_expr(text)
        yield f"reflect {text}", lambda e=expr: reflection.reflect(e, 0.3 + 0.4j)
        yield f"normalize_values {text}", lambda e=expr: quasidisk.normalize_values(e, np.array([0.4j]))
        yield f"taylor {text}", lambda e=expr: evaluate.taylor(e)
    for text in (argv[2] for argv in OUT_OF_RANGE_REQUESTS if argv[0] == "proof-check"):
        expr = parse_expr(text)
        yield f"proof_machinery_check {text}", lambda e=expr: convexity.proof_machinery_check(e)
    yield "lemma32_demo 1e308+0i", lambda: quasidisk.lemma32_demo([1e308 + 0j])
    koebe = parse_expr(TINY_KOEBE)
    yield f"array jet_eval {TINY_KOEBE}", lambda: evaluate.jet_eval(koebe, np.array([0.1j, 0.5 + 0j]))
    yield f"normal_form {TINY_KOEBE}", lambda: evaluate.normal_form(koebe)


LIBRARY_OUT_OF_RANGE = dict(library_out_of_range())


@pytest.mark.parametrize("call", LIBRARY_OUT_OF_RANGE.values(), ids=LIBRARY_OUT_OF_RANGE)
def test_library_raises_an_awr_error_out_of_double_range(call):
    """A caller of the library that catches AwrError sees the ill-posed
    inputs the CLI refuses with exit 2, never an ArithmeticError."""
    with pytest.raises(errors.AwrError):
        call()


SUBNORMAL_SCALES = (SUBNORMAL_SECTOR, "affine(identity, a=1e-320+0i, b=0+0i)")
NORMALIZING_RULES = {
    "coefficient_bound_scan": convexity.coefficient_bound_scan,
    "proof_machinery_check": convexity.proof_machinery_check,
    "delta_f": quasidisk.delta_f,
    "reflect": lambda expr: reflection.reflect(expr, 0.3 + 0.4j),
    "quasidisk_ratio_scan": quasidisk.quasidisk_ratio_scan,
    "mediatrix_scan": convexity.mediatrix_scan,
}


@pytest.mark.parametrize("text", SUBNORMAL_SCALES)
@pytest.mark.parametrize("rule", NORMALIZING_RULES)
def test_a_rule_refuses_a_scale_it_cannot_normalize(rule, text):
    """A subnormal f'(0) cannot be normalized.  On the 1e-310 sector the rules
    read inf_lhs = -inf, zeta0.slack = nan, r = nan+nani and delta =
    3.952525e-323, where the sector's delta 1.000224 scales to 1.000224e-310;
    on the 1e-320 identity delta read a chordal 2.000000."""
    with pytest.raises(errors.OutOfDoubleRange, match="not a normal double"):
        NORMALIZING_RULES[rule](parse_expr(text))


def test_normalization_refuses_a_c_out_of_double_range():
    """delta read 9.999889e-321 on HUGE_C, the distance to an omitted
    point f(0) - 1/c that rounds to f(0)."""
    with pytest.raises(errors.OutOfDoubleRange, match=r"c = a2/f'\(0\)\^2"):
        evaluate.normalization(parse_expr(HUGE_C))


@pytest.mark.parametrize("argv,inner", [
    *((["mediatrix-scan", "--map", f"affine(halfplane(c=-1+0i), a={a}+0i, b=0+0i)"],
       ["mediatrix-scan", "--map", "halfplane(c=-1+0i)"]) for a in ("1e-160", "1e-170", "1e160")),
    (["quasidisk", "--map", "affine(disk(x=0.5), a=1e160+0i, b=0+0i)", "--csv", ""],
     ["quasidisk", "--map", "disk(x=0.5)", "--csv", ""]),
])
def test_a_scaled_map_scans_as_its_inner_map(argv, inner):
    """The geometric scans measure at the map's own scale
    (`evaluate.at_own_scale`).  They measured at the raw one: the mediatrix
    scan checked 7,871 of 16,384 probes at 1e-160 and exited 2 at 1e-170
    and 1e160, and the ratio scan exited 2 with every sample masked."""
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == run(inner)[1].splitlines()[1:]


@pytest.mark.parametrize("j", (-980, -1000))
def test_the_exact_ratio_reads_at_the_maps_own_scale(j):
    """The exact ratios measure the own-scale probes against the image divided
    by the same power of two.  They measured the raw probes: at 2^-980 and
    2^-1000 the tangent-disk map read exact_ratio[0.990000] = 1.266185e-14,
    where the map itself reads 2.108621e-30."""
    inner = "mobius-of-strip(a=0.25+0i)"
    code, out, err = run(["quasidisk", "--map", f"affine({inner}, a={math.ldexp(1.0, j)!r}+0i, b=0+0i)",
                          "--csv", ""])
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == run(["quasidisk", "--map", inner, "--csv", ""])[1].splitlines()[1:]
    assert "exact_ratio[0.990000] = 2.108621e-30" in out.splitlines()


def test_a_mediatrix_scan_past_the_square_range_checks_every_probe():
    """|w - R_w|^2 overflowed at a scale of 1e200, and the scan exited 2.  1e200
    is not a power of two, so probe_at and base_at may name another of the
    identity's rotation-symmetric ties."""
    code, out, err = run(["mediatrix-scan", "--map", "affine(identity, a=1e200+0i, b=0+0i)"])
    assert (code, err) == (0, "")
    assert {"min_margin = 0.466667", "n_checked = 16384", "passed = True"} <= set(out.splitlines())


def test_certify_runs_on_a_subnormal_scale():
    """The Nehari functional reads no normalization and is scale-free, so
    certify keeps the sector's value on a scale no normalization reaches."""
    code, out, err = run(["certify", "--map", SUBNORMAL_SECTOR])
    assert (code, err) == (0, "")
    assert "sup = 1.500000" in out.splitlines()


def test_a_scalar_jet_with_a_field_out_of_double_range_raises():
    """Python complex * and + overflow to inf or NaN without raising: with
    a = 1e103 and the shift by the raw a2, the jet at 0.3+0.4i had f2 = f3
    = nan+nanj, and reflect reported a vanishing derivative (CriticalPoint).
    The shift now reads the normalized map, which is well scaled there; at
    a = 1e308 the inner jet at 0 has f3 = 3e308."""
    expr = parse_expr(HUGE_SHIFT)
    for call in (evaluate.jet_eval, reflection.reflect):
        with pytest.raises(errors.OutOfDoubleRange):
            call(expr, 0.3 + 0.4j)
    code, _, err = run(["reflect", "--map", HUGE_SHIFT, "--z", "0.3+0.4i"])
    assert code == 2 and err.startswith("error: OutOfDoubleRange: ")


def test_chordal_delta_past_the_square_range_stays_off_stderr():
    """f reaches 1e300 and a2 = 0, so delta is chordal: it read 0 after an
    overflow warning, and the distance to infinity is 2/|f|, about 2e-300."""
    code, out, err = run(["delta", "--map", "affine(identity, a=1e300+0i, b=0+0i)"])
    assert (code, err) == (0, "")
    assert "delta = 2.000000e-300" in out.splitlines()


def test_coefficient_scan_overflow_stays_off_stderr():
    """f overflows near z = 1 on the grid, with no numpy warning, and the
    jet's range rule (`evaluate.jet_eval`) refuses it: exit 2 with one error
    line.  The half-plane scaled by 1e305 exited 0 with passed = True, only
    because the masked samples sat at the half-plane's point at infinity."""
    text = "affine(halfplane(c=-1+0i), a=1e305+0i, b=0+0i)"
    with pytest.raises(errors.OutOfDoubleRange, match="leaves double range"):
        evaluate.value(parse_expr(text), np.array([0.5, 0.9999]))
    code, out, err = run(["coeff-bound", "--map", text])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: OutOfDoubleRange: the jet at z = ")


def test_negative_real_part_needs_the_equals_form():
    code, _, err = run(["reflect", "--map", "identity", "--z", "-0.5+0.1i"])
    assert code == 2
    assert "expected one argument" in err
    code, out, _ = run(["reflect", "--map", "identity", "--z=-0.5+0.1i"])
    assert code == 0
    assert "z = -0.5+0.1i" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ["certify", "--map", "disk(x=0.5)", "--csv"],
    ["svg", "--map", "identity", "--svg"],
])
def test_unwritable_output_path_exits_two(argv, tmp_path):
    path = str(tmp_path / "missing" / "out")
    code, _, err = run(argv + [path])
    assert code == 2
    assert err.startswith("error: ")
    assert path in err


HUGE = "2000000000"


@pytest.mark.parametrize("argv", [
    ["certify", "--map", "identity", "--angles", HUGE],
    ["reflect", "--map", "identity", "--z", "0.5+0i", "--angles", HUGE],
    ["normalize", "--map", "disk(x=0.5)", "--angles", HUGE],
    ["delta", "--map", "identity", "--angles", HUGE],
    ["quasidisk", "--map", "identity", "--angles", HUGE],
    ["quasidisk", "--map", "identity", "--rings", "0.5,0.9,0.99",
     "--angles", str(MAX_GRID_POINTS // 3 + 1)],
    ["svg", "--map", "identity", "--svg", "out.svg", "--angles", HUGE],
])
def test_oversized_grid_exits_two_before_any_work(argv, monkeypatch):
    """Every grid flag is capped; the refusal comes before the command
    parses its map, so nothing is evaluated or allocated."""
    def refuse(_text):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "parse_expr", refuse)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert f"cap of {MAX_GRID_POINTS} grid points" in err


def test_grid_cap_sits_above_every_builtin_grid():
    builtin = [
        (DEFAULT_RINGS, DEFAULT_ANGLES), (CERT_RINGS, CERT_ANGLES),
        (CONVEXITY_RINGS, CONVEXITY_ANGLES), (COEFF_RINGS, COEFF_ANGLES),
        (NORM_RINGS, NORM_ANGLES), (DELTA_RINGS, DELTA_ANGLES),
        (RATIO_RINGS, RATIO_ANGLES),
        (range(64), 256),  # mediatrix_scan probe grid
    ]
    parser = cli.build_parser()
    for command in ("certify", "reflect", "normalize", "delta", "quasidisk", "svg"):
        args = parser.parse_args([command, "--map", "identity"])
        builtin.append((args.rings, args.angles))
    assert max(len(rings) * angles for rings, angles in builtin) < MAX_GRID_POINTS


def test_grid_cap_in_the_library():
    GridMeta(rings=(0.5,), angles=MAX_GRID_POINTS)
    with pytest.raises(BadParam):
        GridMeta(rings=(0.5, 0.9), angles=MAX_GRID_POINTS // 2 + 1)
    with pytest.raises(BadParam):
        quasidisk_ratio_scan(Identity(), angles=int(HUGE))


def test_catalog_survey_runs():
    code, out, _ = run(["catalog"])
    assert code == 0
    assert "all_passed = True" in out
    for name in ("identity", "strip-shift", "mobius-of-strip"):
        assert any(name in line for line in out.splitlines())


def test_lemma32_command():
    code, out, _ = run(["lemma32"])
    assert code == 0
    assert "passed = True" in out


def test_svg_written(tmp_path):
    path = tmp_path / "fig.svg"
    code, _, _ = run([
        "svg", "--map", "disk(x=0.5)", "--z", "0.3+0.1i",
        "--svg", str(path),
    ])
    assert code == 0
    blob = path.read_text()
    assert blob.startswith("<svg")
    assert "#1f6fd6" in blob and "#d62728" in blob


INF, NAN, CLIP = math.inf, math.nan, svgplot.COORD_CLIP


@pytest.mark.parametrize("z", [
    0.5 + 0.5j, complex(CLIP, 0.0), complex(0.0, -CLIP),
    complex(INF, 0.0), complex(-INF, 1.0), complex(0.0, INF), complex(2.0, -INF),
    complex(INF, INF), complex(NAN, 0.0), complex(0.0, NAN), complex(NAN, NAN),
    complex(INF, NAN), complex(NAN, -INF), complex(-INF, NAN),
    complex(math.nextafter(CLIP, INF), 0.0), complex(0.0, -math.nextafter(CLIP, INF)),
    complex(CLIP, 1.0),
])
def test_svg_scene_drops_what_is_infinite_drops(z):
    """A polyline and a dot keep a point by one rule: each drops
    infinite, NaN and clipped points."""
    scene = svgplot.SvgScene()
    scene.add_polyline([0j, z])
    scene.add_dot(z, svgplot.PROBE_COLOR)
    blob = scene.render()
    kept = not is_infinite(z) and abs(z) <= CLIP
    assert blob.count("<polyline") == kept
    assert blob.count("<circle") == kept


def test_svg_figure_has_no_masked_point(tmp_path):
    """A probe ring that rounds to |z| = 1 is masked: its probes and
    their reflections are left out of the figure, not drawn at nan."""
    path = tmp_path / "fig.svg"
    code, _, err = run(["svg", "--map", "disk(x=0.5)", "--rings", "0.5,0.9999999999999999",
                        "--angles", "64", "--svg", str(path)])
    assert (code, err) == (0, "")
    blob = path.read_text()
    assert "nan" not in blob
    assert blob.count("<circle") > 64


# The process entry: `python -m awr.cli` (and the installed `awr` script)
# runs cli.run, which freezes the heap after main returns.

ENTRY_REQUESTS = [
    (["delta", "--map", "disk(x=0.5)", "--csv", "out.csv"], 0),
    (["reflect", "--map", "disk(x=0.5)", "--z", "0.3+0.1i", "--csv", "out.csv"], 0),
    (["svg", "--map", "disk(x=0.5)", "--z", "0.3+0.1i", "--svg", "fig.svg"], 0),
    (["quasidisk", "--map", "mobius-of-strip(a=0.25+0i)", "--rings", "0.99,0.999,0.9995"], 1),
    (["certify", "--map", "sector(a=2)"], 2),
]


def awr_process(argv, cwd):
    """`python -m awr.cli ARGV` in a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "awr.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, want", ENTRY_REQUESTS, ids=[argv[0] for argv, _ in ENTRY_REQUESTS])
def test_process_entry_matches_main(argv, want, tmp_path, monkeypatch):
    """A fresh `python -m awr.cli` process gives main's exit code, stdout,
    stderr and output files, byte for byte."""
    inproc, proc = tmp_path / "main", tmp_path / "process"
    inproc.mkdir()
    proc.mkdir()
    monkeypatch.chdir(inproc)
    expected = run(argv)
    out = awr_process(argv, proc)
    assert expected[0] == want
    assert (out.returncode, out.stdout, out.stderr) == expected
    files = {p.name: p.read_bytes() for p in inproc.iterdir()}
    assert files == {p.name: p.read_bytes() for p in proc.iterdir()}
    assert bool(files) == (want < 2)


def test_only_the_process_entry_freezes_the_heap():
    """main leaves the collector's view of the heap alone; run freezes it."""
    code = ("import contextlib, gc, io, json, sys\n"
            "from awr import cli\n"
            "argv = ['delta', '--map', 'disk(x=0.5)', '--rings', '0.5', '--angles', '64']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv)]\n"
            "    counts = [gc.get_freeze_count()]\n"
            "    codes.append(cli.run(argv))\n"
            "counts.append(gc.get_freeze_count())\n"
            "print(json.dumps([codes, counts]), file=sys.stderr)\n")
    codes, (after_main, after_run) = json.loads(fresh_python(code))
    assert codes == [0, 0]
    assert after_main == 0 and after_run > 0


# run loads numpy (through a patched main) with the variable as the script
# leaves it, and reports the thread count and the variable's value
BLAS_SCRIPT = """
import json, os, sys
from awr import cli

def main(argv=None):
    import numpy  # noqa: F401
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None

cli.main = main
threads = cli.run([])
print(json.dumps([threads, os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc thread list")
def test_process_entry_starts_one_blas_thread():
    """With OPENBLAS_NUM_THREADS unset, run caps the pool before numpy loads:
    the process holds its main thread alone."""
    code = "import os\nos.environ.pop('OPENBLAS_NUM_THREADS', None)\n" + BLAS_SCRIPT
    assert json.loads(fresh_python(code)) == [1, "1"]


def test_process_entry_keeps_a_set_blas_thread_count():
    """A thread count the environment names is left as it is."""
    code = "import os\nos.environ['OPENBLAS_NUM_THREADS'] = '2'\n" + BLAS_SCRIPT
    assert json.loads(fresh_python(code))[1] == "2"


# Import scope: a request is one short process, so each subcommand loads
# only the scan modules it runs (see the cli module docstring).

SCOPE_SCRIPT = """
import json, sys
from awr import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("awr."))]), file=sys.stderr)
"""
# what `import awr.cli` loads: the parser, the grids and the error types,
# and none of the scans; every scan loads the jet layer and the normal form
CLI_BASE = {"awr.cli", "awr.errors", "awr.expr", "awr.grids", "awr.parser", "awr.record"}
JETS = {"awr.evaluate", "awr.extended", "awr.jets"}
CONVEX = {"awr.convexity", "awr.domain", "awr.reflection"}
QUASIDISK = {"awr.deepscan", "awr.domain", "awr.geometry", "awr.quasidisk", "awr.reflection"}
SCOPES = {
    "catalog": (["catalog"], {"awr.catalog", "awr.domain", "awr.nehari"}),
    "certify": (["certify", "--map", "sector(a=0.5)", "--angles", "64"], {"awr.nehari"}),
    "reflect": (["reflect", "--map", "disk(x=0.5)", "--z", "0.3+0.4i"], {"awr.reflection"}),
    "mediatrix-scan": (["mediatrix-scan", "--map", "disk(x=0.5)"], CONVEX),
    "coeff-bound": (["coeff-bound", "--map", "disk(x=0.5)"], CONVEX),
    "proof-check": (["proof-check", "--map", "disk(x=0.5)", "--zetas", "0.3+0i"], CONVEX),
    "normalize": (["normalize", "--map", "halfplane(c=-1+0i)", "--rings", "0.5",
                   "--angles", "64"], QUASIDISK),
    "delta": (["delta", "--map", "strip-shift(x=0.7)", "--rings", "0.5", "--angles", "64",
               "--passes", "1"], QUASIDISK),
    "quasidisk": (["quasidisk", "--map", "sector(a=0.5)", "--rings", "0.9", "--angles", "64",
                   "--csv", ""], QUASIDISK),
    "omission-scan": (["omission-scan", "--map", "disk(x=0.5)", "--passes", "1"], QUASIDISK),
    "lemma32": (["lemma32", "--a-list", "0.25+0i"], QUASIDISK),
    "svg": (["svg", "--map", "identity", "--z", "0.3+0i", "--svg", "fig.svg"],
            QUASIDISK | {"awr.convexity", "awr.svgplot"}),
}


def test_cli_import_loads_no_scan_module():
    code, loaded = json.loads(fresh_python(SCOPE_SCRIPT))
    assert code is None and set(loaded) == CLI_BASE


def test_cli_import_leaves_numpy_unloaded():
    """`import awr.cli` loads no numpy, and neither does a request refused at
    the parser: it exits 2 before any scan runs."""
    code = ("import json, sys\n"
            "import awr.cli\n"
            "before = 'numpy' in sys.modules\n"
            "code = awr.cli.main(['certify', '--map', 'sector(a=2)'])\n"
            "print(json.dumps([before, code, 'numpy' in sys.modules]), file=sys.stderr)\n")
    assert json.loads(fresh_python(code)) == [False, 2, False]


def test_parser_import_leaves_numpy_unloaded():
    """The grammar (parser, expression nodes, errors) needs no numpy, and the
    package itself imports nothing."""
    code = ("import json, sys\n"
            "import awr.parser\n"
            "print(json.dumps(['numpy' in sys.modules,"
            " sorted(m for m in sys.modules if m.startswith('awr'))]), file=sys.stderr)\n")
    numpy_loaded, loaded = json.loads(fresh_python(code))
    assert not numpy_loaded
    assert set(loaded) == {"awr", "awr.errors", "awr.expr", "awr.parser", "awr.record"}


@pytest.mark.parametrize("command", sorted(SCOPES))
def test_subcommand_loads_only_its_scans(command, tmp_path):
    argv, scans = SCOPES[command]
    code, loaded = json.loads(fresh_python(SCOPE_SCRIPT, argv, cwd=tmp_path))
    assert code == 0
    assert set(loaded) == CLI_BASE | JETS | scans


def test_awr_leaves_dataclasses_unloaded():
    """The value types are built without the dataclasses module: importing
    every awr module loads it only if numpy already had."""
    names = sorted(path.stem for path in (SRC / "awr").glob("*.py") if path.stem != "__init__")
    code = ("import importlib, json, sys\n"
            "import numpy\n"
            "before = 'dataclasses' in sys.modules\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('awr.' + name)\n"
            "print(json.dumps([before, 'dataclasses' in sys.modules]), file=sys.stderr)\n")
    before, after = json.loads(fresh_python(code))
    assert after == before


@pytest.mark.parametrize("command", ["certify", "delta"])
@pytest.mark.parametrize("text", ["mobius-of-strip(a=0.25+0i)", "mobius-shift(sector(a=0.5))"])
def test_masked_ring_runs_clean(command, text, tmp_path):
    """A ring whose points partly round to |z| = 1 is masked, not a base-point
    mismatch, and the masked points warn nowhere."""
    out = awr_process([command, "--map", text, "--rings", "0.5,0.9999999999999999"], tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
