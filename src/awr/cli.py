"""Command-line front end.

Every subcommand parses a map expression, runs one scan from the
library, and prints a line-oriented `key = value` report on stdout.
Optional --csv and --svg flags write the tabular or graphical payload.
Exit codes: 0 when every certified property holds, 1 when a scan
completes but a certification fails, 2 for usage errors (bad flags,
bad grammar, an unwritable output path, or a request the map cannot
support).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .catalog import FIXTURE_EXPRS, build_map
from .convexity import (
    DEFAULT_ZETAS,
    coefficient_bound_scan,
    mediatrix,
    mediatrix_scan,
    proof_machinery_check,
)
from .deepscan import MAX_PASSES
from .errors import AwrError, MapSyntaxError
from .extended import is_infinite
from .grids import DEFAULT_ANGLES, DEFAULT_RINGS, GridMeta, check_grid_size
from .nehari import certify_nehari
from .parser import format_complex, format_expr, parse_complex, parse_expr
from .quasidisk import (
    DELTA_ANGLES,
    DELTA_RINGS,
    NORM_ANGLES,
    NORM_RINGS,
    RATIO_ANGLES,
    RATIO_RINGS,
    boundary_polyline,
    delta_f,
    koebe_omission_scan,
    lemma32_demo,
    near_one_clusters,
    normalized_sup,
    quasidisk_ratio_scan,
)
from .reflection import reflect, reflect_grid
from .svgplot import ratio_scene, reflection_scene

QUASIDISK_CSV_DEFAULT = "quasidisk_profile.csv"
PLOT_POINTS = 2048
PLOT_RADIUS = 0.995


def _fmt_float(x: float) -> str:
    x = float(x)
    if x != x:
        return "nan"
    if is_infinite(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0 or 1e-3 <= abs(x) < 1e7:
        return f"{x:.6f}"
    return f"{x:.6e}"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, complex):
        return format_complex(v)
    return _fmt_float(v)


def _emit(lines) -> None:
    for key, value in lines:
        print(f"{key} = {_fmt_value(value)}")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(c)) if isinstance(c, float) else str(c)
                             for c in row])


def _grid_request(args):
    """Rings and angles of the grid flags, the command's fallback filling in."""
    rings, angles = args.grid_fallback
    return (args.rings if args.rings is not None else rings,
            args.angles if args.angles is not None else angles)


def _grid_from_args(args) -> GridMeta | None:
    """Explicit flags build a grid; otherwise defer to the op default."""
    if args.rings is None and args.angles is None:
        return None
    return _grid_meta(args)


def _grid_meta(args) -> GridMeta:
    rings, angles = _grid_request(args)
    return GridMeta(rings=rings, angles=angles, seed=args.seed)


def _rings_list(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad ring list {text!r}: {err}")


def _passes_arg(text: str) -> int:
    try:
        passes = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad pass count {text!r}: {err}")
    if passes < 0:
        raise argparse.ArgumentTypeError(f"pass count must be >= 0, got {passes}")
    return passes


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except MapSyntaxError as err:
        raise argparse.ArgumentTypeError(str(err))


def _complex_list(text: str):
    return tuple(_complex_arg(part) for part in text.split(",") if part.strip())


def _require_convex(spec, lines) -> bool:
    if spec.convexity_certified:
        return True
    lines.append(("convexity_certified", False))
    lines.append(("convexity_min", spec.convexity_min))
    return False


def _plot_boundary(expr):
    return boundary_polyline(expr, n=PLOT_POINTS, r=PLOT_RADIUS).vertices()


def _cmd_catalog(args) -> int:
    lines = []
    ok = True
    rows = []
    for name, expr in FIXTURE_EXPRS:
        spec = build_map(expr)
        cert = certify_nehari(expr)
        if spec.convexity_certified and not cert.passed:
            ok = False
        lines += [
            (f"{name}.expr", format_expr(expr)),
            (f"{name}.a2", spec.a2),
            (f"{name}.convexity_certified", spec.convexity_certified),
            (f"{name}.convexity_min", spec.convexity_min),
            (f"{name}.bounded", spec.bounded_hint),
            (f"{name}.omitted_on_boundary", spec.omitted_on_boundary),
            (f"{name}.nehari_sup", cert.sup_estimate),
            (f"{name}.nehari_passed", cert.passed),
        ]
        rows.append([name, spec.a2.real, spec.a2.imag, spec.convexity_certified,
                     spec.convexity_min, spec.bounded_hint,
                     spec.omitted_on_boundary, cert.sup_estimate, cert.passed])
    lines.append(("all_passed", ok))
    _emit(lines)
    if args.csv:
        _write_csv(args.csv,
                   ["name", "a2_re", "a2_im", "convexity_certified",
                    "convexity_min", "bounded", "omitted_on_boundary",
                    "nehari_sup", "nehari_passed"], rows)
    return 0 if ok else 1


def _cmd_certify(args) -> int:
    expr = parse_expr(args.map)
    meta = _grid_from_args(args)
    report = certify_nehari(expr, meta)
    _emit([
        ("map", format_expr(expr)),
        ("sup", report.sup_estimate),
        ("arg_sup", report.arg_sup),
        ("t_parameter", report.t_parameter),
        ("n_failed", report.n_failed),
        ("seed", args.seed),
        ("passed", report.passed),
    ])
    if args.csv:
        _write_csv(args.csv,
                   ["sup", "arg_re", "arg_im", "t_parameter", "n_failed",
                    "passed"],
                   [[report.sup_estimate, report.arg_sup.real,
                     report.arg_sup.imag, report.t_parameter,
                     report.n_failed, report.passed]])
    return 0 if report.passed else 1


def _cmd_reflect(args) -> int:
    expr = parse_expr(args.map)
    sample = reflect(expr, args.z)
    _emit([
        ("map", format_expr(expr)),
        ("z", sample.z),
        ("w", sample.w),
        ("r", sample.r),
        ("b2", sample.b2),
        ("r_is_inf", sample.r_is_inf),
        ("seed", args.seed),
    ])
    if args.csv or args.svg:
        zs, ws, rs, b2s = reflect_grid(expr, _grid_meta(args))
        if args.csv:
            rows = [
                [z.real, z.imag, w.real, w.imag, r.real, r.imag,
                 is_infinite(r), b2.real, b2.imag]
                for z, w, r, b2 in zip(zs, ws, rs, b2s)
            ]
            _write_csv(args.csv,
                       ["z_re", "z_im", "w_re", "w_im", "r_re", "r_im",
                        "r_is_inf", "b2_re", "b2_im"], rows)
        if args.svg:
            med = []
            if not sample.r_is_inf:
                line = mediatrix(sample.w, sample.r)
                med.append((line.point, line.tangent))
            scene = reflection_scene(_plot_boundary(expr), ws, rs,
                                     mediatrix_lines=med)
            scene.write(args.svg)
    return 0


def _cmd_mediatrix_scan(args) -> int:
    expr = parse_expr(args.map)
    spec = build_map(expr)
    lines = [("map", format_expr(expr))]
    if not _require_convex(spec, lines):
        _emit(lines)
        return 1
    report = mediatrix_scan(expr)
    passed = report.min_margin >= -1e-9
    lines += [
        ("min_margin", report.min_margin),
        ("probe_at", report.probe_at),
        ("base_at", report.base_at),
        ("contact", report.contact),
        ("n_vacuous", report.n_vacuous),
        ("n_checked", report.n_checked),
        ("passed", passed),
    ]
    _emit(lines)
    if args.csv:
        rows = [
            [z.real, z.imag, w.real, w.imag, r.real, r.imag, m]
            for z, w, r, m in zip(report.probe_z, report.probe_w,
                                  report.probe_r, report.probe_margin)
        ]
        _write_csv(args.csv,
                   ["z_re", "z_im", "w_re", "w_im", "r_re", "r_im", "margin"],
                   rows)
    if args.svg:
        order = np.argsort(report.probe_margin)[:24]
        med = []
        for idx in order:
            w = report.probe_w[idx]
            r = report.probe_r[idx]
            if not is_infinite(r):
                line = mediatrix(w, r)
                med.append((line.point, line.tangent))
        scene = reflection_scene(_plot_boundary(expr), report.probe_w[order],
                                 report.probe_r[order], mediatrix_lines=med)
        scene.write(args.svg)
    return 0 if passed else 1


def _cmd_coeff_bound(args) -> int:
    expr = parse_expr(args.map)
    spec = build_map(expr)
    lines = [("map", format_expr(expr))]
    if not _require_convex(spec, lines):
        _emit(lines)
        return 1
    report = coefficient_bound_scan(expr)
    passed = report.lower_ok and report.residual_ok
    lines += [
        ("a2", report.a2),
        ("inf_lhs", report.inf_lhs),
        ("arg_inf", report.arg_inf),
        ("min_residual", report.min_residual),
        ("arg_residual", report.arg_residual),
        ("lower_ok", report.lower_ok),
        ("residual_ok", report.residual_ok),
        ("passed", passed),
    ]
    _emit(lines)
    if args.csv:
        _write_csv(args.csv,
                   ["a2_re", "a2_im", "inf_lhs", "min_residual", "lower_ok",
                    "residual_ok"],
                   [[report.a2.real, report.a2.imag, report.inf_lhs,
                     report.min_residual, report.lower_ok,
                     report.residual_ok]])
    return 0 if passed else 1


def _cmd_proof_check(args) -> int:
    expr = parse_expr(args.map)
    spec = build_map(expr)
    lines = [("map", format_expr(expr))]
    if not _require_convex(spec, lines):
        _emit(lines)
        return 1
    all_pass, samples = proof_machinery_check(expr, args.zetas)
    lines.append(("n_zetas", len(samples)))
    for k, s in enumerate(samples):
        lines += [
            (f"zeta{k}", s.zeta),
            (f"zeta{k}.slack", s.slack),
            (f"zeta{k}.re_g_min", s.re_g_min),
            (f"zeta{k}.sup_h", s.sup_h),
            (f"zeta{k}.passed", s.passed),
        ]
    lines.append(("passed", all_pass))
    _emit(lines)
    if args.csv:
        rows = [[s.zeta.real, s.zeta.imag, s.slack, s.re_g_min, s.sup_h,
                 s.inf_h, s.passed] for s in samples]
        _write_csv(args.csv,
                   ["zeta_re", "zeta_im", "slack", "re_g_min", "sup_h",
                    "inf_h", "passed"], rows)
    return 0 if all_pass else 1


def _cmd_normalize(args) -> int:
    expr = parse_expr(args.map)
    meta = _grid_from_args(args)
    report = normalized_sup(expr, meta)
    clusters = near_one_clusters(expr)
    _emit([
        ("map", format_expr(expr)),
        ("sup", report.sup),
        ("arg_sup", report.arg),
        ("interior_ok", report.interior_ok),
        ("cluster_ring", clusters.ring),
        ("cluster_count", clusters.count),
        ("whole_ring", clusters.whole_ring),
    ])
    return 0 if report.interior_ok else 1


def _cmd_delta(args) -> int:
    expr = parse_expr(args.map)
    meta = _grid_from_args(args)
    report = delta_f(expr, grid=meta, passes=args.passes)
    _emit([
        ("map", format_expr(expr)),
        ("delta", report.value),
        ("metric", report.metric),
        ("arg_inf", report.arg_inf),
        ("passes", args.passes),
    ])
    if args.csv:
        _write_csv(args.csv,
                   ["delta", "metric", "arg_re", "arg_im"],
                   [[report.value, report.metric, report.arg_inf.real,
                     report.arg_inf.imag]])
    return 0


def _cmd_quasidisk(args) -> int:
    expr = parse_expr(args.map)
    rings, angles = _grid_request(args)
    profile = quasidisk_ratio_scan(expr, rings=rings, angles=angles)
    lines = [("map", format_expr(expr))]
    for ring, inf_ratio in zip(profile.rings, profile.inf_ratio_per_ring):
        lines.append((f"inf_ratio[{_fmt_float(ring)}]", inf_ratio))
    lines += [
        ("c_estimate", profile.c_estimate),
        ("collapsed", profile.collapsed),
        ("seed", args.seed),
    ]
    _emit(lines)
    csv_path = args.csv or QUASIDISK_CSV_DEFAULT
    rows = [
        [ring, inf_ratio, arg.real, arg.imag, bool(vac)]
        for ring, inf_ratio, arg, vac in zip(
            profile.rings, profile.inf_ratio_per_ring, profile.arg_inf,
            profile.all_infinite)
    ]
    _write_csv(csv_path,
               ["ring", "inf_ratio", "arg_re", "arg_im", "all_infinite"],
               rows)
    if args.svg:
        deepest = max(rings)
        meta = GridMeta(rings=(deepest,), angles=min(angles, 512),
                        seed=args.seed)
        zs, ws, rs, _ = reflect_grid(expr, meta)
        ratios = np.abs(rs - ws)
        scene = ratio_scene(_plot_boundary(expr), ws, rs, ratios)
        scene.write(args.svg)
    return 1 if profile.collapsed else 0


def _cmd_omission_scan(args) -> int:
    expr = parse_expr(args.map)
    report = koebe_omission_scan(expr, passes=args.passes)
    _emit([
        ("map", format_expr(expr)),
        ("inf_value", report.inf_value),
        ("base_at", report.base_at),
        ("probe_at", report.probe_at),
        ("collapsed", report.collapsed),
    ])
    if args.csv:
        _write_csv(args.csv,
                   ["inf_value", "base_re", "base_im", "probe_re", "probe_im",
                    "collapsed"],
                   [[report.inf_value, report.base_at.real,
                     report.base_at.imag, report.probe_at.real,
                     report.probe_at.imag, report.collapsed]])
    return 1 if report.collapsed else 0


def _cmd_lemma32(args) -> int:
    rows = lemma32_demo(args.a_list)
    lines = []
    ok = True
    for k, row in enumerate(rows):
        good = row.sup_norm_dev < 1e-10 and row.delta < 1e-2
        ok = ok and good
        lines += [
            (f"row{k}.a", row.a),
            (f"row{k}.delta", row.delta),
            (f"row{k}.metric", row.delta_metric),
            (f"row{k}.sup_norm_dev", row.sup_norm_dev),
            (f"row{k}.passed", good),
        ]
    lines.append(("passed", ok))
    _emit(lines)
    if args.csv:
        _write_csv(args.csv,
                   ["a_re", "a_im", "delta", "metric", "sup_norm_dev"],
                   [[row.a.real, row.a.imag, row.delta, row.delta_metric,
                     row.sup_norm_dev] for row in rows])
    return 0 if ok else 1


def _cmd_svg(args) -> int:
    expr = parse_expr(args.map)
    zs, ws, rs, _ = reflect_grid(expr, _grid_meta(args))
    med = []
    if args.z is not None:
        sample = reflect(expr, args.z)
        if not sample.r_is_inf:
            line = mediatrix(sample.w, sample.r)
            med.append((line.point, line.tangent))
    scene = reflection_scene(_plot_boundary(expr), ws, rs, mediatrix_lines=med)
    scene.write(args.svg)
    print(f"svg = {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="awr",
        description="Certify Schwarzian bounds, reflections, and quasidisk "
                    "diagnostics for closed-form disk maps.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, mapped=True, grid=None, z=False,
            passes=False, csv_flag=True, svg_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if mapped:
            p.add_argument("--map", required=True,
                           help="map expression, e.g. 'koebe(strip, z0=0.7+0i)'")
        if grid:
            # (rings, angles) filling in for a missing --rings or --angles
            p.set_defaults(grid_fallback=grid)
            p.add_argument("--rings", type=_rings_list, default=None,
                           help="comma-separated ring radii in [0,1)")
            p.add_argument("--angles", type=int, default=None,
                           help="angle count per ring")
        if z:
            p.add_argument("--z", type=_complex_arg, default=None,
                           help="probe point, complex literal like 0.5+0i")
        if passes:
            p.add_argument("--passes", type=_passes_arg, default=3,
                           help=f"refinement passes, at most {MAX_PASSES}")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded with the run (scans are "
                            "deterministic)")
        if csv_flag:
            p.add_argument("--csv", default=None, help="write table to PATH")
        if svg_flag:
            p.add_argument("--svg", default=None, help="write figure to PATH")
        return p

    add("catalog", _cmd_catalog, "survey the fixture catalog", mapped=False)
    add("certify", _cmd_certify, "certify the weighted Schwarzian bound",
        grid=(DEFAULT_RINGS, 4096))
    p = add("reflect", _cmd_reflect, "reflect a probe point across the "
            "image boundary", grid=(DEFAULT_RINGS, DEFAULT_ANGLES), z=True,
            svg_flag=True)
    p.set_defaults(z_required=True)
    add("mediatrix-scan", _cmd_mediatrix_scan,
        "separation margins between reflections and image points",
        svg_flag=True)
    add("coeff-bound", _cmd_coeff_bound,
        "second-coefficient functional lower bound")
    q = add("proof-check", _cmd_proof_check,
            "recentered Schwarz-Pick separation checks")
    q.add_argument("--zetas", type=_complex_list, default=DEFAULT_ZETAS,
                   help="comma-separated recentering points")
    add("normalize", _cmd_normalize,
        "sup of |a2 f*| for the shifted map",
        grid=(NORM_RINGS, NORM_ANGLES), csv_flag=False)
    add("delta", _cmd_delta, "distance from the omitted value to the image",
        grid=(DELTA_RINGS, DELTA_ANGLES), passes=True)
    add("quasidisk", _cmd_quasidisk, "reflection distance-ratio profile",
        grid=(RATIO_RINGS, RATIO_ANGLES), svg_flag=True)
    add("omission-scan", _cmd_omission_scan,
        "inf |b2 g + 1| over recentered maps", passes=True)
    lem = add("lemma32", _cmd_lemma32,
              "strip-conjugate family demonstration", mapped=False)
    lem.add_argument("--a-list", type=_complex_list,
                     default=(0.25, 0.01, 0.25j),
                     help="comma-separated parameter values")
    s = add("svg", _cmd_svg, "figure of boundary, probes, and reflections",
            grid=((0.5, 0.8, 0.95), 128), z=True, csv_flag=False,
            svg_flag=True)
    s.set_defaults(svg_required=True)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "z_required", False) and args.z is None:
        parser.error("reflect needs --z")
    if getattr(args, "svg_required", False) and args.svg is None:
        parser.error("svg needs --svg PATH")
    try:
        if hasattr(args, "grid_fallback"):
            # refuse an oversized grid before any command allocates it
            rings, angles = _grid_request(args)
            check_grid_size(len(rings), angles)
        return args.fn(args)
    except MapSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AwrError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an unwritable --csv or --svg path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
