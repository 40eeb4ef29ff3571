"""Command-line front end.

Every subcommand runs one scan from the library and reports it as
line-oriented `key = value` pairs on stdout.  A command is a function
`(args, expr) -> (passed, lines, rows, figure)`:

* `lines` lists the report's (key, value) pairs;
* `rows` is an iterable of CSV rows, each a list of (key, value) pairs;
  the first row names the columns, and a complex value fills the two
  columns key_re and key_im;
* `figure` is None or a callable that builds the --svg scene from points at the
  map's own scale (`evaluate.at_own_scale`), so its bytes are scale-free.  The `svg`
  command, whose figure is its product, writes it itself before its one report
  line and prints no `map` line.

`main` does the shared work once.  It parses --map, refuses a map whose
image is not convex (`Domain.convex` alone decides; only a refusal calls
`catalog.validate_convexity`, to print the sampled `convexity_min`) for the
commands that need a convex one, builds any --svg figure, prints the `map`
line and the report, then writes the CSV (its rows built only then), then the
figure, so a failed write leaves the report on stdout.  Exit codes: 0 when
`passed` holds (the front end holds no threshold), 1 when a scan completes but
a certification fails, 2 for usage errors (bad flags or grammar, an unwritable
output path, a request the map cannot support: numbers out of double range
too, by `evaluate.jet_eval`'s one rule for a scalar and an array, which masks
only points off the open disk); past argparse, and for a --zetas or --a-list
over MAX_LIST_VALUES, stderr holds one `error:` line.

Imports.  A request is one short process, so importing this module
loads only the parser, the grids (every default grid and cap the flags
name; --rings and --angles default, in argparse itself, to the scan's
own grid) and the error types: `build_parser` and every usage error need no
scan, and an ill-posed request exits 2 without loading numpy.  Each
command imports the scan modules it runs when it runs (the reflect rows
and the figures import numpy themselves), and calls each library
function through its module (`nehari.certify_nehari`), never through a
name bound here, a table or a default argument, so patching a module
attribute (as the tests and bench/tracing.py do) reaches every call.

Exit.  `run`, the entry of `python -m awr.cli` and the `awr` script,
sets OPENBLAS_NUM_THREADS=1 unless it is set (no scan calls BLAS, and an
idle thread pool costs CPU), then freezes the heap (`gc.freeze()`) once
`main` returns, so the collections at shutdown skip the numpy and scan
objects the process is about to discard (some 15% of a request that
loads numpy); flushes, `atexit` and file closing run as usual.  `main`
does neither: the tests and the bench run many requests in one process,
and their heaps stay collectable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import os
import sys

from .errors import AwrError, BadParam, MapSyntaxError
from .grids import (
    CERT_ANGLES,
    CERT_RINGS,
    DEFAULT_A_LIST,
    DEFAULT_ANGLES,
    DEFAULT_PASSES,
    DEFAULT_RINGS,
    DEFAULT_ZETAS,
    DELTA_ANGLES,
    DELTA_RINGS,
    MAX_LIST_VALUES,
    MAX_PASSES,
    NORM_ANGLES,
    NORM_RINGS,
    RATIO_ANGLES,
    RATIO_RINGS,
    GridMeta,
    check_grid_size,
    check_passes,
)
from .parser import format_complex, format_expr, parse_complex, parse_expr

QUASIDISK_CSV_DEFAULT = "quasidisk_profile.csv"
PLOT_POINTS = 2048
PLOT_RADIUS = 0.995


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0 or 1e-3 <= abs(x) < 1e7:
        return f"{x:.6f}"
    return f"{x:.6e}"


def _fmt_value(v) -> str:
    if isinstance(v, (str, int)):  # bool is an int
        return str(v)
    if isinstance(v, complex):
        return format_complex(v)
    return _fmt_float(v)


def _emit(lines) -> None:
    for key, value in lines:
        print(f"{key} = {_fmt_value(value)}")


def _pick(obj, names: str, prefix: str = ""):
    """(key, value) pairs of obj's attributes, each key prefixed; an entry
    `key=attr` reports attribute attr under key."""
    pairs = []
    for name in names.split():
        key, _, attr = name.rpartition("=")
        pairs.append((prefix + (key or attr), getattr(obj, attr)))
    return pairs


def _cells(row):
    """A row's cell texts; a complex value fills two cells, real part first."""
    cells = []
    for _, value in row:
        if isinstance(value, complex):
            cells += (repr(float(value.real)), repr(float(value.imag)))
        else:
            cells.append(repr(float(value)) if isinstance(value, float) else str(value))
    return cells


def _write_csv(path: str, rows) -> None:
    """Rows of (key, value) pairs as CSV; the first row names the columns,
    and a complex value names two, key_re and key_im."""
    # every row is computed before the file opens, so a scan that fails
    # on the way leaves no file behind
    rows = list(rows)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow([key + part for key, value in rows[0] for part in
                         (("_re", "_im") if isinstance(value, complex) else ("",))])
        writer.writerows(_cells(row) for row in rows)


def _grid(args):
    """The validated grid of the --rings and --angles flags."""
    return GridMeta(rings=args.rings, angles=args.angles)


def _rings_list(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad ring list {text!r}: {err}")


def _passes_arg(text: str) -> int:
    try:
        passes = int(text)
        check_passes(passes)
    except (ValueError, AwrError) as err:
        raise argparse.ArgumentTypeError(f"bad pass count {text!r}: {err}")
    return passes


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except MapSyntaxError as err:
        raise argparse.ArgumentTypeError(str(err))


def _complex_list(text: str):
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("needs at least one value")
    if len(parts) > MAX_LIST_VALUES:  # an AwrError, which main reports on one line
        raise BadParam(f"{len(parts)} values exceed the cap of {MAX_LIST_VALUES}")
    return tuple(_complex_arg(part) for part in parts)


def _plot_boundary(expr):
    from . import quasidisk

    return quasidisk.boundary_polyline(expr, n=PLOT_POINTS, r=PLOT_RADIUS).vertices()


def _reflection_figure(expr, ws, rs, marked=()):
    """Boundary, probe-reflection pairs, and the mediatrix of each marked
    (w, r) pair whose reflection is finite."""
    import numpy as np

    from . import convexity, evaluate, svgplot

    marked = np.array([(w, r) for w, r in marked if np.isfinite(r)], complex).reshape(-1, 2)
    boundary, ws, rs, marked = evaluate.at_own_scale(expr, _plot_boundary(expr), ws, rs, marked)
    lines = [(m.point, m.tangent) for m in (convexity.mediatrix(w, r) for w, r in marked)]
    return svgplot.reflection_scene(boundary, ws, rs, mediatrix_lines=lines)


def _cmd_catalog(args, expr):
    from . import catalog, nehari

    lines, rows = [], []
    ok = True
    for name, fixture in catalog.FIXTURE_EXPRS:
        spec = catalog.build_map(fixture)
        cert = nehari.certify_nehari(fixture)
        ok = ok and (cert.passed or not spec.convexity_certified)
        cells = (_pick(spec, "a2 convexity_certified convexity_min "
                             "bounded=bounded_hint omitted_on_boundary")
                 + _pick(cert, "nehari_sup=sup_estimate nehari_passed=passed"))
        lines += [(f"{name}.expr", format_expr(fixture))]
        lines += [(f"{name}.{key}", value) for key, value in cells]
        rows.append([("name", name)] + cells)
    return ok, lines + [("all_passed", ok)], rows, None


def _cmd_certify(args, expr):
    from . import nehari

    report = nehari.certify_nehari(expr, _grid(args))
    lines = _pick(report, "sup=sup_estimate arg_sup t_parameter n_failed")
    lines += [("seed", args.seed), ("passed", report.passed)]
    rows = [_pick(report, "sup=sup_estimate arg=arg_sup t_parameter n_failed passed")]
    return report.passed, lines, rows, None


def _cmd_reflect(args, expr):
    from . import reflection

    sample = reflection.reflect(expr, args.z)
    lines = _pick(sample, "z w r b2 r_is_inf") + [("seed", args.seed)]
    # reflect_grid's (z, w, r, b2), scanned once for --csv and --svg
    scan = functools.cache(lambda: reflection.reflect_grid(expr, _grid(args)))

    def rows():
        from .extended import is_infinite

        zs, ws, rs, b2s = scan()
        for z, w, r, inf, b2 in zip(zs.tolist(), ws.tolist(), rs.tolist(),
                                    is_infinite(rs).tolist(), b2s.tolist()):
            yield [("z", z), ("w", w), ("r", r), ("r_is_inf", inf), ("b2", b2)]

    def figure():
        _, ws, rs, _ = scan()
        return _reflection_figure(expr, ws, rs, [(sample.w, sample.r)])

    return True, lines, rows(), figure


def _cmd_mediatrix_scan(args, expr):
    from . import convexity

    report = convexity.mediatrix_scan(expr)
    lines = _pick(report, "min_margin probe_at base_at contact n_vacuous n_checked passed")
    rows = ([("z", z), ("w", w), ("r", r), ("margin", m)]
            for z, w, r, m in zip(report.probe_z, report.probe_w,
                                  report.probe_r, report.probe_margin))

    def figure():
        import numpy as np

        order = np.argsort(report.probe_margin)[:24]
        ws, rs = report.probe_w[order], report.probe_r[order]
        return _reflection_figure(expr, ws, rs, zip(ws, rs))

    return report.passed, lines, rows, figure


def _cmd_coeff_bound(args, expr):
    from . import convexity

    report = convexity.coefficient_bound_scan(expr)
    lines = _pick(report, "a2 inf_lhs arg_inf min_residual arg_residual "
                          "lower_ok residual_ok passed")
    rows = [_pick(report, "a2 inf_lhs min_residual lower_ok residual_ok")]
    return report.passed, lines, rows, None


def _cmd_proof_check(args, expr):
    from . import convexity

    passed, samples = convexity.proof_machinery_check(expr, args.zetas)
    lines = [("n_zetas", len(samples))]
    for k, s in enumerate(samples):
        lines += [(f"zeta{k}", s.zeta)]
        lines += _pick(s, "slack re_g_min sup_h passed", f"zeta{k}.")
    rows = [_pick(s, "zeta slack re_g_min sup_h inf_h passed") for s in samples]
    return passed, lines + [("passed", passed)], rows, None


def _cmd_normalize(args, expr):
    from . import quasidisk

    report = quasidisk.normalized_sup(expr, _grid(args))
    clusters = quasidisk.near_one_clusters(expr)
    lines = (_pick(report, "sup arg_sup=arg interior_ok")
             + _pick(clusters, "cluster_ring=ring cluster_count=count whole_ring"))
    return report.interior_ok, lines, None, None


def _cmd_delta(args, expr):
    from . import quasidisk

    report = quasidisk.delta_f(expr, grid=_grid(args), passes=args.passes)
    lines = _pick(report, "delta=value metric arg_inf") + [("passes", args.passes)]
    return True, lines, [_pick(report, "delta=value metric arg=arg_inf")], None


def _cmd_quasidisk(args, expr):
    from . import quasidisk

    rings, angles = args.rings, args.angles
    profile = quasidisk.quasidisk_ratio_scan(expr, rings=rings, angles=angles)
    lines = [(f"inf_ratio[{_fmt_float(ring)}]", ratio)
             for ring, ratio in zip(profile.rings, profile.inf_ratio_per_ring)]
    lines += _pick(profile, "c_estimate collapsed") + [("seed", args.seed)]
    lines += [(f"exact_ratio[{_fmt_float(ring)}]", ratio)
              for ring, ratio in zip(profile.rings, profile.exact_ratio_per_ring)]
    rows = ([("ring", ring), ("inf_ratio", ratio), ("arg", arg), ("all_infinite", bool(vac))]
            for ring, ratio, arg, vac in zip(profile.rings, profile.inf_ratio_per_ring,
                                             profile.arg_inf, profile.all_infinite))

    def figure():
        import numpy as np

        from . import evaluate, reflection, svgplot

        meta = GridMeta(rings=(max(rings),), angles=min(angles, 512))
        _, ws, rs, _ = reflection.reflect_grid(expr, meta)
        boundary, ws, rs = evaluate.at_own_scale(expr, _plot_boundary(expr), ws, rs)
        return svgplot.ratio_scene(boundary, ws, rs, np.abs(rs - ws))

    return not profile.collapsed, lines, rows, figure


def _cmd_omission_scan(args, expr):
    from . import quasidisk

    report = quasidisk.koebe_omission_scan(expr, passes=args.passes)
    lines = _pick(report, "inf_value base_at probe_at collapsed")
    rows = [_pick(report, "inf_value base=base_at probe=probe_at collapsed")]
    return not report.collapsed, lines, rows, None


def _cmd_lemma32(args, expr):
    from . import quasidisk

    lines, rows = [], []
    ok = True
    for k, row in enumerate(quasidisk.lemma32_demo(args.a_list)):
        ok = ok and row.passed
        lines += _pick(row, "a delta metric=delta_metric sup_norm_dev passed", f"row{k}.")
        rows.append(_pick(row, "a delta metric=delta_metric sup_norm_dev"))
    return ok, lines + [("passed", ok)], rows, None


def _cmd_svg(args, expr):
    from . import reflection

    # written before the report line, so an unwritable path prints nothing
    _, ws, rs, _ = reflection.reflect_grid(expr, _grid(args))
    marked = [] if args.z is None else [reflection.reflect(expr, args.z)]
    _reflection_figure(expr, ws, rs, [(s.w, s.r) for s in marked]).write(args.svg)
    return True, [("svg", args.svg)], None, None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="awr",
        description="Certify Schwarzian bounds, reflections, and quasidisk "
                    "diagnostics for closed-form disk maps.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    negative = "; write --{}=-0.5+0i,... when the first has a negative real part"

    def add(name, fn, help_text, *, mapped=True, convex=False, grid=None,
            z=False, passes=False, csv_flag=True, svg_flag=False):
        p = sub.add_parser(name, help=help_text)
        # main prints the map line where map_line is set, refuses a map
        # whose image is not convex where convex is set, and reads a
        # missing --map, --csv or --svg as None
        p.set_defaults(fn=fn, map_line=mapped, convex=convex, map=None,
                       csv=None, svg=None)
        if mapped:
            p.add_argument("--map", required=True,
                           help="map expression, e.g. 'koebe(strip, z0=0.7+0i)'")
        if grid:
            # the scan's own grid; argparse converts only string defaults
            p.add_argument("--rings", type=_rings_list, default=grid[0],
                           help="comma-separated ring radii in [0,1)")
            p.add_argument("--angles", type=int, default=grid[1],
                           help="angle count per ring")
        if z:
            p.add_argument("--z", type=_complex_arg, default=None,
                           help="probe point, complex literal like 0.5+0i; "
                                "write --z=-0.5+0.1i for a negative real part")
        if passes:
            p.add_argument("--passes", type=_passes_arg, default=DEFAULT_PASSES,
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
        grid=(CERT_RINGS, CERT_ANGLES))
    p = add("reflect", _cmd_reflect, "reflect a probe point across the "
            "image boundary", grid=(DEFAULT_RINGS, DEFAULT_ANGLES), z=True,
            svg_flag=True)
    p.set_defaults(z_required=True)
    add("mediatrix-scan", _cmd_mediatrix_scan,
        "separation margins between reflections and image points",
        convex=True, svg_flag=True)
    add("coeff-bound", _cmd_coeff_bound,
        "second-coefficient functional lower bound", convex=True)
    q = add("proof-check", _cmd_proof_check,
            "recentered Schwarz-Pick separation checks", convex=True)
    q.add_argument("--zetas", type=_complex_list, default=DEFAULT_ZETAS,
                   help="comma-separated recentering points"
                        + negative.format("zetas"))
    add("normalize", _cmd_normalize,
        "sup of |a2 f*| for the shifted map",
        grid=(NORM_RINGS, NORM_ANGLES), csv_flag=False)
    add("delta", _cmd_delta, "distance from the omitted value to the image",
        grid=(DELTA_RINGS, DELTA_ANGLES), passes=True)
    add("quasidisk", _cmd_quasidisk, "reflection distance-ratio profile",
        grid=(RATIO_RINGS, RATIO_ANGLES),
        svg_flag=True).set_defaults(csv=QUASIDISK_CSV_DEFAULT)
    add("omission-scan", _cmd_omission_scan,
        "inf |b2 g + 1| over recentered maps", passes=True)
    lem = add("lemma32", _cmd_lemma32,
              "strip-conjugate family demonstration", mapped=False)
    lem.add_argument("--a-list", type=_complex_list, default=DEFAULT_A_LIST,
                     help="comma-separated parameter values"
                          + negative.format("a-list"))
    s = add("svg", _cmd_svg, "figure of boundary, probes, and reflections",
            grid=((0.5, 0.8, 0.95), 128), z=True, csv_flag=False,
            svg_flag=True)
    s.set_defaults(svg_required=True, map_line=False)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "z_required", False) and args.z is None:
            parser.error("reflect needs --z")
        if getattr(args, "svg_required", False) and args.svg is None:
            parser.error("svg needs --svg PATH")
        if hasattr(args, "rings"):
            # refuse an oversized grid before any command allocates it
            check_grid_size(len(args.rings), args.angles)
        expr = None if args.map is None else parse_expr(args.map)
        head = [("map", format_expr(expr))] if args.map_line else []
        if args.convex:
            from .domain import Domain

            if not Domain.of(expr).convex:
                from . import catalog

                conv_min = catalog.validate_convexity(expr)[1]
                _emit(head + [("convexity_certified", False), ("convexity_min", conv_min)])
                return 1
        passed, lines, rows, figure = args.fn(args, expr)
        scene = figure() if args.svg and figure else None  # one it cannot draw refuses the request
        _emit(head + lines)
        if args.csv:
            _write_csv(args.csv, rows)
        if scene:
            scene.write(args.svg)
        return 0 if passed else 1
    except (MapSyntaxError, OSError) as err:  # OSError: an unwritable --csv or --svg path
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AwrError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """`main` as a process entry: its exit code, with one BLAS thread
    unless the environment names a count, and the heap frozen."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
