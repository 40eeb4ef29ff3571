"""Emit a gallery of reflection figures for the catalog maps.

Each figure shows the image boundary (black), a ring of probe points
w = f(z) (blue), their reflections (red), the connecting segments
(gray), and the separation line of a chosen anchor probe (dashed).
Maps whose reflection degenerates on the chosen ring are skipped with
a note instead of failing the whole run.

Usage:
    python3 scripts/reflection_gallery.py --out-dir figures [--ring 0.6]
"""

import argparse
import os
import sys

from awr.catalog import catalog_fixtures
from awr.convexity import mediatrix
from awr.errors import AwrError
from awr.evaluate import jet_eval
from awr.grids import GridMeta, ring_points
from awr.reflection import reflect, reflect_grid
from awr.svgplot import reflection_scene

BOUNDARY_POINTS = 2048
BOUNDARY_RADIUS = 0.995


def figure_for(expr, ring: float, angles: int):
    boundary = jet_eval(expr, ring_points((BOUNDARY_RADIUS,), BOUNDARY_POINTS)[0]).f0
    meta = GridMeta(rings=(ring,), angles=angles, seed=0)
    _, ws, rs, _ = reflect_grid(expr, meta)
    anchor = reflect(expr, ring + 0.0j)
    lines = []
    if not anchor.r_is_inf:
        spec = mediatrix(anchor.w, anchor.r)
        lines.append((spec.point, spec.tangent))
    return reflection_scene(boundary, ws, rs, mediatrix_lines=lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="figures")
    ap.add_argument("--ring", type=float, default=0.6,
                    help="probe ring radius in (0, 1)")
    ap.add_argument("--angles", type=int, default=96,
                    help="probes on the ring")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    written = 0
    for name, spec in catalog_fixtures():
        path = os.path.join(args.out_dir, f"{name}.svg")
        try:
            scene = figure_for(spec.expr, args.ring, args.angles)
        except AwrError as err:
            print(f"skip {name}: {type(err).__name__}: {err}",
                  file=sys.stderr)
            continue
        scene.write(path)
        print(f"wrote {path}")
        written += 1
    return 0 if written else 1


if __name__ == "__main__":
    raise SystemExit(main())
