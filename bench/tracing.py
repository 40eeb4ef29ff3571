"""Span recorder for the traced run.

The recorder wraps public functions of the ``awr`` modules where their
callers bind them: every loaded ``awr`` module attribute that is the
original function object is replaced, so ``awr.quasidisk.segment_distances``
and ``awr.geometry.segment_distances`` both record.  Spans live in memory
as (layer, parent, start, end, counts) and are written out once at the
end.  A span's self time is its duration minus the time covered by its
child spans; children run one after another inside their parent, so that
is the sum of their durations.  Counts (points, pairs, evaluations) are
read from argument shapes and results at the same boundary.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _jet_eval_counts(fn, args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    if isinstance(z, np.ndarray) and z.ndim > 0:
        return {"array_calls": 1, "points": z.size}
    return {"scalar_calls": 1, "points": 1}


def _pairs(fn, args, kwargs, out):
    return {"pairs": _size(args[0]) * _size(args[1])}


def _mediatrix_counts(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    bases = int(a["base_radii"]) * int(a["base_angles"])
    probes = _size(out.probe_z)
    return {"pairs": int(out.n_checked) * bases, "vacuous": int(out.n_vacuous),
            "probes": probes}


def _reflect_grid_counts(fn, args, kwargs, out):
    from awr.extended import is_infinite

    rs = out[2]
    return {"points": _size(rs), "infinite": int(np.sum(is_infinite(rs)))}


def _polyline_counts(fn, args, kwargs, out):
    return {"kept": int(np.sum(out.kept)), "samples": _size(out.kept)}


def _golden_counts(fn, args, kwargs, out):
    return {"evals": 2 + int(_bound(fn, args, kwargs)["iters"])}


def _deep_counts(fn, args, kwargs, out):
    return {"probes": _size(out)}


def _omission_counts(fn, args, kwargs, out):
    from awr import quasidisk

    grid = _bound(fn, args, kwargs)["base_grid"]
    if grid is None:
        n = len(quasidisk.BASE_RINGS) * quasidisk.BASE_ANGLES
    else:
        n = len(grid.rings) * grid.angles
    return {"bases": 1 + n}


# (module, attribute, counter); the layer is "module.attribute".
TARGETS = (
    ("evaluate", "jet_eval", _jet_eval_counts),
    ("evaluate", "value", None),
    ("evaluate", "taylor", None),
    ("grids", "golden_section", _golden_counts),
    ("grids", "refine_on_grid", None),
    ("grids", "grid_points", None),
    ("deepscan", "strip_structure", None),
    ("deepscan", "strip_ends", None),
    ("deepscan", "deep_strip_values", _deep_counts),
    ("reflection", "reflect", None),
    ("reflection", "reflect_grid", _reflect_grid_counts),
    ("geometry", "segment_distances", _pairs),
    ("geometry", "cloud_distances", _pairs),
    ("quasidisk", "boundary_polyline", _polyline_counts),
    ("quasidisk", "quasidisk_ratio_scan", None),
    ("quasidisk", "normalize_values", None),
    ("quasidisk", "normalized_sup", None),
    ("quasidisk", "near_one_clusters", None),
    ("quasidisk", "delta_f", None),
    ("quasidisk", "koebe_omission_scan", _omission_counts),
    ("convexity", "mediatrix_scan", _mediatrix_counts),
    ("convexity", "coefficient_bound_scan", None),
    ("convexity", "proof_machinery_check", None),
    ("nehari", "certify_nehari", None),
    ("catalog", "build_map", None),
    ("catalog", "validate_convexity", None),
    ("parser", "parse_expr", None),
    ("parser", "format_expr", None),
    ("svgplot", "reflection_scene", None),
    ("svgplot", "ratio_scene", None),
    ("svgplot", "SvgScene.render", None),
    ("svgplot", "SvgScene.write", None),
    ("cli", "main", None),
)

MODULES = ("evaluate", "grids", "deepscan", "reflection", "geometry",
           "quasidisk", "convexity", "nehari", "catalog", "parser",
           "svgplot", "cli")


class SpanRecorder:
    """Wraps the TARGETS in place; records spans while ``enabled``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self._patches = []

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (layer, parent, t0, clock(), None)
                raise
            finally:
                stack.pop()
            t1 = clock()
            counts = counter(fn, args, kwargs, out) if counter else None
            spans[idx] = (layer, parent, t0, t1, counts)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each target in the loaded awr modules."""
        import importlib

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "awr" or name.startswith("awr."))]
        for mod_name, attr, counter in TARGETS:
            mod = importlib.import_module(f"awr.{mod_name}")
            layer = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(layer, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(layer, orig, counter)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def summary(self):
        """Per layer: calls, total self time and summed counts."""
        child = defaultdict(float)
        for layer, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "counts": defaultdict(int)})
        for k, (layer, _, t0, t1, counts) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[k]
            for key, v in (counts or {}).items():
                row["counts"][key] += v
        return out

    def write(self, path: str):
        """Write the raw spans as JSON lines: layer, parent, start, end, counts."""
        with open(path, "w", encoding="ascii") as fh:
            for layer, parent, t0, t1, counts in self.spans:
                fh.write(json.dumps([layer, parent, t0, t1, counts]) + "\n")
