"""The traced benchmark run binds library names; each binding must resolve.

`bench/tracing.py` wraps every TARGETS entry by module attribute, and
its counters read parameters by name (`iters`, `base_grid`,
`base_radii`, `base_angles`).  The traced run also clears and reads the
three `evaluate` caches.  A renamed or deleted name breaks only the
traced run, so this runs one job of each kind under the recorder.
Nothing under bench/ is changed; files go to tmp_path.
"""

import importlib
import sys
import types
from pathlib import Path

from awr import catalog, cli, convexity, errors, evaluate, nehari, parser, quasidisk

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = types.SimpleNamespace(catalog=catalog, cli=cli, convexity=convexity, errors=errors,
                            nehari=nehari, parser=parser, quasidisk=quasidisk)


def _target(mod_name, attr):
    """The object a TARGETS entry names: a module function or a class's own method."""
    mod = importlib.import_module(f"awr.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name).__dict__[meth]
    return getattr(mod, attr)


def test_traced_jobs_resolve_every_binding(tmp_path):
    originals = {(m, a): _target(m, a) for m, a, _ in tracing.TARGETS}
    rec = tracing.SpanRecorder()
    rec.install()
    try:
        for (m, a), orig in originals.items():
            assert getattr(_target(m, a), "__wrapped__", None) is orig, f"{m}.{a}"
        rec.enabled = True
        job = {"fixture": "sector", "expr": parser.parse_expr(workloads.FIXTURE_TEXTS["sector"])}
        workloads.geometry_job(LIB, job)
        workloads.composite_job(LIB, {"text": workloads.COMPOSITE_WARMUP})
        argv = ["svg", "--map", "disk(x=0.5)", "--z", "0.3+0.4i", "--svg", "fig.svg"]
        code, _, _ = workloads.run_cli_inprocess(LIB, str(tmp_path), argv)
        assert code == 0 and (tmp_path / "fig.svg").stat().st_size > 0
    finally:
        rec.enabled = False
        rec.uninstall()
    for (m, a), orig in originals.items():
        assert _target(m, a) is orig, f"{m}.{a} not restored"

    rows = rec.summary()
    # each counter that reads a parameter by name ran and counted
    assert rows["grids.golden_section"]["counts"]["evals"] > 0  # iters
    assert rows["quasidisk.koebe_omission_scan"]["counts"]["bases"] > 0  # base_grid
    assert rows["convexity.mediatrix_scan"]["counts"]["pairs"] > 0  # base_radii, base_angles
    assert rows["svgplot.SvgScene.write"]["calls"] == 1

    for cache in (evaluate.taylor, evaluate._koebe_scalars, evaluate.shift_a2):
        cache.cache_info()
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
