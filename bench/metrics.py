"""Metric definitions, with the workload each one is expected to move.

``BENCHMARK.json`` is generated from these tables (``run.py
--write-spec``), so names, units and bounds live in one place.  The
predictions (which end-to-end metric a layer metric should move, on which
workload, and where it should stay put) are kept here because the
BENCHMARK.json schema has no field for them; ``run.py --list-metrics``
prints them.

Per-layer values come from the traced half of a ``--trace 1`` run and are
per traced job: self times in seconds per job, counts per job.
"""

WORKLOADS = (
    ("geometry-scans",
     "mediatrix and ratio scans on catalog maps and seeded convex variants; "
     "brute-force nearest-segment and nearest-point search in geometry does "
     "most of the work"),
    ("cli-requests",
     "a fresh awr process per cheap subcommand or ill-posed request; "
     "interpreter start, numpy import and CLI plumbing dominate; the traced "
     "run covers the scan layers in-process"),
)

# Workloads that run.py offers but BENCHMARK.json leaves out: on their
# seeded inputs some jobs fail through known library defects, which they
# count in ``failed`` rather than avoid.
EXTRA_WORKLOADS = (
    ("composite-certify",
     "seeded nested koebe/mobius-shift/affine composites through every other "
     "scan; cold jet and Taylor caches, recursive jet evaluation and "
     "golden-section refinement dominate, geometry is never called"),
    ("tangent-variants",
     "geometry-scans on seeded mobius-of-strip variants, which are never "
     "quasidisks; counts the ones the ratio scan does not flag collapsed"),
)

# name, unit, better, bound
END_TO_END = (
    ("job_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

G, C, L = "geometry-scans", "composite-certify", "cli-requests"
OTHERS_G = "composite-certify, cli-requests"
# Layers that composite-certify drives hardest are, under BENCHMARK.json,
# measured by the traced cli-requests run, which calls awr.cli.main
# in-process for certify, coeff-bound, proof-check, normalize, delta and
# omission-scan.

# name, unit, better, (end-to-end metric, workload it moves), where it should not move
PER_LAYER = (
    ("geometry.segment_distances.pairs", "count", "lower", ("job_ms_p50", G), OTHERS_G),
    ("geometry.segment_distances.self_s", "s", "lower", ("job_ms_p50", G), OTHERS_G),
    ("geometry.segment_distances.pairs_per_s", "1/s", "higher", ("job_ms_p50", G), OTHERS_G),
    ("geometry.cloud_distances.pairs", "count", "lower", ("job_ms_p50", G), OTHERS_G),
    ("geometry.cloud_distances.self_s", "s", "lower", ("job_ms_p50", G), OTHERS_G),
    ("geometry.cloud_distances.pairs_per_s", "1/s", "higher", ("job_ms_p50", G), OTHERS_G),
    ("convexity.mediatrix_scan.self_s", "s", "lower", ("job_ms_p50", G), OTHERS_G),
    ("convexity.mediatrix_scan.pairs", "count", "lower", ("job_ms_p50", G), OTHERS_G),
    ("convexity.mediatrix_scan.vacuous_share", "share", "lower", ("job_ms_p50", G), OTHERS_G),
    ("reflection.reflect_grid.points", "count", "lower", ("job_ms_p50", G), C),
    ("reflection.reflect_grid.infinite_share", "share", "lower", ("job_ms_p50", G), C),
    ("reflection.reflect_grid.self_s", "s", "lower", ("job_ms_p50", G), C),
    ("quasidisk.boundary_polyline.self_s", "s", "lower", ("job_ms_p50", G), C),
    ("quasidisk.boundary_polyline.kept_share", "share", "higher", ("job_ms_p50", G), C),
    ("quasidisk.quasidisk_ratio_scan.self_s", "s", "lower", ("job_ms_p50", G), OTHERS_G),
    ("evaluate.jet_eval.scalar_calls", "count", "lower", ("job_ms_p50", C), G),
    ("evaluate.jet_eval.array_calls", "count", "lower", ("job_ms_p50", C), G),
    ("evaluate.jet_eval.points", "count", "lower", ("job_ms_p50", C), G),
    ("evaluate.jet_eval.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("grids.golden_section.calls", "count", "lower", ("job_ms_p50", C), G),
    ("grids.golden_section.evals", "count", "lower", ("job_ms_p50", C), G),
    ("grids.golden_section.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("deepscan.deep_strip_values.calls", "count", "lower", ("job_ms_p50", C), G),
    ("deepscan.deep_strip_values.probes", "count", "lower", ("job_ms_p50", C), G),
    ("deepscan.deep_strip_values.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("deepscan.strip_structure.calls", "count", "lower", ("job_ms_p50", C), G),
    ("deepscan.strip_structure.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("evaluate.taylor.calls", "count", "lower", ("peak_rss_mb", C), G),
    ("evaluate.taylor.hit_ratio", "share", "higher", ("peak_rss_mb", C), G),
    ("evaluate.taylor.cache_entries", "count", "lower", ("peak_rss_mb", C), G),
    ("evaluate.koebe_scalars.cache_entries", "count", "lower", ("peak_rss_mb", C), G),
    ("quasidisk.delta_f.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("quasidisk.koebe_omission_scan.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("quasidisk.koebe_omission_scan.bases", "count", "lower", ("job_ms_p50", C), G),
    ("quasidisk.normalized_sup.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("quasidisk.near_one_clusters.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("nehari.certify_nehari.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("convexity.coefficient_bound_scan.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("convexity.proof_machinery_check.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("catalog.build_map.self_s", "s", "lower", ("job_ms_p50", C), G),
    ("parser.parse_expr.calls", "count", "lower", ("job_ms_p50", L), "composite-certify (stays negligible)"),
    ("parser.parse_expr.self_s", "s", "lower", ("job_ms_p50", L), "composite-certify (stays negligible)"),
    ("cli.interpreter_s", "s", "lower", ("job_ms_p50", L), "geometry-scans, composite-certify"),
    ("cli.import_s", "s", "lower", ("job_ms_p50", L), "geometry-scans, composite-certify"),
    ("cli.main.self_s", "s", "lower", ("job_ms_p50", L), "geometry-scans, composite-certify"),
    ("svgplot.self_s", "s", "lower", ("job_ms_p50", L), "geometry-scans, composite-certify"),
)

# Module layers whose summed self time is reported as a share of job time,
# with the workload where each share is expected to be largest.
MODULE_LAYERS = {
    "evaluate": C, "grids": C, "deepscan": C, "reflection": G, "geometry": G,
    "quasidisk": G, "convexity": G, "nehari": C, "catalog": C, "parser": C,
    "svgplot": L, "cli": L,
}

PER_LAYER += tuple(
    (f"{mod}.self_share", "share", "lower", ("job_ms_p50", on),
     "share of traced job time on the other workloads")
    for mod, on in MODULE_LAYERS.items()
) + (
    ("trace.overhead_jobs_per_s", "1/s", "higher", ("job_ms_p50", "every workload"),
     "traced minus untraced jobs_per_s in the same run; not a program metric"),
)


def spec(run_seconds: int) -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }
