#!/usr/bin/env python3
"""Benchmark for the awr library and its CLI.

Run from the repository root:

    python3 bench/run.py --workload geometry-scans --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # every workload, both modes
    python3 bench/run.py --list-metrics                          # names, units, predictions

Workloads (one closed-loop client each, see bench/metrics.py):

* ``geometry-scans``: ``mediatrix_scan`` then ``quasidisk_ratio_scan`` on
  one map per job;
* ``cli-requests``: one fresh ``python -m awr.cli`` process per request.

Two more workloads are offered but left out of ``BENCHMARK.json``, since
some of their seeded jobs fail through known library defects and are
counted in ``failed``:

* ``composite-certify``: one seeded composite expression per job, parsed
  and put through every other scan;
* ``tangent-variants``: the ``geometry-scans`` job on seeded
  ``mobius-of-strip`` variants, which must be flagged collapsed.

The library is imported from ``src/`` of the checkout the script sits in;
the run stops with exit code 3 when that tree is missing.  With
``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` the run spends half of ``--seconds`` on untraced jobs, then
repeats exactly those jobs with spans around the library layers, and
reports the per-layer metrics.

Every job's output is checked.  ``failed`` counts jobs that raised, broke
a seeded invariant, or differed from a golden recorded from the library
(``--record-goldens``).  ``correct`` is true when every fixed-input job
run matched its golden, every expected refusal happened, and the checker
passed its self-test: known defects on seeded inputs show in ``failed``
and ``failed_share``, not in ``correct``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# One BLAS thread, set before numpy is imported here or in any child.
# OpenBLAS otherwise starts a thread per core at import, and on a small
# shared machine those threads make each fresh process's start time
# depend on the scheduler.  No awr scan calls BLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _ in metrics.WORKLOADS + metrics.EXTRA_WORKLOADS)
LIB_MODULES = ("errors", "evaluate", "parser", "catalog", "nehari",
               "convexity", "quasidisk", "reflection", "cli")
# Jobs at the start of every run whose failures make up failed_share.first;
# the run goes on past --seconds until it has done this many.  For
# geometry-scans that is one whole round, so every run holds each family.
FIRST_JOBS = {"geometry-scans": len(wl.GEOMETRY_FAMILIES), "tangent-variants": 4,
              "composite-certify": 60, "cli-requests": 40}
SETUP_REPEATS = 7
PROBE_REPEATS = 5


def die(msg: str, code: int = 3):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_library():
    """Import awr from this checkout's src/, refusing any other copy."""
    if not (SRC / "awr" / "__init__.py").is_file():
        die(f"no awr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    lib = types.SimpleNamespace()
    for name in LIB_MODULES:
        setattr(lib, name, importlib.import_module(f"awr.{name}"))
    if Path(lib.cli.__file__).resolve().parent != SRC / "awr":
        die(f"awr imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def load_goldens():
    if not GOLDENS.is_file():
        die(f"missing {GOLDENS}")
    return json.loads(GOLDENS.read_text())


def run_metadata(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git_sha = "none"
    h = hashlib.sha256()
    for path in sorted((SRC / "awr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ set-up


class State(types.SimpleNamespace):
    """Everything a workload needs once set up."""


def setup(workload: str, seed: int, trace: bool) -> State:
    """Imports, input generation and parsing, and one warm-up job.

    Returns the job list and the per-job callables.  Problems seen in
    the warm-up job (which is checked like any other) are kept in
    ``warmup_problems``.
    """
    lib = load_library()
    goldens = load_goldens()
    st = State(lib=lib, goldens=goldens, workload=workload, work=None,
               warmup_problems=[])
    if workload in ("geometry-scans", "tangent-variants"):
        st.jobs = (wl.geometry_inputs(seed) if workload == "geometry-scans"
                   else wl.tangent_inputs(seed))
        for job in st.jobs:
            job["expr"] = lib.parser.parse_expr(job["text"])
        st.run_job = lambda job: wl.geometry_job(lib, job)
        st.check = lambda job, out: wl.check_geometry(job, out, goldens)
        strip = {"family": "strip", "fixture": "strip", "text": "strip",
                 "expr": lib.parser.parse_expr("strip")}
        st.warmup_problems = st.check(strip, st.run_job(strip))
    elif workload == "composite-certify":
        st.jobs = wl.composite_inputs(seed)
        st.run_job = lambda job: wl.composite_job(lib, job)
        st.check = lambda job, out: wl.check_composite(job, out, goldens)
        warm = {"text": wl.COMPOSITE_WARMUP}
        st.warmup_problems = st.check(warm, st.run_job(warm))
    elif workload == "cli-requests":
        st.jobs = wl.cli_inputs(seed)
        st.work = str(WORK / f"{workload}-{os.getpid()}")
        os.makedirs(st.work, exist_ok=True)

        def run_job(req):
            if trace:
                code, stdout, rss = wl.run_cli_inprocess(lib, st.work, req["argv"])
            else:
                code, stdout, rss = wl.run_cli_process(str(ROOT), st.work, req["argv"])
            st.child_rss_kb = max(st.child_rss_kb, rss)
            return wl.cli_outcome(st.work, req, code, stdout)

        st.child_rss_kb = 0
        st.run_job = run_job
        st.check = lambda req, out: wl.check_cli(req, out, goldens)
        warm = run_job(wl.CLI_WARMUP)
        if warm["exit"] != 0:
            st.warmup_problems = [f"warm-up request exited {warm['exit']}"]
        st.child_rss_kb = 0
    else:
        die(f"unknown workload {workload!r}", 2)
    return st


def teardown(st: State):
    if st.work:
        shutil.rmtree(st.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure_setup(args) -> list:
    """Set-up time of fresh processes, from spawn to ready for job one."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", "--t0", repr(t0)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            die(f"set-up child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -------------------------------------------------------------- measuring


class Tally(types.SimpleNamespace):
    """Latencies and failures of one measured phase."""


def run_phase(st: State, seconds: float, min_jobs: int = 0) -> Tally:
    """Closed loop over the job list until seconds have passed.

    Job time covers the library call only; the check runs after it.
    """
    clock = time.perf_counter
    t = Tally(times=[], failures=[])
    i = 0
    t_begin = clock()
    while clock() - t_begin < seconds or len(t.times) < min_jobs:
        job = st.jobs[i % len(st.jobs)]
        i += 1
        t0 = clock()
        try:
            out = st.run_job(job)
            problems = None
        except Exception as err:  # a job that raises is a failed job
            problems = [f"raised {type(err).__name__}: {err}"]
        t.times.append(clock() - t0)
        if problems is None:
            problems = st.check(job, out)
        print(f"job {i - 1} {1000.0 * t.times[-1]:.3f} ms "
              f"{'failed' if problems else 'ok'} {job.get('id') or job['text']}")
        if problems:
            t.failures.append((len(t.times) - 1, job.get("id") or job.get("text"), problems))
    t.elapsed = clock() - t_begin
    t.wrapped = i > len(st.jobs)
    return t


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def self_test(st: State) -> list:
    """The workload's own check must flag outputs known to be wrong."""
    missed = checks.self_test(st.goldens)
    job = {"family": "mobius-of-strip", "fixture": None, "text": "x"}
    collapsed = {"mediatrix": {}, "ratio": {"collapsed": False}}
    if not wl.check_geometry(job, collapsed, st.goldens):
        missed.append("non-collapsing tangent-disk variant passed")
    bad = {"certify_passed": False, "certify_sup": 2.0 + 1e-7, "delta": 0.1,
           "omission": 0.1}
    if not wl.check_composite({"text": "x"}, bad, st.goldens):
        missed.append("failed Nehari certificate passed")
    req_id, gold = next(iter(st.goldens["cli"].items()))
    wrong = dict(gold, exit=gold["exit"] + 1)
    if not wl.check_cli({"id": req_id}, wrong, st.goldens):
        missed.append("wrong CLI exit code passed")
    return missed


def fixed_input_mismatch(st: State, tally: Tally) -> bool:
    """Whether a job with a recorded golden differed from it."""
    for index, _, _ in tally.failures:
        job = st.jobs[index % len(st.jobs)]
        if job.get("fixture") is not None or "id" in job:
            return True
    return False


def end_to_end(st: State, tally: Tally, setup_samples) -> dict:
    if st.workload == "cli-requests":
        rss_kb = st.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_ms_p50": 1000.0 * statistics.median(tally.times),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def cli_probes() -> tuple:
    """Median bare interpreter start, and cold `import awr.cli` beyond it."""
    env = wl.cli_env(str(ROOT))

    def timed(code):
        out = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=str(ROOT), stdin=subprocess.DEVNULL, timeout=60)
            out.append(time.perf_counter() - t0)
        return statistics.median(out)

    bare = timed("pass")
    return bare, timed("import awr.cli") - bare


def per_layer(st: State, rec, traced: Tally, untraced: Tally, caches) -> dict:
    n = max(len(traced.times), 1)
    rows = rec.summary()

    def row(layer):
        return rows.get(layer, {"calls": 0, "self_s": 0.0, "counts": {}})

    def count(layer, key):
        return row(layer)["counts"].get(key, 0)

    out = {}
    for layer in ("geometry.segment_distances", "geometry.cloud_distances"):
        s = row(layer)["self_s"]
        out[f"{layer}.pairs"] = count(layer, "pairs") / n
        out[f"{layer}.self_s"] = s / n
        out[f"{layer}.pairs_per_s"] = count(layer, "pairs") / s if s > 0 else 0.0
    m = "convexity.mediatrix_scan"
    out[f"{m}.self_s"] = row(m)["self_s"] / n
    out[f"{m}.pairs"] = count(m, "pairs") / n
    out[f"{m}.vacuous_share"] = count(m, "vacuous") / max(count(m, "probes"), 1)
    r = "reflection.reflect_grid"
    out[f"{r}.points"] = count(r, "points") / n
    out[f"{r}.infinite_share"] = count(r, "infinite") / max(count(r, "points"), 1)
    out[f"{r}.self_s"] = row(r)["self_s"] / n
    b = "quasidisk.boundary_polyline"
    out[f"{b}.self_s"] = row(b)["self_s"] / n
    out[f"{b}.kept_share"] = count(b, "kept") / max(count(b, "samples"), 1)
    out["quasidisk.quasidisk_ratio_scan.self_s"] = row("quasidisk.quasidisk_ratio_scan")["self_s"] / n
    j = "evaluate.jet_eval"
    out[f"{j}.scalar_calls"] = count(j, "scalar_calls") / n
    out[f"{j}.array_calls"] = count(j, "array_calls") / n
    out[f"{j}.points"] = count(j, "points") / n
    out[f"{j}.self_s"] = row(j)["self_s"] / n
    g = "grids.golden_section"
    out[f"{g}.calls"] = row(g)["calls"] / n
    out[f"{g}.evals"] = count(g, "evals") / n
    out[f"{g}.self_s"] = row(g)["self_s"] / n
    d = "deepscan.deep_strip_values"
    out[f"{d}.calls"] = row(d)["calls"] / n
    out[f"{d}.probes"] = count(d, "probes") / n
    out[f"{d}.self_s"] = row(d)["self_s"] / n
    s = "deepscan.strip_structure"
    out[f"{s}.calls"] = row(s)["calls"] / n
    out[f"{s}.self_s"] = row(s)["self_s"] / n
    t = "evaluate.taylor"
    hits, misses = caches["taylor_hits"], caches["taylor_misses"]
    out[f"{t}.calls"] = row(t)["calls"] / n
    out[f"{t}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out[f"{t}.cache_entries"] = caches["taylor_entries"] / n
    out["evaluate.koebe_scalars.cache_entries"] = caches["koebe_entries"] / n
    for layer in ("quasidisk.delta_f", "quasidisk.koebe_omission_scan",
                  "quasidisk.normalized_sup", "quasidisk.near_one_clusters",
                  "nehari.certify_nehari", "convexity.coefficient_bound_scan",
                  "convexity.proof_machinery_check", "catalog.build_map"):
        out[f"{layer}.self_s"] = row(layer)["self_s"] / n
    out["quasidisk.koebe_omission_scan.bases"] = count("quasidisk.koebe_omission_scan", "bases") / n
    p = "parser.parse_expr"
    out[f"{p}.calls"] = row(p)["calls"] / n
    out[f"{p}.self_s"] = row(p)["self_s"] / n
    out["cli.interpreter_s"], out["cli.import_s"] = caches["cli_probes"]
    out["cli.main.self_s"] = row("cli.main")["self_s"] / n
    svg_self = sum(v["self_s"] for k, v in rows.items() if k.startswith("svgplot."))
    out["svgplot.self_s"] = svg_self / n
    busy = sum(traced.times)
    for mod in metrics.MODULE_LAYERS:
        mod_self = sum(v["self_s"] for k, v in rows.items() if k.startswith(mod + "."))
        out[f"{mod}.self_share"] = mod_self / busy if busy > 0 else 0.0
    out["trace.overhead_jobs_per_s"] = (len(traced.times) / traced.elapsed
                                        - len(untraced.times) / untraced.elapsed)
    return out


def run_workload(args) -> int:
    import compileall

    for tree in (SRC, BENCH):
        compileall.compile_dir(str(tree), quiet=1)
    setup_samples = measure_setup(args) if not args.trace else []
    st = setup(args.workload, args.seed, bool(args.trace))
    meta = run_metadata(args)
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()), flush=True)
    try:
        missed = self_test(st)
        first = FIRST_JOBS[args.workload]
        if not args.trace:
            tally = run_phase(st, args.seconds, min_jobs=first)
            values = end_to_end(st, tally, setup_samples)
            phases = [tally]
        else:
            values, phases = traced_run(st, args, first)
    finally:
        teardown(st)

    attempted = sum(len(p.times) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    first_failed = sum(1 for idx, _, _ in phases[0].failures if idx < first)
    correct = not missed and not st.warmup_problems and \
        not any(fixed_input_mismatch(st, p) for p in phases)

    for problem in st.warmup_problems:
        print(f"warm-up check failed: {problem}")
    for problem in missed:
        print(f"checker self-test: {problem}")
    for p in phases:
        for index, what, problems in p.failures:
            print(f"failed job {index}: {what}: {'; '.join(problems)}")
        if p.wrapped:
            print("note: job list wrapped around; later jobs repeat earlier inputs")
    all_times = [x for p in phases for x in p.times]
    print(f"jobs = {attempted} count")
    print(f"jobs_per_s = {len(phases[0].times) / phases[0].elapsed!r} 1/s")
    print(f"failed_share = {failed / attempted!r} share ({failed}/{attempted})")
    print(f"failed_share.first = {first_failed / first!r} share "
          f"({first_failed}/{first} first jobs)")
    if len(all_times) >= 100:
        print(f"job_ms_p90 = {1000.0 * percentile(all_times, 0.9)!r} ms")
    if not args.trace:
        print(f"setup_s.samples = {setup_samples!r} s")
    units = {n: u for n, u, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def traced_run(st: State, args, first: int):
    """The same jobs twice from cold library caches: untraced, then traced.

    The untraced pass runs for half of --seconds; the traced pass repeats
    exactly its jobs, so the difference in jobs_per_s is the tracing
    overhead.
    """
    import tracing

    lib = st.lib
    caches = (lib.evaluate.taylor, lib.evaluate._koebe_scalars, lib.evaluate.shift_a2)
    for cache in caches:
        cache.cache_clear()
    untraced = run_phase(st, args.seconds / 2.0, min_jobs=first)
    for cache in caches:
        cache.cache_clear()
    taylor, koebe = caches[:2]
    t_before, k_before = taylor.cache_info(), koebe.cache_info()
    rec = tracing.SpanRecorder()
    rec.install()
    rec.enabled = True
    try:
        traced = run_phase(st, 0.0, min_jobs=len(untraced.times))
    finally:
        rec.enabled = False
        rec.uninstall()
    t_after, k_after = taylor.cache_info(), koebe.cache_info()
    caches = {
        "taylor_hits": t_after.hits - t_before.hits,
        "taylor_misses": t_after.misses - t_before.misses,
        "taylor_entries": t_after.currsize - t_before.currsize,
        "koebe_entries": k_after.currsize - k_before.currsize,
        "cli_probes": cli_probes() if st.workload == "cli-requests" else (0.0, 0.0),
    }
    values = per_layer(st, rec, traced, untraced, caches)
    OUT.mkdir(exist_ok=True)
    rec.write(str(OUT / f"spans-{st.workload}-seed{args.seed}.jsonl"))
    print("layer self time per job (traced half):")
    for layer, row in sorted(rec.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:40s} {row['self_s'] / max(len(traced.times), 1):10.6f} s "
              f"{row['calls'] / max(len(traced.times), 1):10.1f} calls")
    return values, [untraced, traced]


def setup_only(args) -> int:
    """Child of measure_setup: set up, then print seconds since --t0."""
    st = setup(args.workload, args.seed, bool(args.trace))
    elapsed = time.monotonic() - args.t0
    teardown(st)
    print(repr(elapsed))
    return 0


# ------------------------------------------------------------- utilities


def record_goldens() -> int:
    """Record outputs of every fixed-input job as the goldens."""
    lib = load_library()
    out = {"geometry": {}, "cli": {}}
    for name, text in wl.FIXTURE_TEXTS.items():
        job = {"fixture": name, "expr": lib.parser.parse_expr(text)}
        out["geometry"][name] = wl.geometry_job(lib, job)
        print(f"geometry {name}", flush=True)
    work = str(WORK / f"goldens-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for group in wl.cli_requests().values():
            for req in group:
                code, stdout, _ = wl.run_cli_process(str(ROOT), work, req["argv"])
                out["cli"][req["id"]] = wl.cli_outcome(work, req, code, stdout)
                print(f"cli {req['id']} exit {code}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def list_metrics() -> int:
    print("workloads:")
    for name, why in metrics.WORKLOADS:
        print(f"  {name}: {why}")
    print("extra workloads (not in BENCHMARK.json):")
    for name, why in metrics.EXTRA_WORKLOADS:
        print(f"  {name}: {why}")
    print("end-to-end (--trace 0): name unit better bound")
    for name, unit, better, bound in metrics.END_TO_END:
        print(f"  {name} {unit} {better} {bound}")
    print("  also printed: jobs_per_s, failed_share, failed_share.first, "
          "job_ms_p90 (>= 100 jobs)")
    print("per-layer (--trace 1, per traced job): name unit better | moves | not on")
    for name, unit, better, (e2e, on), not_on in metrics.PER_LAYER:
        print(f"  {name} {unit} {better} | {e2e} on {on} | {not_on}")
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced; every metric by name with unit."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for metric, v in result["metrics"].items():
                rows.append(f"{name}.{metric} = {v['value']!r} {v['unit']}")
            rows.append(f"{name}.trace{trace}.failed_share = "
                        f"{result['failed'] / result['attempted']!r} share")
    print("summary:")
    for line in rows:
        print("  " + line)
    print(f"correct = {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--record-goldens", action="store_true",
                   help="record fixed-input outputs into bench/goldens.json")
    p.add_argument("--list-metrics", action="store_true")
    p.add_argument("--write-spec", type=int, metavar="RUN_SECONDS",
                   help="write BENCHMARK.json with this run_seconds")
    args = p.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(metrics.spec(args.write_spec), indent=2) + "\n")
        return 0
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "awr" / "__init__.py").is_file() or not GOLDENS.is_file():
        die(f"needs the awr sources under {SRC} and {GOLDENS}")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
