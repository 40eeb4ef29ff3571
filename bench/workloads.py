"""Seeded inputs and job bodies for the benchmark workloads.

Each workload is a closed loop with one client: the next job starts when
the previous one has returned and its output has been checked.  Inputs
come only from the seed; the library receives map-expression text and
command lines, never the seed itself.

Library calls go through module attributes (``quasidisk.delta_f``, not a
name bound at import) so the traced run can wrap them in place.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import checks

GEOMETRY_FAMILIES = (
    "identity",
    "disk",
    "halfplane",
    "sector",
    "sector-auto",
    "strip-shift",
    "mobius-of-strip",
)
CONVEX_FAMILIES = GEOMETRY_FAMILIES[:-1]

# The catalog fixtures as map text, in catalog order.
FIXTURE_TEXTS = {
    "identity": "identity",
    "disk": "disk(x=0.5)",
    "halfplane": "halfplane(c=-1+0i)",
    "sector": "sector(a=0.5)",
    "sector-auto": "sector-auto(a=0.5+0i)",
    "strip": "strip",
    "strip-shift": "strip-shift(x=0.7)",
    "mobius-of-strip": "mobius-of-strip(a=0.25+0i)",
}

# Smallest 1 - |z0| drawn for a Koebe recentering.
MIN_RECENTER_GAP = 1e-7


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), sum(stream.encode())])


def fmt_real(x: float) -> str:
    return repr(float(f"{float(x):.12g}"))


def fmt_complex(z: complex) -> str:
    """Complex literal in the map grammar: re+imi, sign mandatory."""
    re = float(f"{z.real:.12g}")
    im = float(f"{z.imag:.12g}")
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def unit(rng) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def leaf_variant(family: str, rng) -> str:
    """A catalog leaf with seeded parameters inside its valid range."""
    if family == "identity":
        return "identity"
    if family == "disk":
        return f"disk(x={fmt_real(rng.uniform(-0.9, 0.9))})"
    if family == "halfplane":
        return f"halfplane(c={fmt_complex(unit(rng))})"
    if family == "sector":
        return f"sector(a={fmt_real(rng.uniform(0.1, 0.95))})"
    if family == "sector-auto":
        return f"sector-auto(a={fmt_complex(rng.uniform(0.0, 0.8) * unit(rng))})"
    if family == "strip":
        return "strip"
    if family == "strip-shift":
        return f"strip-shift(x={fmt_real(rng.uniform(0.05, 0.95))})"
    if family == "mobius-of-strip":
        return f"mobius-of-strip(a={fmt_complex(rng.uniform(0.1, 1.0) * unit(rng))})"
    raise ValueError(f"unknown leaf family {family}")


# --------------------------------------------------------------- geometry


def geometry_inputs(seed: int, n_rounds: int = 8):
    """Job list: rounds of one map per convex-or-tangent family.

    Each round holds every family once, in seeded order.  A convex
    family's slot is the catalog fixture or a seeded parameter variant
    with equal odds, so any prefix of whole rounds has the same family
    mix.  identity and mobius-of-strip are always the fixture: seeded
    mobius-of-strip variants are not flagged collapsed at the default
    rings, so they form the separate ``tangent-variants`` workload.  The
    strip fixture is not a timed job: its ratio scan is refused at once,
    so it runs as the warm-up instead (see ``run.setup``).
    """
    rng = rng_for(seed, "geometry")
    jobs = []
    for _ in range(n_rounds):
        for k in rng.permutation(len(GEOMETRY_FAMILIES)):
            family = GEOMETRY_FAMILIES[k]
            if family in CONVEX_FAMILIES[1:] and rng.uniform() < 0.5:
                jobs.append({"family": family, "fixture": None,
                             "text": leaf_variant(family, rng)})
            else:
                jobs.append({"family": family, "fixture": family,
                             "text": FIXTURE_TEXTS[family]})
    return jobs


def tangent_inputs(seed: int, n: int = 64):
    """Seeded mobius-of-strip variants, whose images are never quasidisks."""
    rng = rng_for(seed, "tangent")
    return [{"family": "mobius-of-strip", "fixture": None,
             "text": leaf_variant("mobius-of-strip", rng)} for _ in range(n)]


def geometry_job(lib, job):
    """mediatrix_scan, then quasidisk_ratio_scan, both with defaults."""
    med = lib.convexity.mediatrix_scan(job["expr"])
    try:
        ratio = lib.quasidisk.quasidisk_ratio_scan(job["expr"])
    except lib.errors.DegenerateDomain:
        ratio = "DegenerateDomain"
    return checks.summarize_geometry(med, ratio)


def check_geometry(job, summary, goldens):
    """Golden for a fixture; seeded invariants for a variant."""
    if job["fixture"] is not None:
        return checks.compare(summary, goldens["geometry"][job["fixture"]])
    ratio = summary["ratio"]
    if not isinstance(ratio, dict):
        return [f"ratio scan refused: {ratio}"]
    problems = []
    if job["family"] in CONVEX_FAMILIES and ratio["collapsed"]:
        problems.append("convex image reported collapsed")
    if job["family"] == "mobius-of-strip" and not ratio["collapsed"]:
        problems.append("tangent-disk image did not collapse")
    return problems


# -------------------------------------------------------------- composite

COMPOSITE_LEAVES = (
    "identity", "disk", "halfplane", "sector", "sector-auto", "strip",
    "strip-shift", "mobius-of-strip",
)


def recenter_point(rng) -> str:
    """z0 with 1 - |z0| log-uniform on [MIN_RECENTER_GAP, 1)."""
    gap = 10.0 ** rng.uniform(math.log10(MIN_RECENTER_GAP), 0.0)
    return fmt_complex((1.0 - gap) * unit(rng))


# Combinator layers, innermost first: koebe (K), mobius-shift (M), and
# affine directly under a koebe (A).  Every pattern of one or two layers,
# and three of three layers in which each kind sits at each depth once.
COMPOSITE_PATTERNS = (
    ("K",), ("M",), ("A",),
    ("K", "K"), ("K", "M"), ("K", "A"), ("M", "K"), ("M", "M"), ("M", "A"),
    ("A", "K"), ("A", "M"), ("A", "A"),
    ("K", "M", "A"), ("M", "A", "K"), ("A", "K", "M"),
)


def composite_text(leaf: str, pattern, rng) -> str:
    """A nested expression that keeps f(0) = 0 and f'(0) = 1.

    koebe and mobius-shift preserve the normalization; affine does not,
    so it only appears directly under a koebe, which renormalizes.
    """
    text = leaf_variant(leaf, rng)
    for kind in pattern:
        if kind == "K":
            text = f"koebe({text}, z0={recenter_point(rng)})"
        elif kind == "M":
            text = f"mobius-shift({text})"
        else:
            a = complex(*rng.normal(size=2))
            b = complex(*rng.normal(size=2))
            text = (f"koebe(affine({text}, a={fmt_complex(a)}, b={fmt_complex(b)}), "
                    f"z0={recenter_point(rng)})")
    return text


def composite_inputs(seed: int, n: int = 1200):
    """Job k nests leaf k mod 8 in pattern k mod 15; parameters are seeded.

    The structure schedule is the same for every seed, so runs of any
    seed carry the same mix of leaves and nesting; the seed draws every
    parameter, recentering points included.
    """
    rng = rng_for(seed, "composite")
    return [{"text": composite_text(COMPOSITE_LEAVES[k % len(COMPOSITE_LEAVES)],
                                    COMPOSITE_PATTERNS[k % len(COMPOSITE_PATTERNS)], rng)}
            for k in range(n)]


COMPOSITE_WARMUP = "koebe(mobius-shift(sector(a=0.5)), z0=0.3+0.2i)"


def composite_job(lib, job):
    """Parse, then every scan except the mediatrix and ratio scans."""
    expr = lib.parser.parse_expr(job["text"])
    lib.catalog.build_map(expr)
    cert = lib.nehari.certify_nehari(expr)
    lib.convexity.coefficient_bound_scan(expr)
    lib.convexity.proof_machinery_check(expr)
    lib.quasidisk.normalized_sup(expr)
    lib.quasidisk.near_one_clusters(expr)
    delta = lib.quasidisk.delta_f(expr)
    omission = lib.quasidisk.koebe_omission_scan(expr)
    return {
        "certify_passed": bool(cert.passed),
        "certify_sup": float(cert.sup_estimate),
        "delta": float(delta.value),
        "omission": float(omission.inf_value),
    }


def check_composite(job, summary, _goldens):
    problems = []
    if not summary["certify_passed"]:
        problems.append(f"certify_nehari failed, sup = {summary['certify_sup']!r}")
    for key in ("delta", "omission"):
        if not summary[key] >= 0.0:
            problems.append(f"{key} = {summary[key]!r} is not a distance")
    return problems


# -------------------------------------------------------------------- cli

CLI_FIXTURES = tuple(FIXTURE_TEXTS.items())
CLI_SUBCOMMANDS = ("certify", "reflect", "coeff-bound", "proof-check",
                   "normalize", "delta", "omission-scan", "svg")
CSV_CAPABLE = {"certify", "reflect", "coeff-bound", "proof-check", "delta",
               "omission-scan"}

ILL_POSED = (
    ("certify", "--map", "sector(a=2)"),
    ("certify", "--map", "sektor(a=0.5)"),
    ("certify", "--map", "koebe(strip"),
    ("certify", "--map", "strip", "--rings", "0.5,0.4"),
    ("normalize", "--map", "disk(x=0.5)", "--angles", "8"),
    ("delta", "--map", "disk(x=0.5+0.1i)"),
    ("reflect", "--map", "identity"),
    ("reflect", "--map", "identity", "--z", "1+0i"),
    ("svg", "--map", "identity"),
)


def cli_requests():
    """The fixed request set, grouped by subcommand, with stable ids.

    Half of the fixtures (alternating in catalog order) ask for --csv
    where the subcommand has it; svg always writes its figure.
    """
    groups = {"catalog": [
        {"id": "catalog", "argv": ["catalog"], "files": []},
        {"id": "catalog.csv", "argv": ["catalog", "--csv", "out.csv"],
         "files": ["out.csv"]},
    ]}
    for cmd in CLI_SUBCOMMANDS:
        reqs = []
        for k, (name, text) in enumerate(CLI_FIXTURES):
            argv = [cmd, "--map", text]
            files = []
            if cmd == "reflect":
                argv += ["--z", "0.3+0.4i"]
            if cmd == "svg":
                argv += ["--z", "0.3+0.4i", "--svg", "fig.svg"]
                files.append("fig.svg")
            if cmd in CSV_CAPABLE and k % 2 == 0:
                argv += ["--csv", "out.csv"]
                files.append("out.csv")
            reqs.append({"id": f"{cmd}.{name}", "argv": argv, "files": files})
        groups[cmd] = reqs
    groups["ill-posed"] = [
        {"id": f"ill-posed.{k}", "argv": list(argv), "files": []}
        for k, argv in enumerate(ILL_POSED)
    ]
    return groups


def cli_inputs(seed: int, n_rounds: int = 40):
    """Rounds of one request per group, in seeded order.

    Within a group the requests cycle through a seeded permutation, so
    every prefix of whole rounds carries the same subcommand mix.
    """
    rng = rng_for(seed, "cli")
    groups = cli_requests()
    names = sorted(groups)
    orders = {g: [groups[g][i] for i in rng.permutation(len(groups[g]))]
              for g in names}
    jobs = []
    for r in range(n_rounds):
        for k in rng.permutation(len(names)):
            g = names[k]
            jobs.append(orders[g][r % len(orders[g])])
    return jobs


CLI_WARMUP = {"id": "warmup", "argv": ["reflect", "--map", "identity", "--z",
                                       "0.5+0i"], "files": []}


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(root: str, work: str, argv):
    """Run `python -m awr.cli ARGV` in work; return (exit, stdout, rss_kb).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    out_path = os.path.join(work, ".stdout")
    err_path = os.path.join(work, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "awr.cli", *argv],
            cwd=work, env=cli_env(root), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            proc.returncode = 0  # reaped above; keep Popen from waiting again
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss


def run_cli_inprocess(lib, work: str, argv):
    """Run awr.cli.main(argv) in this process with output captured."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as stop:
                code = stop.code
    finally:
        os.chdir(here)
    return int(code), out.getvalue().encode("ascii"), 0


def cli_outcome(work: str, req, code: int, stdout: bytes):
    """Observed exit code, stdout and written files; files are removed."""
    files = {}
    for name in req["files"]:
        path = os.path.join(work, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = checks.digest(fh.read())
            os.remove(path)
        else:
            files[name] = None
    return {"exit": code, "stdout": stdout.decode("ascii", "replace"),
            "files": files}


def check_cli(req, outcome, goldens):
    return checks.compare(outcome, goldens["cli"][req["id"]])
