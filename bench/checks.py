"""Output checks: golden comparison, job summaries and a checker self-test.

Goldens are plain JSON recorded from the library (``run.py
--record-goldens``).  Floats from library scans match within a relative
1e-9 (absolute 1e-12 near zero); everything else, CLI stdout and file
digests included, must match exactly.
"""

from __future__ import annotations

import hashlib
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize_geometry(med, ratio) -> dict:
    """The checked fields of a mediatrix report and a ratio profile."""
    out = {"mediatrix": {
        "min_margin": float(med.min_margin),
        "contact": bool(med.contact),
        "n_vacuous": int(med.n_vacuous),
        "n_checked": int(med.n_checked),
    }}
    if isinstance(ratio, str):
        out["ratio"] = ratio
    else:
        out["ratio"] = {
            "inf_ratio_per_ring": [float(v) for v in ratio.inf_ratio_per_ring],
            "c_estimate": float(ratio.c_estimate),
            "all_infinite": [bool(v) for v in ratio.all_infinite],
            "collapsed": bool(ratio.collapsed),
        }
    return out


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare(observed, golden, path: str = "") -> list:
    """Differences between an observed summary and its golden, as text."""
    if isinstance(golden, dict):
        if not isinstance(observed, dict) or set(observed) != set(golden):
            return [f"{path or '.'}: keys {sorted(observed) if isinstance(observed, dict) else observed!r} "
                    f"!= {sorted(golden)}"]
        out = []
        for key in golden:
            out += compare(observed[key], golden[key], f"{path}.{key}")
        return out
    if isinstance(golden, list):
        if not isinstance(observed, list) or len(observed) != len(golden):
            return [f"{path}: {observed!r} != {golden!r}"]
        out = []
        for k, (o, g) in enumerate(zip(observed, golden)):
            out += compare(o, g, f"{path}[{k}]")
        return out
    if isinstance(golden, float) and not isinstance(observed, bool) \
            and isinstance(observed, (int, float)):
        return [] if _close(float(observed), golden) else [f"{path}: {observed!r} != {golden!r}"]
    if type(observed) is not type(golden) or observed != golden:
        return [f"{path}: {observed!r} != {golden!r}"]
    return []


def self_test(goldens) -> list:
    """Feed the checker outputs known to be wrong; return what it missed.

    A perturbed ratio profile, a flipped mediatrix flag, a wrong CLI exit
    code and one changed stdout byte must each be reported, and the
    untouched goldens must pass, or the failure counts of a run mean
    nothing.
    """
    import copy

    missed = []
    geo = goldens["geometry"]["sector"]
    if compare(copy.deepcopy(geo), geo):
        missed.append("golden geometry summary does not match itself")
    bad = copy.deepcopy(geo)
    bad["ratio"]["inf_ratio_per_ring"][-1] *= 1.0 + 1e-6
    if not compare(bad, geo):
        missed.append("perturbed ratio profile passed")
    bad = copy.deepcopy(geo)
    bad["mediatrix"]["contact"] = not bad["mediatrix"]["contact"]
    if not compare(bad, geo):
        missed.append("flipped contact flag passed")

    cli = next(iter(goldens["cli"].values()))
    bad = copy.deepcopy(cli)
    bad["exit"] = 2 if cli["exit"] != 2 else 0
    if not compare(bad, cli):
        missed.append("wrong exit code passed")
    bad = copy.deepcopy(cli)
    bad["stdout"] = cli["stdout"][:-2] + ("0" if cli["stdout"][-2:-1] != "0" else "1") + "\n"
    if not compare(bad, cli):
        missed.append("changed stdout passed")
    return missed
