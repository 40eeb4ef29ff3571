"""Replay of the CLI requests that the benchmark goldens leave out.

`bench/goldens.json` pins certify, reflect, coeff-bound, proof-check,
normalize, delta, omission-scan, svg and catalog.  This suite pins the
rest: mediatrix-scan (report, table, figure, convexity refusal),
quasidisk (report, default table, figure), lemma32, reflect --svg, the
grid, --passes and --seed flags, requests that fail after part of
their output is out, and the help text of every subcommand.  Each
request runs in-process in a fresh working directory; its exit code,
stdout, stderr and the SHA-256 digest of every file it names (null when
the file is not written) must equal the record in cli_replay.json.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_replay.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from awr import cli

RECORD = Path(__file__).resolve().parent / "cli_replay.json"

TANGENT = "mobius-of-strip(a=0.25+0i)"
COMPOSITE = "koebe(mobius-shift(sector(a=0.5)), z0=0.3+0.2i)"

# id -> (argv, files the request may write)
REQUESTS = {
    "mediatrix-scan.disk": (["mediatrix-scan", "--map", "disk(x=0.5)"], []),
    "mediatrix-scan.sector.csv.svg": (
        ["mediatrix-scan", "--map", "sector(a=0.5)", "--csv", "out.csv",
         "--svg", "fig.svg"], ["out.csv", "fig.svg"]),
    "mediatrix-scan.strip.svg": (
        ["mediatrix-scan", "--map", "strip", "--svg", "fig.svg"], ["fig.svg"]),
    "mediatrix-scan.guard": (
        ["mediatrix-scan", "--map", TANGENT, "--csv", "out.csv", "--svg",
         "fig.svg"], ["out.csv", "fig.svg"]),
    "mediatrix-scan.unwritable-svg": (
        ["mediatrix-scan", "--map", "identity", "--csv", "out.csv", "--svg",
         "missing/fig.svg"], ["out.csv"]),
    "coeff-bound.guard": (
        ["coeff-bound", "--map", TANGENT, "--csv", "out.csv"], ["out.csv"]),
    "proof-check.guard": (
        ["proof-check", "--map", TANGENT, "--csv", "out.csv"], ["out.csv"]),
    "proof-check.zetas": (
        ["proof-check", "--map", "disk(x=0.5)", "--zetas=-0.5+0.1i,0.3+0i",
         "--csv", "out.csv"], ["out.csv"]),
    "quasidisk.identity": (
        ["quasidisk", "--map", "identity"], ["quasidisk_profile.csv"]),
    "quasidisk.tangent.svg": (
        ["quasidisk", "--map", TANGENT, "--rings", "0.99,0.999,0.9995",
         "--svg", "fig.svg"], ["quasidisk_profile.csv", "fig.svg"]),
    "quasidisk.disk.csv.angles": (
        ["quasidisk", "--map", "disk(x=0.5)", "--csv", "out.csv", "--angles",
         "256", "--seed", "3"], ["out.csv", "quasidisk_profile.csv"]),
    "quasidisk.sector.unsorted-rings.svg": (
        ["quasidisk", "--map", "sector(a=0.5)", "--rings", "0.999,0.99",
         "--angles", "512", "--svg", "fig.svg"],
        ["quasidisk_profile.csv", "fig.svg"]),
    "quasidisk.strip": (
        ["quasidisk", "--map", "strip"], ["quasidisk_profile.csv"]),
    "lemma32": (["lemma32"], []),
    "lemma32.csv": (
        ["lemma32", "--a-list", "0.5+0i,0.1+0.2i", "--csv", "out.csv"],
        ["out.csv"]),
    "reflect.sector.svg": (
        ["reflect", "--map", "sector(a=0.5)", "--z", "0.3+0.4i", "--svg",
         "fig.svg"], ["fig.svg"]),
    "reflect.strip.svg": (
        ["reflect", "--map", "strip", "--z", "0.5+0i", "--svg", "fig.svg"],
        ["fig.svg"]),
    "reflect.disk.grid.csv.svg": (
        ["reflect", "--map", "disk(x=0.5)", "--z=-0.5+0.1i", "--rings",
         "0.2,0.7", "--angles", "64", "--seed", "9", "--csv", "out.csv",
         "--svg", "fig.svg"], ["out.csv", "fig.svg"]),
    "reflect.bad-rings.csv": (
        ["reflect", "--map", "identity", "--z", "0.5+0i", "--rings", "0.5,0.4",
         "--csv", "out.csv"], ["out.csv"]),
    "reflect.bad-angles.ignored": (
        ["reflect", "--map", "identity", "--z", "0.5+0i", "--angles", "8"], []),
    "certify.sector.angles.csv": (
        ["certify", "--map", "sector(a=0.5)", "--angles", "512", "--seed", "5",
         "--csv", "out.csv"], ["out.csv"]),
    "certify.disk.rings": (
        ["certify", "--map", "disk(x=0.5)", "--rings", "0.1,0.5,0.9"], []),
    "certify.composite.csv": (
        ["certify", "--map", COMPOSITE, "--csv", "out.csv"], ["out.csv"]),
    "normalize.disk.grid": (
        ["normalize", "--map", "disk(x=0.5)", "--rings", "0.5,0.9", "--angles",
         "128"], []),
    "delta.strip-shift.grid.passes.csv": (
        ["delta", "--map", "strip-shift(x=0.7)", "--rings", "0.5,0.9",
         "--passes", "5", "--csv", "out.csv"], ["out.csv"]),
    "omission-scan.koebe.passes.csv": (
        ["omission-scan", "--map", "koebe(strip, z0=0.3+0.2i)", "--passes",
         "1", "--csv", "out.csv"], ["out.csv"]),
    "svg.halfplane.grid": (
        ["svg", "--map", "halfplane(c=-1+0i)", "--rings", "0.5,0.9",
         "--angles", "64", "--svg", "fig.svg"], ["fig.svg"]),
    "svg.unwritable": (
        ["svg", "--map", "identity", "--svg", "missing/fig.svg"], []),
    "help": (["--help"], []),
}
# every subcommand's help, which names the refinement-pass cap
REQUESTS.update({f"help.{cmd}": ([cmd, "--help"], []) for cmd in (
    "catalog", "certify", "reflect", "mediatrix-scan", "coeff-bound",
    "proof-check", "normalize", "delta", "quasidisk", "omission-scan",
    "lemma32", "svg")})


def replay(argv, files, work):
    """Run the CLI in-process in directory work; the observed outcome."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        # argparse wraps help text to the terminal width; pin it
        with mock.patch.dict(os.environ, COLUMNS="80"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as stop:  # argparse usage errors
                code = stop.code
        digests = {}
        for name in files:
            path = Path(name)
            digests[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                             if path.exists() else None)
    finally:
        os.chdir(here)
    return {"exit": int(code), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": digests}


def test_every_request_is_recorded():
    assert sorted(REQUESTS) == sorted(json.loads(RECORD.read_text()))


@pytest.mark.parametrize("req_id", sorted(REQUESTS))
def test_cli_request_matches_record(req_id, tmp_path):
    argv, files = REQUESTS[req_id]
    expected = json.loads(RECORD.read_text())[req_id]
    assert replay(argv, files, tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {}
    for req_id, (argv, files) in sorted(REQUESTS.items()):
        with tempfile.TemporaryDirectory() as work:
            record[req_id] = replay(argv, files, work)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
