"""Replay of the benchmark goldens in-process.

Every fixed CLI request of the benchmark must reproduce its recorded
exit code, stdout and file digests byte for byte, and every geometry
fixture its recorded mediatrix and ratio summary, so output drift fails
the test suite and not only the benchmark.  Files are written under
tmp_path only.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from awr import cli, convexity, errors, parser, quasidisk

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

LIB = types.SimpleNamespace(cli=cli, convexity=convexity, errors=errors,
                            quasidisk=quasidisk)
GOLDENS = json.loads((BENCH / "goldens.json").read_text())
REQUESTS = [req for group in workloads.cli_requests().values() for req in group]


def test_every_golden_request_is_replayed():
    assert sorted(req["id"] for req in REQUESTS) == sorted(GOLDENS["cli"])
    assert sorted(workloads.FIXTURE_TEXTS) == sorted(GOLDENS["geometry"])


@pytest.mark.parametrize("req", REQUESTS, ids=[req["id"] for req in REQUESTS])
def test_cli_request_matches_golden(req, tmp_path):
    work = str(tmp_path)
    code, stdout, _ = workloads.run_cli_inprocess(LIB, work, req["argv"])
    outcome = workloads.cli_outcome(work, req, code, stdout)
    assert workloads.check_cli(req, outcome, GOLDENS) == []


@pytest.mark.parametrize("name", sorted(workloads.FIXTURE_TEXTS))
def test_geometry_fixture_matches_golden(name):
    job = {"fixture": name, "expr": parser.parse_expr(workloads.FIXTURE_TEXTS[name])}
    summary = workloads.geometry_job(LIB, job)
    assert checks.compare(summary, GOLDENS["geometry"][name]) == []
