"""Smoke test of the benchmark's traced replay.

detbench/replay.py wraps detpipe functions by name and calls some of the
CLI's private helpers, so a rename in the package would break the traced
half of the benchmark.  Each fixture pipeline is replayed in a subprocess,
as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "fixture, expected_spans",
    [
        # The masked fixture: its parse, NMS and mask decoding are layers
        # the mask-submission workload times.  ensemble fuses masked groups
        # from its table's columns, not through fuse_group, so no
        # ensemble.fuse_group span is recorded.
        (
            "pipeline",
            {"cli.run", "fileio.parse_prediction_table", "ensemble.nms", "geometry.mask_decode"},
        ),
        ("expert_pipeline", {"cli.run", "federated.expand_verification"}),
    ],
)
def test_traced_replay_runs_the_fixture_pipeline(tmp_path, fixture, expected_spans):
    result = tmp_path / "result.json"
    argv = [sys.executable, "detbench/replay.py", str(FIXTURES / fixture / "config.ini")]
    argv += [str(tmp_path / "run"), str(result), "t"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = {span["name"] for span in json.loads(result.read_text())["spans"]}
    assert expected_spans <= spans
