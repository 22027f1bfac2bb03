"""Tests of the benchmark's own code.

Run from the repository root: PYTHONPATH=src python -m pytest -q detbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_of_the_same_size(workload):
    a, b = workloads.generate(workload, 11), workloads.generate(workload, 12)
    assert a.keys() == b.keys()
    changed = [name for name in a if a[name] != b[name] and name.endswith(".csv")]
    assert "ground_truth.csv" in changed
    assert workloads.input_rows(a) == workloads.input_rows(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_parse_and_verify(workload):
    fileio = pytest.importorskip("detpipe.fileio")
    from detpipe.federated import expand_verification
    from detpipe.records import POSITIVE

    files = workloads.generate(workload, 3)
    gts = fileio.parse_ground_truth(files["ground_truth.csv"])
    expanded = expand_verification(
        fileio.parse_verification(files["verification.csv"]),
        fileio.parse_hierarchy(files["hierarchy.json"]),
    )
    assert all(expanded.status(g.image_id, g.category_id) == POSITIVE for g in gts)
    for name, data in files.items():
        if name.startswith(("model_", "expert_")):
            assert fileio.parse_predictions(data)


def test_self_time_subtracts_covered_child_intervals():
    parent = {"start": 0, "end": 10_000_000_000}
    children = [
        {"start": 1_000_000_000, "end": 3_000_000_000},
        {"start": 2_000_000_000, "end": 4_000_000_000},
        {"start": 9_000_000_000, "end": 12_000_000_000},
    ]
    assert layers.self_time(parent, children) == pytest.approx(6.0)


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in layers.LAYERS]
    recorded = json.loads((HERE / "recorded.json").read_text())
    assert set(recorded["digests"]) == set(workloads.WORKLOADS)
    assert set(recorded["workloads"]) == set(workloads.WORKLOADS)


def test_traced_cli_spans_the_calls_and_restores_the_modules(tmp_path):
    pytest.importorskip("detpipe")
    import importlib

    import replay
    from detpipe import cli

    ensemble = importlib.import_module("detpipe.ensemble")
    rows = "img0,a,0.9,10,10,50,50,,,\nimg0,a,0.8,12,12,52,52,,,\nimg1,b,0.7,5,5,40,40,,,\n"
    for name in ("m1.csv", "m2.csv"):
        (tmp_path / name).write_text(f"{workloads.PRED_HEADER}\n{rows}")
    config = tmp_path / "config.ini"
    config.write_text(
        "[ensemble]\ninputs = m1.csv m2.csv\nout = fused.csv\n\n"
        "[drop-small-masks]\nin = fused.csv\nout = kept.csv\n"
    )
    run_dir = (tmp_path / "run").resolve()
    before = (dict(vars(cli)), dict(vars(ensemble)))
    tracer = replay.Tracer("test")
    reads = {"intermediate_bytes": 0}
    with replay.traced_cli(tracer, run_dir, reads):
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert (dict(vars(cli)), dict(vars(ensemble))) == before

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    assert [s["rows_in"] for s in spans["ensemble.nms"]] == [3, 3]
    assert spans["ensemble.group_predictions"][0]["members"] == 4
    assert len(spans["ensemble.fuse_group"]) == spans["ensemble.group_predictions"][0]["groups"]
    assert spans["postprocess.drop_small_masks"][0]["dropped"] == 0
    ensemble_span = spans["ensemble.ensemble"][0]
    assert all(s["parent"] == ensemble_span["id"] for s in spans["ensemble.nms"])
    assert reads["intermediate_bytes"] == (run_dir / "fused.csv").stat().st_size
