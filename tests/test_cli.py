import gc
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from _blake2 import blake2b
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from detpipe import (
    Box,
    EmbeddingTable,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    Roi,
    RoiPool,
    VerificationTable,
    classification_loss,
    drop_small_masks,
    ensemble,
    nms,
    trim_to_budget,
)
from detpipe import cli, fileio
from detpipe.fileio import serialized_size
from detpipe.table import PredictionTable

from timing import size_ratio

postprocess = importlib.import_module("detpipe.postprocess")

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


def write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def small_world(tmp_path: Path):
    predictions = [
        Prediction("im1", "c1", 0.9, Box(0, 0, 10, 10)),
        Prediction("im1", "c1", 0.8, Box(0, 0, 10, 10)),
        Prediction("im1", "c2", 0.7, Box(20, 20, 40, 40)),
        Prediction("im2", "c1", 0.6, Box(5, 5, 25, 25)),
    ]
    gts = [
        GroundTruthInstance("im1", "c1", Box(0, 0, 10, 10)),
        GroundTruthInstance("im1", "c2", Box(20, 20, 40, 40)),
        GroundTruthInstance("im2", "c1", Box(5, 5, 25, 25)),
    ]
    table = VerificationTable(
        {("im1", "c1"): 1, ("im1", "c2"): 1, ("im2", "c1"): 1, ("im2", "c2"): -1}
    )
    paths = {
        "preds": write(tmp_path / "preds.csv", fileio.write_predictions(predictions)),
        "gt": write(tmp_path / "gt.csv", fileio.write_ground_truth(gts)),
        "ver": write(tmp_path / "ver.csv", fileio.write_verification(table)),
        "hier": write(tmp_path / "hier.json", fileio.write_hierarchy(Hierarchy(()))),
    }
    return predictions, gts, table, paths


EXPERT, PIPELINE = FIXTURES / "expert_pipeline", FIXTURES / "pipeline"
# Each numeric flag of each subcommand, last in an argv whose other
# arguments are valid; outputs are named relative to the run's directory.
# partition-pool's --k writes k files, so no value from 4 to its limit of
# 16000 is given it.
_SAMPLE = ["sample-rois", "--rois", str(EXPERT / "rois.csv"),
           "--ground-truth", str(EXPERT / "ground_truth.csv"), "--out", "o.csv"]
_RANK = ["split-experts", "--by", "rank", "--stats", str(EXPERT / "stats.csv"), "--out", "o.csv"]
NUMERIC_FLAGS = {
    "nms --iou-threshold": ["nms", "--in", str(PIPELINE / "preds_a.csv"), "--out", "o.csv"],
    "ensemble --iou-threshold": [
        "ensemble", str(PIPELINE / "preds_a.csv"), str(PIPELINE / "preds_b.csv"), "--out", "o.csv"
    ],
    "assign --iou-threshold": [
        "assign", "--image-id", "im0", "--rois", str(EXPERT / "rois.csv"),
        "--ground-truth", str(EXPERT / "ground_truth.csv"),
        "--verification", str(EXPERT / "verification.csv"),
        "--hierarchy", str(EXPERT / "hierarchy.json"),
        "--categories", str(EXPERT / "categories.csv"), "--out", "o.csv",
    ],
    "eval --iou-threshold": [
        "eval", "--predictions", str(PIPELINE / "preds_a.csv"),
        "--ground-truth", str(PIPELINE / "ground_truth.csv"),
        "--verification", str(PIPELINE / "verification.csv"),
        "--hierarchy", str(PIPELINE / "hierarchy.json"), "--out-report", "o.csv",
    ],
    "sample-rois --n-sample": _SAMPLE,
    "sample-rois --fg-fraction": _SAMPLE,
    "sample-rois --fg-iou-threshold": _SAMPLE,
    "sample-rois --seed": _SAMPLE,
    "partition-pool --k": ["partition-pool", "--rois", str(EXPERT / "rois.csv"), "--out-prefix", "p"],
    "lr --batch-size": ["lr", "--at", "0.5"],
    "lr --eta0": ["lr", "--at", "0.5"],
    "lr --at": ["lr", "--eta0", "0.1"],
    "split-experts --start-rank": [*_RANK, "--end-rank", "6", "--num-experts", "2"],
    "split-experts --end-rank": [*_RANK, "--start-rank", "0", "--num-experts", "2"],
    "split-experts --num-experts": [*_RANK, "--start-rank", "0", "--end-rank", "6"],
    "filter-expert --group-index": [
        "filter-expert", "--ground-truth", str(EXPERT / "ground_truth.csv"),
        "--verification", str(EXPERT / "verification.csv"),
        "--group-file", str(EXPERT / "expected" / "groups.csv"),
        "--out-ground-truth", "g.csv", "--out-verification", "v.csv", "--out-images", "i.csv",
    ],
    "restrict --group-index": [
        "restrict", "--in", str(EXPERT / "expert_0.csv"),
        "--group-file", str(EXPERT / "expected" / "groups.csv"), "--out", "o.csv",
    ],
    "drop-small-masks --min-area": [
        "drop-small-masks", "--in", str(PIPELINE / "preds_a.csv"), "--out", "o.csv"
    ],
    "trim --max-bytes": [
        "trim", "--in", str(PIPELINE / "preds_a.csv"), "--out", "o.csv", "--report", "r.csv"
    ],
}
NUMERIC_FLAGS = {name: [*argv, name.split(" ")[1]] for name, argv in NUMERIC_FLAGS.items()}
NUMERIC_VALUES = {"10**400": str(10**400), "-10**400": str(-(10**400))}
NUMERIC_VALUES.update((text, text) for text in ("0", "-1", "nan", "inf", "-inf", "1e308", "3"))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run(["definitely-not-a-command"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli.run(["nms"]) == 2
        capsys.readouterr()

    def test_validation_error_is_exit_one(self, tmp_path, capsys):
        predictions, _, _, paths = small_world(tmp_path)
        code = cli.run(
            [
                "trim",
                "--in",
                str(paths["preds"]),
                "--max-bytes",
                "10",
                "--out",
                str(tmp_path / "out.csv"),
                "--report",
                str(tmp_path / "report.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error\tValidationError\t")

    def test_lr_needs_exactly_one_of_batch_size_and_eta0(self, capsys):
        assert cli.run(["lr", "--batch-size", "8", "--eta0", "0.1", "--at", "0.5"]) == 2
        assert cli.run(["lr", "--at", "0.5"]) == 2
        assert capsys.readouterr().out == ""

    def test_every_subcommand_has_help(self, capsys):
        for name in cli._STAGES:
            assert cli.run([name, "--help"]) == 0, name
        capsys.readouterr()

    def test_readme_table_names_every_subcommand(self):
        rows = re.findall(r"^\| `([a-z-]+)[ `]", README.read_text(), flags=re.MULTILINE)
        assert sorted(rows) == sorted(cli._STAGES)

    def test_missing_input_file_is_exit_one(self, tmp_path, capsys):
        code = cli.run(
            ["nms", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_batch_size_too_large_for_a_float(self, capsys):
        assert cli.run(["lr", "--batch-size", "1" + "0" * 400, "--at", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error\tValidationError\tbatch_size is too large to convert to a float\n"
        )

    def test_n_sample_too_large_for_a_float(self, tmp_path, capsys):
        expert = FIXTURES / "expert_pipeline"
        argv = [
            "sample-rois", "--rois", str(expert / "rois.csv"),
            "--ground-truth", str(expert / "ground_truth.csv"),
            "--out", str(tmp_path / "sampled.csv"), "--n-sample", "1" + "0" * 400,
        ]
        assert cli.run(argv) == 1
        assert capsys.readouterr() == (
            "", "error\tValidationError\tn_sample is too large to convert to a float\n"
        )
        assert not (tmp_path / "sampled.csv").exists()

    @pytest.mark.parametrize("value", NUMERIC_VALUES)
    @pytest.mark.parametrize("name", NUMERIC_FLAGS)
    def test_every_numeric_flag_keeps_the_error_contract(
        self, name, value, tmp_path, monkeypatch, capsys
    ):
        # Exit 0; exit 1 with one error line; or exit 2, argparse's usage
        # error, for a value its type does not read.  Never a traceback.
        monkeypatch.chdir(tmp_path)
        code = cli.run([*NUMERIC_FLAGS[name], NUMERIC_VALUES[value]])
        err = capsys.readouterr().err
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("error\t"), err
        elif code == 2:
            assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1], err
        else:
            assert (code, err) == (0, "")

    @staticmethod
    def run_with_small_address_space(argv, cwd):
        """Run the CLI in a child limited to 512 MB of address space, so an
        attempt to allocate per partition fails fast instead of filling the
        machine's memory."""
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from detpipe import cli\n"
            f"sys.exit(cli.run({argv!r}))\n"
        )
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": str(Path(cli.__file__).parents[1]),
        }
        return subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
            timeout=120,
        )

    def test_partition_count_above_the_pool_limit(self, tmp_path):
        # Any partition past the per-image pool limit is empty for every image.
        huge = "100000000000000000000"
        message = (
            "number of partitions must be at most 16000, the per-image pool limit, "
            f"got {huge}"
        )
        pool = write(tmp_path / "pool.csv", fileio.write_roi_pool(RoiPool({})))
        argv = ["partition-pool", "--rois", str(pool), "--k", huge, "--out-prefix", "part_"]
        child = self.run_with_small_address_space(argv, tmp_path)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == f"error\tValidationError\t{message}\n"
        config = write(
            tmp_path / "config.ini",
            f"[partition-pool]\nrois = {pool}\nk = {huge}\nout-prefix = part_\n".encode(),
        )
        argv = ["pipeline", "--config", str(config), "--run-dir", str(tmp_path / "run")]
        child = self.run_with_small_address_space(argv, tmp_path)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == f"error\tValidationError\tstage 'partition-pool': {message}\n"
        assert sorted(tmp_path.iterdir()) == sorted([pool, config])

    def test_partition_count_below_one_before_the_pool_is_read(self, tmp_path, capsys):
        pool = write(tmp_path / "pool.csv", b"not an RoI pool\n")
        argv = ["partition-pool", "--rois", str(pool), "--k", "0", "--out-prefix", "part_"]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == (
            "error\tValidationError\tnumber of partitions must be >= 1, got 0\n"
        )
        assert sorted(tmp_path.iterdir()) == [pool]

    def test_partition_count_below_one_before_any_stage(self, tmp_path, capsys):
        preds = FIXTURES / "pipeline" / "preds_a.csv"
        pool = write(tmp_path / "pool.csv", fileio.write_roi_pool(RoiPool({})))
        config = write(
            tmp_path / "config.ini",
            f"[nms]\nin = {preds}\nout = kept.csv\n\n"
            f"[partition-pool]\nrois = {pool}\nk = 0\nout-prefix = part_\n".encode(),
        )
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            "error\tValidationError\tstage 'partition-pool': "
            "number of partitions must be >= 1, got 0\n"
        )
        assert not run_dir.exists()

    def test_one_file_named_for_two_outputs(self, tmp_path, monkeypatch, capsys):
        # The later write would replace the earlier: trim's report its
        # predictions, or one of filter-expert's three outputs another.
        monkeypatch.chdir(tmp_path)
        _, _, _, paths = small_world(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        before = sorted(tmp_path.iterdir())
        expert = FIXTURES / "expert_pipeline"
        for argv, first, second in (
            (["trim", "--in", str(paths["preds"]), "--out", "t.csv", "--report", "t.csv"],
             "t.csv", "t.csv"),
            (["trim", "--in", str(paths["preds"]), "--out", "t.csv",
              "--report", str(tmp_path / "sub" / ".." / "t.csv")],
             "t.csv", str(tmp_path / "sub" / ".." / "t.csv")),
            (["trim", "--in", str(paths["preds"]), "--out", "t.csv",
              "--report", str(tmp_path / "link" / "t.csv")],
             "t.csv", str(tmp_path / "link" / "t.csv")),
            (["filter-expert", "--ground-truth", str(expert / "ground_truth.csv"),
              "--verification", str(expert / "verification.csv"),
              "--group-file", str(expert / "expected" / "groups.csv"), "--group-index", "0",
              "--out-ground-truth", "a.csv", "--out-verification", "b.csv",
              "--out-images", "./a.csv"],
             "a.csv", "./a.csv"),
        ):
            assert cli.run(argv) == 1
            assert capsys.readouterr() == (
                "", f"error\tValidationError\toutputs {first} and {second} are one file\n"
            )
        assert sorted(tmp_path.iterdir()) == before


class TestParseErrors:
    """A bad field is reported with its line, once."""

    def assert_one_error(self, capsys, argv, message):
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error\tParseError\t{message}\n"

    def test_bad_score(self, tmp_path, capsys):
        data = fileio.PREDICTIONS_HEADER.encode() + b"\nim1,c,abc,0,0,1,1,,,\n"
        preds = write(tmp_path / "preds.csv", data)
        argv = ["nms", "--in", str(preds), "--out", str(tmp_path / "out.csv")]
        self.assert_one_error(capsys, argv, "line 2: bad score 'abc'")

    def test_a_bad_ensemble_input_comes_before_a_bad_threshold(self, tmp_path, capsys):
        # The files are parsed one at a time, and every one of them is
        # parsed before the threshold is checked.
        data = fileio.PREDICTIONS_HEADER.encode() + b"\nim1,c,abc,0,0,1,1,,,\n"
        bad = write(tmp_path / "bad.csv", data)
        argv = [
            "ensemble", str(PIPELINE / "preds_a.csv"), str(bad),
            "--iou-threshold", "2", "--out", str(tmp_path / "out.csv"),
        ]
        self.assert_one_error(capsys, argv, "line 2: bad score 'abc'")
        assert not (tmp_path / "out.csv").exists()

    def test_bad_ground_truth_coordinate(self, tmp_path, capsys):
        _, _, _, paths = small_world(tmp_path)
        data = fileio.GROUND_TRUTH_HEADER.encode() + b"\nim1,c1,0,0,10,x,,,\n"
        write(paths["gt"], data)
        groups = write(tmp_path / "groups.csv", fileio.GROUPS_HEADER.encode() + b"\n0,c1\n")
        argv = [
            "filter-expert",
            "--ground-truth",
            str(paths["gt"]),
            "--verification",
            str(paths["ver"]),
            "--group-file",
            str(groups),
            "--out-ground-truth",
            str(tmp_path / "gt_out.csv"),
            "--out-verification",
            str(tmp_path / "ver_out.csv"),
            "--out-images",
            str(tmp_path / "images.csv"),
        ]
        self.assert_one_error(capsys, argv, "line 2: bad y_max 'x'")

    def test_bad_roi_coordinate(self, tmp_path, capsys):
        data = fileio.ROI_POOL_HEADER.encode() + b"\nim1,0,0,5,5,\nim1,zz,0,5,5,0.5\n"
        pool = write(tmp_path / "pool.csv", data)
        prefix = str(tmp_path / "p")
        argv = ["partition-pool", "--rois", str(pool), "--k", "2", "--out-prefix", prefix]
        self.assert_one_error(capsys, argv, "line 3: bad x_min 'zz'")

    def test_empty_verification_id(self, tmp_path, capsys):
        _, _, _, paths = small_world(tmp_path)
        write(paths["ver"], fileio.VERIFICATION_HEADER.encode() + b"\nim1,c1,1\n,c2,-1\n")
        groups = write(tmp_path / "groups.csv", fileio.GROUPS_HEADER.encode() + b"\n0,c1\n")
        argv = [
            "filter-expert",
            "--ground-truth",
            str(paths["gt"]),
            "--verification",
            str(paths["ver"]),
            "--group-file",
            str(groups),
            "--out-ground-truth",
            str(tmp_path / "gt_out.csv"),
            "--out-verification",
            str(tmp_path / "ver_out.csv"),
            "--out-images",
            str(tmp_path / "images.csv"),
        ]
        self.assert_one_error(capsys, argv, "line 3: image_id must be a non-empty string, got ''")

    def test_empty_roi_image_id(self, tmp_path, capsys):
        data = fileio.ROI_POOL_HEADER.encode() + b"\nim1,0,0,5,5,\n,1,0,5,5,0.5\n"
        pool = write(tmp_path / "pool.csv", data)
        prefix = str(tmp_path / "p")
        argv = ["partition-pool", "--rois", str(pool), "--k", "2", "--out-prefix", prefix]
        self.assert_one_error(capsys, argv, "line 3: image_id must be a non-empty string, got ''")

    def test_empty_stats_category_id(self, tmp_path, capsys):
        stats = write(tmp_path / "stats.csv", fileio.STATS_HEADER.encode() + b"\nc1,3\n,4\n")
        argv = [
            "split-experts",
            "--by",
            "rank",
            "--stats",
            str(stats),
            "--start-rank",
            "0",
            "--end-rank",
            "1",
            "--num-experts",
            "1",
            "--out",
            str(tmp_path / "groups.csv"),
        ]
        self.assert_one_error(
            capsys, argv, "line 3: category_id must be a non-empty string, got ''"
        )

    @pytest.mark.parametrize("stage", ["ensemble", "eval"])
    def test_mask_above_int64_pixels(self, tmp_path, capsys, stage):
        # Two overlapping rows whose masks have 10**21 pixels: fusion and
        # mask IoU would count their runs in int64.
        _, _, _, paths = small_world(tmp_path)
        row = b"im1,c1,0.9,0,0,10,10,1000000000000000000000,1,0 1000000000000000000000\n"
        header = fileio.PREDICTIONS_HEADER.encode() + b"\n"
        write(paths["preds"], header + row + row.replace(b"0.9", b"0.8", 1))
        if stage == "ensemble":
            argv = ["ensemble", str(paths["preds"]), "--out", str(tmp_path / "out.csv")]
        else:
            argv = [
                "eval",
                "--predictions",
                str(paths["preds"]),
                "--ground-truth",
                str(paths["gt"]),
                "--verification",
                str(paths["ver"]),
                "--hierarchy",
                str(paths["hier"]),
                "--mode",
                "mask",
                "--out-report",
                str(tmp_path / "report.csv"),
            ]
        self.assert_one_error(
            capsys,
            argv,
            "line 2: mask width*height = 1000000000000000000000 is above the int64 maximum",
        )

    def test_deeply_nested_hierarchy(self, tmp_path, capsys):
        _, _, _, paths = small_world(tmp_path)
        write(paths["hier"], b"[" * 200_000 + b"]" * 200_000)
        argv = [
            "eval",
            "--predictions",
            str(paths["preds"]),
            "--ground-truth",
            str(paths["gt"]),
            "--verification",
            str(paths["ver"]),
            "--hierarchy",
            str(paths["hier"]),
            "--out-report",
            str(tmp_path / "report.csv"),
        ]
        self.assert_one_error(capsys, argv, "line 1: invalid JSON: nested too deeply")


class TestSubcommands:
    def test_nms_writes_suppressed_file(self, tmp_path, capsys):
        predictions, _, _, paths = small_world(tmp_path)
        out = tmp_path / "nmsed.csv"
        assert cli.run(["nms", "--in", str(paths["preds"]), "--out", str(out)]) == 0
        assert fileio.parse_predictions(out.read_bytes()) == nms(predictions, 0.5)
        capsys.readouterr()

    def test_inputs_are_never_mutated(self, tmp_path, capsys):
        predictions, _, _, paths = small_world(tmp_path)
        before = paths["preds"].read_bytes()
        cli.run(["nms", "--in", str(paths["preds"]), "--out", str(tmp_path / "o.csv")])
        assert paths["preds"].read_bytes() == before
        capsys.readouterr()

    def test_ensemble_matches_library(self, tmp_path, capsys):
        predictions, _, _, paths = small_world(tmp_path)
        other = [
            Prediction("im1", "c1", 0.85, Box(1, 1, 11, 11)),
            Prediction("im2", "c1", 0.55, Box(5, 5, 25, 25)),
        ]
        second = write(tmp_path / "preds_b.csv", fileio.write_predictions(other))
        out = tmp_path / "fused.csv"
        code = cli.run(
            ["ensemble", str(paths["preds"]), str(second), "--out", str(out)]
        )
        assert code == 0
        assert fileio.parse_predictions(out.read_bytes()) == ensemble(
            [predictions, other], 0.5
        )
        capsys.readouterr()

    def test_drop_small_masks_and_trim(self, tmp_path, capsys):
        masked = [
            Prediction("im1", "c1", 0.9, Box(0, 0, 10, 10), fileio.parse_predictions(
                fileio.PREDICTIONS_HEADER + "\nim1,c1,0.9,0.0,0.0,10.0,10.0,50,40,0 2000\n"
            )[0].mask),
            Prediction("im1", "c1", 0.5, Box(0, 0, 10, 10)),
        ]
        source = write(tmp_path / "masked.csv", fileio.write_predictions(masked))
        out = tmp_path / "filtered.csv"
        assert cli.run(
            ["drop-small-masks", "--in", str(source), "--min-area", "1600", "--out", str(out)]
        ) == 0
        assert fileio.parse_predictions(out.read_bytes()) == drop_small_masks(masked, 1600)

        trimmed = tmp_path / "trimmed.csv"
        report = tmp_path / "trim_report.csv"
        budget = serialized_size(masked[:1])
        assert cli.run(
            [
                "trim",
                "--in",
                str(source),
                "--max-bytes",
                str(budget),
                "--out",
                str(trimmed),
                "--report",
                str(report),
            ]
        ) == 0
        survivors, lib_report = trim_to_budget(masked, budget)
        assert fileio.parse_predictions(trimmed.read_bytes()) == survivors
        report_text = report.read_text()
        assert f"summary,final_bytes,{lib_report.final_bytes}" in report_text
        assert f"summary,budget,{budget}" in report_text
        capsys.readouterr()

    def test_assign_then_loss(self, tmp_path, capsys):
        _, gts, table, paths = small_world(tmp_path)
        pool = RoiPool(
            {
                "im1": (
                    Roi(Box(0, 0, 10, 10)),
                    Roi(Box(100, 100, 120, 120)),
                    Roi(Box(20, 20, 40, 40)),
                )
            }
        )
        rois = write(tmp_path / "pool.csv", fileio.write_roi_pool(pool))
        categories = write(
            tmp_path / "categories.csv", fileio.write_category_list(["c1", "c2"])
        )
        labels_out = tmp_path / "labels.csv"
        code = cli.run(
            [
                "assign",
                "--image-id",
                "im1",
                "--rois",
                str(rois),
                "--ground-truth",
                str(paths["gt"]),
                "--verification",
                str(paths["ver"]),
                "--hierarchy",
                str(paths["hier"]),
                "--categories",
                str(categories),
                "--out",
                str(labels_out),
            ]
        )
        assert code == 0
        matrix = fileio.parse_label_matrix(labels_out.read_bytes())
        assert matrix.values.tolist() == [[1, -1], [-1, -1], [-1, 1]]

        logits = np.array([[2.0, -2.0], [-1.0, -1.0], [-3.0, 4.0]])
        logits_path = write(
            tmp_path / "logits.csv", fileio.write_logit_matrix(logits, ("c1", "c2"))
        )
        capsys.readouterr()
        code = cli.run(["loss", "--labels", str(labels_out), "--logits", str(logits_path)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        prefix, value = out.split(",", 1)
        assert prefix == "loss"
        assert float(value) == pytest.approx(
            classification_loss(logits, matrix), abs=0.0
        )

    def test_sample_rois_deterministic(self, tmp_path, capsys):
        _, _, _, paths = small_world(tmp_path)
        rng = np.random.default_rng(80)
        images = {}
        for i in range(3):
            rois = tuple(
                Roi(Box(x, x, x + 10, x + 10))
                for x in rng.uniform(0, 100, size=12)
            )
            images[f"im{i + 1}"] = rois
        pool_path = write(tmp_path / "pool.csv", fileio.write_roi_pool(RoiPool(images)))
        out_a = tmp_path / "sample_a.csv"
        out_b = tmp_path / "sample_b.csv"
        argv = [
            "sample-rois",
            "--rois",
            str(pool_path),
            "--ground-truth",
            str(paths["gt"]),
            "--n-sample",
            "5",
            "--seed",
            "7",
        ]
        assert cli.run(argv + ["--out", str(out_a)]) == 0
        assert cli.run(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        samples = fileio.parse_sampled_indices(out_a.read_bytes())
        assert set(samples) == set(images)
        for image_id, indices in samples.items():
            assert len(indices) == 5
            assert len(set(indices)) == 5
        capsys.readouterr()

    def test_sample_rois_time_is_linear(self, tmp_path, capsys):
        # One RoI and two ground truths per image: about 2x for twice the
        # images when each image looks up only its own boxes, 4x when each
        # image scans every ground truth.
        def argv(n_images):
            pool = RoiPool({f"im{i}": (Roi(Box(0.0, 0.0, 10.0, 10.0)),) for i in range(n_images)})
            gts = [
                GroundTruthInstance(f"im{i}", "c", Box(float(k), 0.0, 10.0 + k, 10.0))
                for i in range(n_images)
                for k in range(2)
            ]
            folder = tmp_path / str(n_images)
            folder.mkdir()
            return [
                "sample-rois",
                "--rois", str(write(folder / "pool.csv", fileio.write_roi_pool(pool))),
                "--ground-truth", str(write(folder / "gt.csv", fileio.write_ground_truth(gts))),
                "--n-sample", "1",
                "--out", str(folder / "sampled.csv"),
            ]

        def run(args) -> None:
            assert cli.run(args) == 0

        small, large = argv(2000), argv(4000)
        assert size_ratio(run, small, large) <= 2.5
        capsys.readouterr()

    def test_partition_pool_outputs_cover_input(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        images = {
            "im1": tuple(Roi(Box(x, 0, x + 5, 5)) for x in rng.uniform(0, 50, size=7)),
            "im2": tuple(Roi(Box(x, 0, x + 5, 5)) for x in rng.uniform(0, 50, size=4)),
        }
        pool = RoiPool(images)
        pool_path = write(tmp_path / "pool.csv", fileio.write_roi_pool(pool))
        prefix = tmp_path / "part"
        assert cli.run(
            ["partition-pool", "--rois", str(pool_path), "--k", "3", "--out-prefix", str(prefix)]
        ) == 0
        partitions = [
            fileio.parse_roi_pool((tmp_path / f"part{i}.csv").read_bytes())
            for i in range(3)
        ]
        for image_id, rois in images.items():
            merged = [None] * len(rois)
            for index, part in enumerate(partitions):
                for offset, roi in enumerate(part.images.get(image_id, ())):
                    merged[index + offset * 3] = roi
            assert tuple(merged) == rois
        capsys.readouterr()

    def test_lr_prints_schedule(self, capsys):
        code = cli.run(["lr", "--batch-size", "240", "--at", "0", "--at", "0.5", "--at", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split(",")[1]) for line in lines]
        assert values[0] == pytest.approx(0.3, abs=1e-15)
        assert values[1] == pytest.approx(0.15, abs=1e-12)
        assert values[2] == 0.0

    def test_split_experts_rank(self, tmp_path, capsys):
        from detpipe import CategoryStats

        stats = CategoryStats({f"cat{i:03d}": 10 + i for i in range(120)})
        stats_path = write(tmp_path / "stats.csv", fileio.write_category_stats(stats))
        out = tmp_path / "groups.csv"
        code = cli.run(
            [
                "split-experts",
                "--by",
                "rank",
                "--stats",
                str(stats_path),
                "--start-rank",
                "50",
                "--end-rank",
                "100",
                "--num-experts",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        groups = fileio.parse_category_groups(out.read_bytes())
        assert [len(g) for g in groups] == [10] * 5
        capsys.readouterr()

    def test_split_experts_embedding(self, tmp_path, capsys):
        rng = np.random.default_rng(83)
        vectors = {f"c{i}": rng.normal(size=3).tolist() for i in range(9)}
        table = EmbeddingTable(vectors)
        emb_path = write(tmp_path / "emb.csv", fileio.write_embeddings(table))
        out = tmp_path / "groups.csv"
        code = cli.run(
            [
                "split-experts",
                "--by",
                "embedding",
                "--embeddings",
                str(emb_path),
                "--k",
                "3",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        groups = fileio.parse_category_groups(out.read_bytes())
        assert sorted(c for g in groups for c in g.categories) == sorted(vectors)
        capsys.readouterr()

    def test_split_experts_missing_mode_flags(self, tmp_path, capsys):
        code = cli.run(
            ["split-experts", "--by", "rank", "--out", str(tmp_path / "g.csv")]
        )
        assert code == 1
        capsys.readouterr()

    def test_filter_expert_and_restrict(self, tmp_path, capsys):
        predictions, gts, table, paths = small_world(tmp_path)
        groups_path = write(
            tmp_path / "groups.csv",
            fileio.GROUPS_HEADER.encode() + b"\n0,c1\n1,c2\n",
        )
        out_gt = tmp_path / "expert_gt.csv"
        out_ver = tmp_path / "expert_ver.csv"
        out_images = tmp_path / "expert_images.csv"
        code = cli.run(
            [
                "filter-expert",
                "--ground-truth",
                str(paths["gt"]),
                "--verification",
                str(paths["ver"]),
                "--group-file",
                str(groups_path),
                "--group-index",
                "0",
                "--out-ground-truth",
                str(out_gt),
                "--out-verification",
                str(out_ver),
                "--out-images",
                str(out_images),
            ]
        )
        assert code == 0
        kept = fileio.parse_ground_truth(out_gt.read_bytes())
        assert all(g.category_id == "c1" for g in kept)
        assert fileio.parse_image_list(out_images.read_bytes()) == ["im1", "im2"]

        out_preds = tmp_path / "restricted.csv"
        code = cli.run(
            [
                "restrict",
                "--in",
                str(paths["preds"]),
                "--group-file",
                str(groups_path),
                "--group-index",
                "1",
                "--out",
                str(out_preds),
            ]
        )
        assert code == 0
        restricted = fileio.parse_predictions(out_preds.read_bytes())
        assert [p.category_id for p in restricted] == ["c2"]
        capsys.readouterr()

    def test_restrict_needs_group_index_for_multi_group_file(self, tmp_path, capsys):
        _, _, _, paths = small_world(tmp_path)
        groups_path = write(
            tmp_path / "groups.csv",
            fileio.GROUPS_HEADER.encode() + b"\n0,c1\n1,c2\n",
        )
        code = cli.run(
            [
                "restrict",
                "--in",
                str(paths["preds"]),
                "--group-file",
                str(groups_path),
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        capsys.readouterr()


class TestEvalCommand:
    def run_eval(self, directory: Path, out_report: Path, extra=()):
        return cli.run(
            [
                "eval",
                "--predictions",
                str(directory / "predictions.csv"),
                "--ground-truth",
                str(directory / "ground_truth.csv"),
                "--verification",
                str(directory / "verification.csv"),
                "--hierarchy",
                str(directory / "hierarchy.json"),
                "--out-report",
                str(out_report),
                *extra,
            ]
        )

    def test_perfect_fixture_prints_one(self, tmp_path, capsys):
        code = self.run_eval(FIXTURES / "perfect_eval", tmp_path / "report.csv")
        assert code == 0
        assert capsys.readouterr().out.strip() == "mAP,1.000000"

    def test_golden_fixture_prints_hand_value(self, tmp_path, capsys):
        code = self.run_eval(FIXTURES / "golden_eval", tmp_path / "report.csv")
        assert code == 0
        assert capsys.readouterr().out.strip() == "mAP,0.616667"
        report = (tmp_path / "report.csv").read_text()
        assert report.splitlines()[0] == fileio.EVAL_REPORT_HEADER
        assert "c1,0.7333333333333334,3,6,1" in report
        assert "c2,0.5,1,3,1" in report

    def test_box_mode_builds_no_row_views(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("eval built row views")

        monkeypatch.setattr(PredictionTable, "rows", refuse)
        monkeypatch.setattr(fileio, "parse_predictions", refuse)
        code = self.run_eval(FIXTURES / "golden_eval", tmp_path / "report.csv")
        assert code == 0
        assert capsys.readouterr().out.strip() == "mAP,0.616667"
        assert "c1,0.7333333333333334,3,6,1" in (tmp_path / "report.csv").read_text()


class TestPipeline:
    def test_matches_manual_subcommands(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        run_dir = tmp_path / "run"
        code = cli.run(
            ["pipeline", "--config", str(fixture / "config.ini"), "--run-dir", str(run_dir)]
        )
        assert code == 0

        manual = tmp_path / "manual"
        manual.mkdir()
        config_text = (fixture / "config.ini").read_text()
        budget = next(
            line.split("=")[1].strip()
            for line in config_text.splitlines()
            if line.startswith("max-bytes")
        )
        assert cli.run(
            [
                "ensemble",
                str(fixture / "preds_a.csv"),
                str(fixture / "preds_b.csv"),
                "--iou-threshold",
                "0.5",
                "--out",
                str(manual / "ensembled.csv"),
            ]
        ) == 0
        assert cli.run(
            [
                "drop-small-masks",
                "--in",
                str(manual / "ensembled.csv"),
                "--min-area",
                "1600",
                "--out",
                str(manual / "filtered.csv"),
            ]
        ) == 0
        assert cli.run(
            [
                "trim",
                "--in",
                str(manual / "filtered.csv"),
                "--max-bytes",
                budget,
                "--out",
                str(manual / "trimmed.csv"),
                "--report",
                str(manual / "trim_report.csv"),
            ]
        ) == 0
        assert cli.run(
            [
                "eval",
                "--predictions",
                str(manual / "trimmed.csv"),
                "--ground-truth",
                str(fixture / "ground_truth.csv"),
                "--verification",
                str(fixture / "verification.csv"),
                "--hierarchy",
                str(fixture / "hierarchy.json"),
                "--mode",
                "box",
                "--iou-threshold",
                "0.5",
                "--out-report",
                str(manual / "eval_report.csv"),
            ]
        ) == 0
        for name in (
            "ensembled.csv",
            "filtered.csv",
            "trimmed.csv",
            "trim_report.csv",
            "eval_report.csv",
        ):
            assert (run_dir / name).read_bytes() == (manual / name).read_bytes(), name
        capsys.readouterr()

    def test_expert_chain_matches_recorded_outputs(self, tmp_path, capsys):
        # expected/ holds the outputs and standard output recorded by
        # scripts/make_pipeline_fixture.py; every output file is compared.
        fixture = FIXTURES / "expert_pipeline"
        expected = fixture / "expected"
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert cli.run(
            ["pipeline", "--config", str(fixture / "config.ini"), "--run-dir", str(run_dir)]
        ) == 0
        assert capsys.readouterr().out == (expected / "stdout.txt").read_text()
        outputs = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
        assert outputs == sorted(p.name for p in expected.iterdir() if p.name != "stdout.txt")
        for name in outputs:
            assert (run_dir / name).read_bytes() == (expected / name).read_bytes(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert {s["stage"] for s in manifest["stages"]} == {
            "split-experts",
            "filter-expert",
            "restrict",
            "ensemble",
            "partition-pool",
            "sample-rois",
            "assign",
            "loss",
        }

    def test_manifest_records_stages(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        run_dir = tmp_path / "run"
        assert cli.run(
            ["pipeline", "--config", str(fixture / "config.ini"), "--run-dir", str(run_dir)]
        ) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert [s["stage"] for s in manifest["stages"]] == [
            "ensemble",
            "drop-small-masks",
            "trim",
            "eval",
        ]
        assert all(s["status"] == "ok" for s in manifest["stages"])
        for stage in manifest["stages"]:
            for output in stage["outputs"]:
                assert Path(output).exists()
        capsys.readouterr()

    def test_missing_input_fails_before_any_stage(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_text(
            "[nms]\nin = does_not_exist.csv\nout = out.csv\n"
        )
        run_dir = tmp_path / "run"
        code = cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)])
        assert code == 1
        assert not (run_dir / "out.csv").exists()
        assert not (run_dir / "manifest.json").exists()
        capsys.readouterr()

    def test_unknown_stage_rejected(self, tmp_path, capsys):
        # A config may name every subcommand except the pipeline itself.
        for stage in ("launch-rockets", "pipeline"):
            config = tmp_path / "config.ini"
            config.write_text(f"[{stage}]\nout = x\n")
            assert cli.run(
                ["pipeline", "--config", str(config), "--run-dir", str(tmp_path / "r")]
            ) == 1, stage
            assert "unknown stage" in capsys.readouterr().err

    def assert_fails_before_any_stage(self, config_bytes: bytes, tmp_path, capsys):
        config = write(tmp_path / "config.ini", config_bytes)
        run_dir = tmp_path / "run"
        code = cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error\t")
        assert "Traceback" not in captured.err
        assert not (run_dir / "manifest.json").exists()
        return captured.err

    def test_config_not_utf8(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        self.assert_fails_before_any_stage(
            b"[nms]\nin = " + str(fixture / "preds_a.csv").encode() + b"\nout = o\xff\xfe.csv\n",
            tmp_path,
            capsys,
        )

    def test_config_bad_byte_names_its_line(self, tmp_path, capsys):
        err = self.assert_fails_before_any_stage(
            b"[nms]\nin = preds.csv\nout = o\xff.csv\n", tmp_path, capsys
        )
        assert "line 3: not valid UTF-8 at byte 8 of the line: 0xff" in err

    def test_key_must_name_a_flag(self, tmp_path, capsys):
        # argparse would take "iou" as an abbreviation of --iou-threshold and
        # "help" as a help request; a config key must name a flag exactly.
        preds = FIXTURES / "pipeline" / "preds_a.csv"
        for key in ("iou", "help"):
            self.assert_fails_before_any_stage(
                f"[nms]\nin = {preds}\nout = o.csv\n{key} = 0.5\n".encode(), tmp_path, capsys
            )

    def test_partition_count_not_an_integer(self, tmp_path, capsys):
        pool = write(tmp_path / "pool.csv", fileio.write_roi_pool(RoiPool({})))
        self.assert_fails_before_any_stage(
            f"[partition-pool]\nrois = {pool}\nk = abc\nout-prefix = part_\n".encode(),
            tmp_path,
            capsys,
        )

    def test_one_file_named_for_two_outputs(self, tmp_path, capsys):
        preds = FIXTURES / "pipeline" / "preds_a.csv"
        expert = FIXTURES / "expert_pipeline"
        run_dir = (tmp_path / "run").resolve()
        for label, section, first, second in (
            ("trim", "in = kept.csv\nout = t.csv\nreport = t.csv\n", "t.csv", "t.csv"),
            (
                "trim",
                "in = kept.csv\nout = t.csv\nreport = sub/../t.csv\n",
                "t.csv",
                "sub/../t.csv",
            ),
            (
                "filter-expert",
                f"ground-truth = {expert / 'ground_truth.csv'}\n"
                f"verification = {expert / 'verification.csv'}\n"
                f"group-file = {expert / 'expected' / 'groups.csv'}\ngroup-index = 0\n"
                "out-ground-truth = a.csv\nout-verification = b.csv\nout-images = ./a.csv\n",
                "a.csv",
                "a.csv",
            ),
        ):
            config = f"[nms]\nin = {preds}\nout = kept.csv\n\n[{label}]\n{section}"
            err = self.assert_fails_before_any_stage(config.encode(), tmp_path, capsys)
            assert err == (
                f"error\tValidationError\tstage {label!r}: "
                f"outputs {run_dir / first} and {run_dir / second} are one file\n"
            )
            assert not run_dir.exists()

    def test_output_at_the_manifest(self, tmp_path, capsys):
        # The manifest would replace the stage's output, and a later reader
        # of that path would fail on the JSON.
        preds = FIXTURES / "pipeline" / "preds_a.csv"
        run_dir = (tmp_path / "run").resolve()
        for out in ("manifest.json", "sub/../manifest.json", str(run_dir / "manifest.json")):
            err = self.assert_fails_before_any_stage(
                f"[nms]\nin = {preds}\nout = {out}\n".encode(), tmp_path, capsys
            )
            assert err == (
                f"error\tValidationError\tstage 'nms': "
                f"output {run_dir / out} is the run's manifest\n"
            )
            assert not run_dir.exists()
        # The same file through a link to the run directory.
        run_dir.mkdir()
        link = tmp_path / "link"
        link.symlink_to(run_dir, target_is_directory=True)
        err = self.assert_fails_before_any_stage(
            f"[nms]\nin = {preds}\nout = {link / 'manifest.json'}\n".encode(), tmp_path, capsys
        )
        assert "is the run's manifest" in err
        assert list(run_dir.iterdir()) == []

    def test_failing_stage_recorded_in_manifest(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        config = tmp_path / "config.ini"
        config.write_text(
            "[ensemble]\n"
            f"inputs = {fixture / 'preds_a.csv'} {fixture / 'preds_b.csv'}\n"
            "out = step1.csv\n"
            "\n"
            "[trim]\n"
            "in = step1.csv\n"
            "max-bytes = 1\n"
            "out = step2.csv\n"
            "report = report.csv\n"
        )
        run_dir = tmp_path / "run"
        code = cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)])
        assert code == 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"][0]["status"] == "ok"
        assert manifest["stages"][1]["status"] == "failed"
        assert "budget" in manifest["stages"][1]["error"]
        capsys.readouterr()

    def test_manifest_is_sufficient_to_rerun(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        run_dir = tmp_path / "run"
        assert cli.run(
            ["pipeline", "--config", str(fixture / "config.ini"), "--run-dir", str(run_dir)]
        ) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        outputs = {
            Path(path): Path(path).read_bytes()
            for stage in manifest["stages"]
            for path in stage["outputs"]
        }
        for stage in manifest["stages"]:
            assert cli.run(stage["argv"]) == 0
        for path, before in outputs.items():
            assert path.read_bytes() == before
        capsys.readouterr()

    def test_repeated_stage_labels(self, tmp_path, capsys):
        fixture = FIXTURES / "pipeline"
        config = tmp_path / "config.ini"
        config.write_text(
            "[nms.first]\n"
            f"in = {fixture / 'preds_a.csv'}\n"
            "out = a.csv\n"
            "\n"
            "[nms.second]\n"
            f"in = {fixture / 'preds_b.csv'}\n"
            "out = b.csv\n"
        )
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "a.csv").exists()
        assert (run_dir / "b.csv").exists()
        capsys.readouterr()

    def test_parser_is_built_once_per_run(self, tmp_path, monkeypatch, capsys):
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        config = FIXTURES / "pipeline" / "config.ini"
        for runs in (1, 2):
            run_dir = tmp_path / str(runs)
            assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
            assert len(built) == runs
        capsys.readouterr()


def counting_fileio(monkeypatch) -> Counter:
    """Point cli.fileio at wrappers that count each public function's calls,
    as the benchmark's traced run wraps it."""
    calls: Counter = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(
        cli,
        "fileio",
        SimpleNamespace(
            **{
                name: counted(name, obj) if inspect.isfunction(obj) else obj
                for name, obj in vars(fileio).items()
                if not name.startswith("_")
            }
        ),
    )
    return calls


class TestVerificationErrors:
    """The stages that read a verification file, given a damaged one: each
    exits 0, or 1 with exactly one error line, and leaves no partial or
    temporary output."""

    EXPERT = FIXTURES / "expert_pipeline"
    VERIFICATION = (EXPERT / "verification.csv").read_bytes()
    # (damaged file, chunk size, the error type each stage gives, or None
    # where it succeeds).  The fixture verifies im1,owl positive on line 7.
    CASES = {
        "other sign in one chunk": (VERIFICATION + b"im1,owl,-1\n", 4096, "ParseError"),
        "other sign across chunks": (VERIFICATION + b"im1,owl,-1\n", 2, "ParseError"),
        "sign 0": (VERIFICATION.replace(b"im1,dog,1", b"im1,dog,0"), 4096, "ParseError"),
        "carriage return": (VERIFICATION.replace(b"im0,cat,1\n", b"im0,cat,1\r\n"), 4096, "ParseError"),
        "invalid UTF-8": (VERIFICATION.replace(b"im2,duck", b"im2,d\xffuck"), 4096, "ParseError"),
        "empty file": (b"", 4096, "ParseError"),
        # duck is a bird, and a bird an animal: im9 has no ground truth, so
        # filter-expert drops it, and the stages that expand fail on it.
        "conflict on another image": (
            VERIFICATION + b"im9,duck,1\nim9,animal,-1\n",
            4096,
            {"assign": "ValidationError", "filter-expert": None, "eval": "ValidationError"},
        ),
    }

    def argv(self, stage: str, inputs: Path, out: Path) -> list[str]:
        common = ["--ground-truth", str(inputs / "ground_truth.csv")]
        common += ["--verification", str(inputs / "verification.csv")]
        if stage == "assign":
            return [
                "assign", *common, "--image-id", "im0", "--rois", str(inputs / "rois.csv"),
                "--hierarchy", str(inputs / "hierarchy.json"),
                "--categories", str(inputs / "categories.csv"), "--out", str(out / "labels.csv"),
            ]
        if stage == "filter-expert":
            return [
                "filter-expert", *common, "--group-file", str(inputs / "groups.csv"),
                "--group-index", "0", "--out-ground-truth", str(out / "gt.csv"),
                "--out-verification", str(out / "verification.csv"),
                "--out-images", str(out / "images.csv"),
            ]
        return [
            "eval", *common, "--predictions", str(inputs / "expert_0.csv"),
            "--hierarchy", str(inputs / "hierarchy.json"), "--out-report", str(out / "report.csv"),
        ]

    @pytest.mark.parametrize("stage", ["assign", "filter-expert", "eval"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_one_error_line_and_no_partial_output(self, tmp_path, monkeypatch, capsys, stage, case):
        data, chunk_lines, expected = self.CASES[case]
        expected = expected[stage] if isinstance(expected, dict) else expected
        inputs = shutil.copytree(
            self.EXPERT, tmp_path / "inputs", ignore=shutil.ignore_patterns("expected")
        )
        shutil.copy(self.EXPERT / "expected" / "groups.csv", inputs / "groups.csv")
        write(inputs / "verification.csv", data)
        given = {path.name: path.read_bytes() for path in inputs.iterdir()}
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk_lines)
        status = cli.run(self.argv(stage, inputs, out))
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if expected is None:
            assert (status, captured.err) == (0, "")
        else:
            assert status == 1
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
            assert captured.err.startswith(f"error\t{expected}\t")
            assert list(out.iterdir()) == []
        assert not [path for path in out.iterdir() if path.name.startswith(".")]
        assert {path.name: path.read_bytes() for path in inputs.iterdir()} == given

    @pytest.mark.parametrize("stage", ["assign", "filter-expert", "eval"])
    def test_a_carriage_return_names_its_line(self, tmp_path, capsys, stage):
        # The fixture's line 3 is im0,cat,1.
        inputs = shutil.copytree(
            self.EXPERT, tmp_path / "inputs", ignore=shutil.ignore_patterns("expected")
        )
        shutil.copy(self.EXPERT / "expected" / "groups.csv", inputs / "groups.csv")
        write(
            inputs / "verification.csv",
            self.VERIFICATION.replace(b"im0,cat,1\n", b"im0,cat,1\r\n"),
        )
        out = tmp_path / "out"
        out.mkdir()
        assert cli.run(self.argv(stage, inputs, out)) == 1
        assert capsys.readouterr().err == (
            "error\tParseError\tline 3: carriage returns are not allowed; "
            "files are LF-terminated\n"
        )


class TestSharedInputs:
    """A file that several stages of one pipeline run read is parsed once."""

    EXPERT = FIXTURES / "expert_pipeline"

    def test_parsed_once_per_run(self, tmp_path, monkeypatch, capsys):
        # filter-expert, sample-rois and assign all read ground_truth.csv;
        # filter-expert and assign read verification.csv, sample-rois and
        # assign rois.csv.
        fixture = self.EXPERT
        config = write(
            tmp_path / "config.ini",
            f"[filter-expert]\nground-truth = {fixture / 'ground_truth.csv'}\n"
            f"verification = {fixture / 'verification.csv'}\n"
            f"group-file = {fixture / 'expected' / 'groups.csv'}\ngroup-index = 0\n"
            "out-ground-truth = gt_0.csv\nout-verification = ver_0.csv\n"
            "out-images = images_0.csv\n\n"
            f"[sample-rois]\nrois = {fixture / 'rois.csv'}\n"
            f"ground-truth = {fixture / 'ground_truth.csv'}\nn-sample = 2\nout = sampled.csv\n\n"
            f"[assign]\nimage-id = im0\nrois = {fixture / 'rois.csv'}\n"
            f"ground-truth = {fixture / 'ground_truth.csv'}\n"
            f"verification = {fixture / 'verification.csv'}\n"
            f"hierarchy = {fixture / 'hierarchy.json'}\n"
            f"categories = {fixture / 'categories.csv'}\nout = labels.csv\n".encode(),
        )
        calls = counting_fileio(monkeypatch)
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        parses = {name: n for name, n in calls.items() if name.startswith("parse_")}
        assert parses == {
            "parse_ground_truth": 1,
            "parse_verification": 1,
            "parse_category_groups": 1,
            "parse_roi_pool": 1,
            "parse_hierarchy": 1,
            "parse_category_list": 1,
        }
        # A single subcommand has no later reader: each run parses its inputs.
        calls.clear()
        plan = json.loads((run_dir / "manifest.json").read_text())["stages"][2]
        assert cli.run(plan["argv"]) == 0
        assert cli.run(plan["argv"]) == 0
        assert {name: n for name, n in calls.items() if name.startswith("parse_")} == {
            "parse_ground_truth": 2,
            "parse_verification": 2,
            "parse_roi_pool": 2,
            "parse_hierarchy": 2,
            "parse_category_list": 2,
        }
        assert cli._store == {}
        capsys.readouterr()

    def test_expert_files_are_handed_on(self, tmp_path, monkeypatch, capsys):
        # split-experts hands its groups to every filter-expert and restrict,
        # partition-pool part_0.csv to sample-rois and both assigns, and
        # each assign its label matrix to its loss: of those files only the
        # fixture's rois.csv is parsed, and the outputs stay as recorded.
        expected = self.EXPERT / "expected"
        calls = counting_fileio(monkeypatch)
        run_dir = tmp_path / "run"
        config = str(self.EXPERT / "config.ini")
        assert cli.run(["pipeline", "--config", config, "--run-dir", str(run_dir)]) == 0
        parses = [calls[f"parse_{name}"] for name in ("label_matrix", "roi_pool", "category_groups")]
        assert parses == [0, 1, 0]
        assert capsys.readouterr().out == (expected / "stdout.txt").read_text()
        for path in expected.iterdir():
            if path.name != "stdout.txt":
                assert (run_dir / path.name).read_bytes() == path.read_bytes(), path.name
        assert cli._store == {}

    def test_a_matrix_the_parser_rejects_is_not_handed(self, tmp_path, capsys):
        # With no categories, and a threshold that assigns no RoI of im0,
        # assign writes a label matrix without cells, which the parser
        # rejects: loss parses it and fails as it does when run alone.
        inputs = shutil.copytree(
            self.EXPERT, tmp_path / "inputs", ignore=shutil.ignore_patterns("expected")
        )
        write(inputs / "categories.csv", fileio.write_category_list([]))
        text = (inputs / "config.ini").read_text()
        sections = text[text.index("[partition-pool]") : text.index("[sample-rois]")]
        sections += text[text.index("[assign.im0]") :].replace("iou-threshold = 0.5", "iou-threshold = 1.0")
        config = write(inputs / "config.ini", sections.encode())
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 1
        error = "line 1: label matrix has no rows"
        assert capsys.readouterr().err == (
            f"error\tValidationError\tstage 'loss.im0' failed: {error}\n"
        )
        plan = json.loads((run_dir / "manifest.json").read_text())["stages"][2]
        assert plan["section"] == "loss.im0"
        assert cli.run(plan["argv"]) == 1
        assert capsys.readouterr().err == f"error\tParseError\t{error}\n"

    def test_a_rewritten_file_is_parsed_again(self, tmp_path, capsys):
        # The run directory is the config directory, so the middle stage's
        # out-ground-truth overwrites the ground_truth.csv that the first
        # stage read and the last reads.  The run must match the same stages
        # run one by one.
        config = "\n".join(
            f"[filter-expert.{label}]\nground-truth = ground_truth.csv\n"
            "verification = verification.csv\ngroup-file = groups.csv\n"
            f"group-index = {index}\nout-ground-truth = {out_gt}\n"
            f"out-verification = {label}_ver.csv\nout-images = {label}_images.csv\n"
            for label, index, out_gt in (
                ("first", 1, "first_gt.csv"),
                ("middle", 0, "ground_truth.csv"),
                ("last", 1, "last_gt.csv"),
            )
        )
        folders = {}
        for name in ("pipeline", "manual"):
            folder = tmp_path / name
            folder.mkdir()
            for source in ("ground_truth.csv", "verification.csv", "expected/groups.csv"):
                write(folder / Path(source).name, (self.EXPERT / source).read_bytes())
            write(folder / "config.ini", config.encode())
            folders[name] = folder
        run = folders["pipeline"]
        config_path = str(run / "config.ini")
        assert cli.run(["pipeline", "--config", config_path, "--run-dir", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manual = folders["manual"]
        for stage in manifest["stages"]:
            argv = [arg.replace(str(run), str(manual)) for arg in stage["argv"]]
            assert cli.run(argv) == 0
        for name in ("ground_truth.csv", "first_gt.csv", "last_gt.csv", "last_ver.csv"):
            assert (run / name).read_bytes() == (manual / name).read_bytes(), name
        assert (run / "last_gt.csv").read_bytes() != (run / "first_gt.csv").read_bytes()
        capsys.readouterr()

    def test_an_input_rewritten_between_its_readers(self, tmp_path, monkeypatch, capsys):
        # Both stages read preds.csv, and after the first one something else
        # writes it again.  The digest, not the file's name or time, decides
        # whether the second stage gets the first stage's parse.
        old = [Prediction("im1", "c1", 0.9, Box(0, 0, 10, 10))] * 2
        new = [Prediction("im2", "c2", 0.7, Box(1, 1, 5, 5))]
        source = write(tmp_path / "preds.csv", fileio.write_predictions(old))
        config = write(
            tmp_path / "config.ini",
            b"[nms.first]\nin = preds.csv\nout = first.csv\n\n"
            b"[nms.last]\nin = preds.csv\nout = last.csv\n",
        )
        stage = cli._STAGES["nms"]
        for rewritten, parses in ((old, 1), (new, 2)):

            def nms_then_rewrite(args, rewritten=rewritten):
                status = stage.run(args)
                if args.out.endswith("first.csv"):
                    write(source, fileio.write_predictions(rewritten))
                return status

            monkeypatch.setitem(cli._STAGES, "nms", replace(stage, run=nms_then_rewrite))
            calls = counting_fileio(monkeypatch)
            run_dir = tmp_path / "run"
            assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
            assert calls["parse_prediction_table"] == parses
            assert (run_dir / "first.csv").read_bytes() == fileio.write_predictions(nms(old))
            assert (run_dir / "last.csv").read_bytes() == fileio.write_predictions(nms(rewritten))
            assert cli._store == {}
            write(source, fileio.write_predictions(old))
        capsys.readouterr()

    def record_store(self, monkeypatch) -> list[tuple[str, set[str]]]:
        """Wrap every stage so that it records, as it starts, its subcommand
        and the paths whose result the store keeps."""
        seen: list[tuple[str, set[str]]] = []
        for name, stage in list(cli._STAGES.items()):
            if not stage.in_config:
                continue

            def run(args, real=stage.run):
                kept = {path for path, record in cli._store.items() if record.parse}
                seen.append((args.command, kept))
                return real(args)

            monkeypatch.setitem(cli._STAGES, name, replace(stage, run=run))
        return seen

    def check_store(self, seen, plans) -> None:
        # As each stage starts, the store keeps results only for paths that
        # this stage or a later one reads, and that some other stage read or
        # wrote before it.
        assert len(seen) <= len(plans)
        for index, (command, kept) in enumerate(seen):
            assert command == plans[index]["stage"]
            later = {p for plan in plans[index:] for p in plan["inputs"]}
            earlier = {p for plan in plans[:index] for p in plan["inputs"] + plan["outputs"]}
            assert kept <= later & earlier, plans[index]["section"]

    def test_store_is_emptied(self, tmp_path, monkeypatch, capsys):
        seen = self.record_store(monkeypatch)
        config = self.EXPERT / "config.ini"
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        assert cli._store == {}
        plans = json.loads((run_dir / "manifest.json").read_text())["stages"]
        self.check_store(seen, plans)
        assert any(kept for _, kept in seen)

        # A stage that fails while parses are kept for later stages: an
        # assign of an image that is not in the pool, before the first one.
        seen.clear()
        text = config.read_text()
        cut = text.index("[assign.im0]")
        failing = (
            "[assign.missing]\nimage-id = nowhere\nrois = part_0.csv\n"
            "ground-truth = ground_truth.csv\nverification = verification.csv\n"
            "hierarchy = hierarchy.json\ncategories = categories.csv\nout = labels_x.csv\n\n"
        )
        inputs = shutil.copytree(
            self.EXPERT, tmp_path / "inputs", ignore=shutil.ignore_patterns("expected")
        )
        bad = write(inputs / "config.ini", (text[:cut] + failing + text[cut:]).encode())
        run_dir = tmp_path / "failed"
        assert cli.run(["pipeline", "--config", str(bad), "--run-dir", str(run_dir)]) == 1
        assert "image 'nowhere' is not in the RoI pool" in capsys.readouterr().err
        assert cli._store == {}
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
        assert stages[-1]["section"] == "assign.missing"
        assert seen[-1][1], "parses were kept when the stage failed"

    def test_conflict_on_another_image_fails_every_assign(self, tmp_path, monkeypatch, capsys):
        # im9's verifications conflict once dog is a kind of animal; im1,
        # the image assigned, is clean under either hierarchy.
        verification = VerificationTable(
            {("im1", "dog"): 1, ("im9", "dog"): 1, ("im9", "animal"): -1}
        )
        paths = {
            "rois": write(tmp_path / "pool.csv", fileio.write_roi_pool(
                RoiPool({"im1": (Roi(Box(0, 0, 10, 10)), Roi(Box(20, 20, 30, 30)))})
            )),
            "ground-truth": write(tmp_path / "gt.csv", fileio.write_ground_truth(
                [GroundTruthInstance("im1", "dog", Box(0, 0, 10, 10))]
            )),
            "verification": write(tmp_path / "ver.csv", fileio.write_verification(verification)),
            "categories": write(
                tmp_path / "categories.csv", fileio.write_category_list(["animal", "dog"])
            ),
        }
        flat = write(tmp_path / "flat.json", fileio.write_hierarchy(Hierarchy(())))
        tree = write(tmp_path / "tree.json", fileio.write_hierarchy(Hierarchy([("dog", "animal")])))
        conflict = (
            "hierarchy expansion produces conflicting verifications: "
            "image 'im9', category 'animal'; image 'im9', category 'dog'"
        )

        def section(label: str, hierarchy: Path) -> str:
            keys = "".join(f"{key} = {path}\n" for key, path in paths.items())
            return (
                f"[assign.{label}]\nimage-id = im1\n{keys}"
                f"hierarchy = {hierarchy}\nout = {label}.csv\n"
            )

        def pipeline(*sections: str) -> int:
            config = write(tmp_path / "config.ini", "\n".join(sections).encode())
            run_dir = str(tmp_path / "run")
            return cli.run(["pipeline", "--config", str(config), "--run-dir", run_dir])

        argv = ["assign", "--image-id", "im1", "--hierarchy", str(tree)]
        argv += ["--out", str(tmp_path / "x.csv")]
        for key, path in paths.items():
            argv += [f"--{key}", str(path)]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error\tValidationError\t{conflict}\n"
        assert pipeline(section("first", tree), section("second", tree)) == 1
        assert capsys.readouterr().err == (
            f"error\tValidationError\tstage 'assign.first' failed: {conflict}\n"
        )
        # The first assign checks the shared table over the flat hierarchy;
        # the second gets the same table but another hierarchy.
        assert pipeline(section("first", flat), section("second", tree)) == 1
        assert capsys.readouterr().err == (
            f"error\tValidationError\tstage 'assign.second' failed: {conflict}\n"
        )

        # Over one table and one hierarchy, both assigns get the one closure
        # that the table keeps, and read their statuses from it.
        closures = []
        real = cli.expand_verification

        def spying(table, hierarchy):
            closures.append(real(table, hierarchy))
            return closures[-1]

        monkeypatch.setattr(cli, "expand_verification", spying)
        assert pipeline(section("first", flat), section("second", flat)) == 0
        assert len(closures) == 2 and closures[0] is closures[1]
        assert (tmp_path / "run" / "first.csv").read_bytes() == (
            tmp_path / "run" / "second.csv"
        ).read_bytes()
        capsys.readouterr()

    def test_a_rewritten_table_is_checked_again(self, tmp_path, monkeypatch, capsys):
        # Three assigns read ver.csv.  After the first has checked it,
        # something else writes a table with a conflict on another image;
        # the second assign keeps that table for the third, and must check
        # it, not take the first table's check.
        clean = VerificationTable({("im1", "dog"): 1})
        conflicting = VerificationTable(
            {("im1", "dog"): 1, ("im9", "dog"): 1, ("im9", "animal"): -1}
        )
        paths = {
            "rois": write(tmp_path / "pool.csv", fileio.write_roi_pool(
                RoiPool({"im1": (Roi(Box(0, 0, 10, 10)),)})
            )),
            "ground-truth": write(tmp_path / "gt.csv", fileio.write_ground_truth(
                [GroundTruthInstance("im1", "dog", Box(0, 0, 10, 10))]
            )),
            "verification": write(tmp_path / "ver.csv", fileio.write_verification(clean)),
            "hierarchy": write(
                tmp_path / "tree.json", fileio.write_hierarchy(Hierarchy([("dog", "animal")]))
            ),
            "categories": write(
                tmp_path / "categories.csv", fileio.write_category_list(["animal", "dog"])
            ),
        }
        keys = "".join(f"{key} = {path}\n" for key, path in paths.items())
        config = write(
            tmp_path / "config.ini",
            "\n".join(
                f"[assign.{label}]\nimage-id = im1\n{keys}out = {label}.csv\n"
                for label in ("first", "second", "third")
            ).encode(),
        )
        stage = cli._STAGES["assign"]

        def assign_then_rewrite(args):
            status = stage.run(args)
            if args.out.endswith("first.csv"):
                write(paths["verification"], fileio.write_verification(conflicting))
            return status

        monkeypatch.setitem(cli._STAGES, "assign", replace(stage, run=assign_then_rewrite))
        run_dir = str(tmp_path / "run")
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", run_dir]) == 1
        assert capsys.readouterr().err == (
            "error\tValidationError\tstage 'assign.second' failed: "
            "hierarchy expansion produces conflicting verifications: "
            "image 'im9', category 'animal'; image 'im9', category 'dog'\n"
        )
        assert cli._store == {}

    def test_one_closure_per_table_and_hierarchy(self, tmp_path, monkeypatch, capsys):
        # eval, then two assigns, read one verification file.  The table
        # keeps its closure, so over one hierarchy the run computes one;
        # assigns over another hierarchy compute one more, which both share.
        fixture = self.EXPERT
        flat = write(tmp_path / "flat.json", fileio.write_hierarchy(Hierarchy(())))
        closures = []
        real = cli.expand_verification

        def spying(table, hierarchy):
            closures.append(real(table, hierarchy))
            return closures[-1]

        monkeypatch.setattr(cli, "expand_verification", spying)
        evaluation = importlib.import_module("detpipe.evaluation")
        monkeypatch.setattr(evaluation, "expand_verification", spying)

        def computed(assign_hierarchy: Path) -> int:
            closures.clear()
            inputs = (
                f"ground-truth = {fixture / 'ground_truth.csv'}\n"
                f"verification = {fixture / 'verification.csv'}\n"
            )
            config = f"[eval]\npredictions = {fixture / 'expert_0.csv'}\n{inputs}"
            config += f"hierarchy = {fixture / 'hierarchy.json'}\nout-report = report.csv\n"
            for image_id in ("im0", "im2"):
                config += (
                    f"\n[assign.{image_id}]\nimage-id = {image_id}\n"
                    f"rois = {fixture / 'rois.csv'}\n{inputs}"
                    f"hierarchy = {assign_hierarchy}\n"
                    f"categories = {fixture / 'categories.csv'}\nout = labels_{image_id}.csv\n"
                )
            path = write(tmp_path / "config.ini", config.encode())
            run_dir = str(tmp_path / "run")
            assert cli.run(["pipeline", "--config", str(path), "--run-dir", run_dir]) == 0
            assert len(closures) == 3
            return len({id(closure) for closure in closures})

        assert computed(fixture / "hierarchy.json") == 1
        assert computed(flat) == 2
        assert closures[1] is closures[2]
        capsys.readouterr()


class TestLineReuse:
    """A predictions file that a stage of the run wrote is read back with its
    own lines, so a later stage does not format its rows again."""

    def formatting(self, monkeypatch) -> list[int]:
        """Record the row count of each table whose rows get formatted, in
        the CLI's writer, in fileio's or in trim."""
        formatted: list[int] = []
        real = fileio._prediction_lines

        def lines(table):
            if table.lines is None:
                formatted.append(len(table))
            return real(table)

        monkeypatch.setattr(cli, "_prediction_lines", lines)
        monkeypatch.setattr(fileio, "_prediction_lines", lines)
        monkeypatch.setattr(postprocess, "_prediction_lines", lines)
        return formatted

    def one_by_one(self, manifest: Path, run_dir: Path, copy_dir: Path) -> None:
        """Run a pipeline's stages again as single subcommands in copy_dir."""
        for stage in json.loads(manifest.read_text())["stages"]:
            assert cli.run([arg.replace(str(run_dir), str(copy_dir)) for arg in stage["argv"]]) == 0

    @pytest.mark.parametrize("fixture", ["pipeline", "expert_pipeline"])
    def test_only_files_from_outside_are_parsed(self, fixture, tmp_path, monkeypatch, capsys):
        # Each predictions table a stage writes is handed to the later
        # stages that read its file: only the fixture's two are parsed.
        config = FIXTURES / fixture / "config.ini"
        calls = counting_fileio(monkeypatch)
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        assert calls["parse_prediction_table"] == 2
        stdout = capsys.readouterr().out
        copy_dir = tmp_path / "copy"
        self.one_by_one(run_dir / "manifest.json", run_dir, copy_dir)
        assert capsys.readouterr().out == stdout
        names = sorted(path.name for path in copy_dir.iterdir())
        assert sorted([*names, "manifest.json"]) == sorted(p.name for p in run_dir.iterdir())
        for path in copy_dir.iterdir():
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name

    def test_only_ensemble_formats_rows(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("eval built row views")

        monkeypatch.setattr(fileio, "parse_predictions", refuse)
        formatted = self.formatting(monkeypatch)
        run_dir = tmp_path / "run"
        config = FIXTURES / "pipeline" / "config.ini"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        ensembled = (run_dir / "ensembled.csv").read_bytes().count(b"\n") - 1
        assert formatted == [ensembled]
        assert cli._store == {}
        stdout = capsys.readouterr().out
        # Single subcommands keep no digests: ensemble, drop-small-masks and
        # trim each format the rows they write.
        formatted.clear()
        copy_dir = tmp_path / "copy"
        self.one_by_one(run_dir / "manifest.json", run_dir, copy_dir)
        assert len(formatted) == 3
        assert cli._store == {}
        assert capsys.readouterr().out == stdout
        for path in sorted(copy_dir.iterdir()):
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name

    def test_a_written_table_is_handed_to_every_reader(self, tmp_path, monkeypatch, capsys):
        # kept.csv has two later readers: both get the table nms wrote, and
        # neither parses it nor formats its rows.
        run = tmp_path / "pipeline"
        self.rewrite_inputs(run)
        config = write(
            run / "config.ini",
            b"[nms]\nin = preds.csv\nout = kept.csv\n\n"
            b"[drop-small-masks]\nin = kept.csv\nmin-area = 1\nout = a.csv\n\n"
            b"[trim]\nin = kept.csv\nout = b.csv\nreport = report.csv\n",
        )
        calls = counting_fileio(monkeypatch)
        formatted = self.formatting(monkeypatch)
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run)]) == 0
        assert calls["parse_prediction_table"] == 1
        kept = (run / "kept.csv").read_bytes()
        assert formatted == [kept.count(b"\n") - 1]
        assert (run / "a.csv").read_bytes() == (run / "b.csv").read_bytes() == kept
        assert cli._store == {}
        capsys.readouterr()

    def test_external_input_is_formatted(self, tmp_path, monkeypatch, capsys):
        # Spellings that the writer never emits, and a mask run with zeros.
        text = (
            f"{fileio.PREDICTIONS_HEADER}\n"
            "im1,c1,0.50,0,0,1e2,1e2,,,\n"
            "im1,c2,0.9,0.0,0,10,10.0,4,3,007 5\n"
        )
        source = write(tmp_path / "preds.csv", text.encode())
        config = write(
            tmp_path / "config.ini",
            b"[drop-small-masks]\nin = preds.csv\nmin-area = 1\nout = kept.csv\n\n"
            b"[trim]\nin = kept.csv\nout = trimmed.csv\nreport = report.csv\n",
        )
        formatted = self.formatting(monkeypatch)
        run_dir = tmp_path / "run"
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        # drop-small-masks formats the external rows; trim reads its output.
        assert formatted == [2]
        expected = fileio.write_predictions(fileio.parse_prediction_table(source.read_bytes()))
        assert expected.splitlines()[1:] == [
            b"im1,c1,0.5,0.0,0.0,100.0,100.0,,,",
            b"im1,c2,0.9,0.0,0.0,10.0,10.0,4,3,7 5",
        ]
        assert (run_dir / "kept.csv").read_bytes() == expected
        assert (run_dir / "trimmed.csv").read_bytes() == expected
        capsys.readouterr()

    def rewrite_config(self, folder: Path) -> Path:
        # The run directory is the config directory: the middle stage's
        # output overwrites preds.csv, which the first stage read and the
        # last stage reads.
        return write(
            folder / "config.ini",
            b"[drop-small-masks.first]\nin = preds.csv\nmin-area = 1\nout = first.csv\n\n"
            b"[trim.middle]\nin = first.csv\nmax-bytes = 250\nout = preds.csv\n"
            b"report = report.csv\n\n"
            b"[drop-small-masks.last]\nin = preds.csv\nmin-area = 1\nout = last.csv\n",
        )

    def rewrite_inputs(self, folder: Path) -> bytes:
        folder.mkdir()
        rows = "".join(
            f"im{i % 3},c{i % 2},0.{i + 1}0,{i},0,{i + 10},1e1,,,\n" for i in range(8)
        )
        data = f"{fileio.PREDICTIONS_HEADER}\n{rows}".encode()
        write(folder / "preds.csv", data)
        return data

    def test_a_rewritten_file_is_read_as_rewritten(self, tmp_path, monkeypatch, capsys):
        formatted = self.formatting(monkeypatch)
        run, manual = tmp_path / "pipeline", tmp_path / "manual"
        for folder in (run, manual):
            self.rewrite_inputs(folder)
            self.rewrite_config(folder)
        config = str(run / "config.ini")
        assert cli.run(["pipeline", "--config", config, "--run-dir", str(run)]) == 0
        # The first stage formats the external rows; trim and the last
        # stage read files the run wrote.
        assert formatted == [8]
        self.one_by_one(run / "manifest.json", run, manual)
        for name in ("first.csv", "preds.csv", "last.csv", "report.csv"):
            assert (run / name).read_bytes() == (manual / name).read_bytes(), name
        assert (run / "last.csv").read_bytes() == (run / "preds.csv").read_bytes()
        assert (run / "last.csv").read_bytes() != (run / "first.csv").read_bytes()
        capsys.readouterr()

    def test_a_file_changed_after_its_write_is_formatted_again(
        self, tmp_path, monkeypatch, capsys
    ):
        # After the middle stage writes preds.csv, something else rewrites
        # it with spellings the writer never emits: the last stage must not
        # take that file's lines as its rows' lines.
        formatted = self.formatting(monkeypatch)
        run = tmp_path / "pipeline"
        original = self.rewrite_inputs(run)
        config = self.rewrite_config(run)
        stage = cli._STAGES["trim"]

        def trim_then_rewrite(args):
            status = stage.run(args)
            write(Path(args.out), original.replace(b",0,", b",0.00,"))
            return status

        monkeypatch.setitem(cli._STAGES, "trim", replace(stage, run=trim_then_rewrite))
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run)]) == 0
        assert formatted == [8, 8]
        rewritten = (run / "preds.csv").read_bytes()
        assert (run / "last.csv").read_bytes() == fileio.write_predictions(
            fileio.parse_prediction_table(rewritten)
        )
        assert b",0.00," not in (run / "last.csv").read_bytes()
        capsys.readouterr()

    def test_digests_are_dropped_after_the_last_reader(self, tmp_path, monkeypatch, capsys):
        # Each stage records, as it starts, the paths whose written table and
        # digest are kept: a handed table carries the lines of its write.
        seen: list[list[str]] = []
        for name in ("trim", "drop-small-masks"):
            stage = cli._STAGES[name]

            def run_stage(args, real=stage.run):
                kept = [
                    path
                    for path, record in cli._store.items()
                    if record.digest and getattr(record.result, "lines", None) is not None
                ]
                seen.append(sorted(Path(path).name for path in kept))
                return real(args)

            monkeypatch.setitem(cli._STAGES, name, replace(stage, run=run_stage))
        run = tmp_path / "pipeline"
        self.rewrite_inputs(run)
        config = self.rewrite_config(run)
        assert cli.run(["pipeline", "--config", str(config), "--run-dir", str(run)]) == 0
        # first.csv's digest is kept until trim, its last reader, finishes.
        assert seen == [[], ["first.csv"], ["preds.csv"]]
        assert cli._store == {}

        # A run whose trim fails, after first.csv's digest was kept.
        seen.clear()
        failing = run / "failing.ini"
        write(failing, config.read_bytes().replace(b"max-bytes = 250", b"max-bytes = 1"))
        assert cli.run(["pipeline", "--config", str(failing), "--run-dir", str(run)]) == 1
        assert "smaller than the header" in capsys.readouterr().err
        assert seen == [[], ["first.csv"]]
        assert cli._store == {}


def test_a_parser_is_given_the_decoded_text(tmp_path):
    path = write(tmp_path / "names.csv", "category_id\ncaf\u00e9\n".encode())
    assert cli._load(lambda text: text, str(path)) == "category_id\ncaf\u00e9\n"


def test_a_written_predictions_file_is_never_joined(tmp_path):
    # Header and row buffer are written, and hashed for the path's later
    # readers, one after the other.  Joining them peaked above the buffer's
    # size (0.79 MB here); without the join the peak is about 10 KB.
    rows = [
        Prediction(f"img{i // 8:05d}", f"c{i % 50:02d}", 0.5, Box(i % 90, 0, i % 90 + 10, 10))
        for i in range(20_000)
    ]
    table = PredictionTable.from_rows(rows)
    table.lines = fileio._prediction_lines(table)
    path = str(tmp_path / "out.csv")
    cli._store[path] = cli._Record(2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_predictions(path, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        record = cli._store.pop(path)
    data = Path(path).read_bytes()
    assert data == fileio.write_predictions(table)
    assert record.digest == blake2b(data).digest() and record.result is table
    assert peak < len(table.lines.data) / 10, (peak, len(table.lines.data))


def test_importing_the_cli_loads_no_openssl():
    # hashlib loads OpenSSL, about 7 ms of start-up and 1.7 MB of peak RSS
    # in every run of the CLI.
    code = "import sys, detpipe.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


def test_fixture_pipelines_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 10 ms of start-up
    # in every run of the CLI; distinct values are found by sorting instead.
    runs = [
        (str(FIXTURES / name / "config.ini"), str(tmp_path / name))
        for name in ("pipeline", "expert_pipeline")
    ]
    code = (
        "import contextlib, io, sys\n"
        "from detpipe import cli\n"
        f"for config, run_dir in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(['pipeline', '--config', config, '--run-dir', run_dir]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")


def test_main_freezes_what_the_imports_left(monkeypatch, capsys):
    # The collections that parsing triggers then skip the import-time
    # objects.  run(), which tests and the traced benchmark call in process,
    # freezes nothing.
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(1))
    monkeypatch.setattr(sys, "argv", ["detpipe", "lr", "--eta0", "0.1", "--at", "0.5"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert (info.value.code, frozen) == (0, [1])
    assert cli.run(["lr", "--eta0", "0.1", "--at", "0.5"]) == 0
    assert frozen == [1]
    capsys.readouterr()
