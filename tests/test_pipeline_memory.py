"""How a whole pipeline run's memory grows with its input: the traced peak
of ``detpipe pipeline`` run in process, at two sizes.  A box submission
grows along two axes, more images or more predictions per image, and a
mask submission by more masked rows.  The peak grows by at most a bound
per prediction row, or per mask run, so a change that keeps one more copy
of a file or a table per row fails."""

import gc
import tracemalloc

from detpipe import cli

from generators import box_submission, mask_submission

# This test measured a slope of 99 B per prediction row when the bound was
# last lowered (Python 3.11, numpy 2.4), once chunks split only the lines
# they yield, ensemble held one input at a time and a parse was given the
# text without the bytes; the bound is that plus about a tenth.  A change
# that lowers the slope lowers the bound with it.
SLOPE_BOUND = 109
# The same along the budget's axis, with the images held at 1500: 199 B per
# prediction row while a take gathered a per-row masks list through a list
# of Python ints, 136 once a box-only table held no per-row mask state.
# The bound is that plus about a tenth.
DENSITY_SLOPE_BOUND = 149
# A mask submission, per run of its prediction files' masks: 25 B per run
# while a table held a tuple of Python ints per mask, 13.4 once it held its
# masks as int64 run columns.  The bound is that plus about a tenth.
MASK_RUN_SLOPE_BOUND = 15


def peak_bytes(folder, files: dict[str, bytes]) -> int:
    """The traced peak of one pipeline run over the files, above what was
    held before it."""
    folder.mkdir()
    for name, data in files.items():
        (folder / name).write_bytes(data)
    argv = ["pipeline", "--config", str(folder / "config.ini"), "--run-dir", str(folder / "run")]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def prediction_rows(files: dict[str, bytes]) -> int:
    return sum(files[name].count(b"\n") - 1 for name in ("model_a.csv", "model_b.csv"))


def mask_runs(files: dict[str, bytes]) -> int:
    """The runs of every mask of the prediction files: one more than the
    spaces of each row's last field."""
    return sum(
        line.rsplit(b",", 1)[1].count(b" ") + 1
        for name in ("model_a.csv", "model_b.csv")
        for line in files[name].splitlines()[1:]
    )


def slope(tmp_path, submissions: dict[str, dict[str, bytes]], size) -> tuple[float, list[int]]:
    """The growth of the peak per unit of size between two submissions."""
    peaks, sizes = [], []
    for name, files in submissions.items():
        sizes.append(size(files))
        peaks.append(peak_bytes(tmp_path / name, files))
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]), sizes


def test_pipeline_peak_grows_at_most_109_bytes_per_prediction_row(tmp_path):
    submissions = {f"scale_{scale}": box_submission(0, scale) for scale in (1, 2)}
    growth, rows = slope(tmp_path, submissions, prediction_rows)
    assert rows == [34_000, 68_000]
    assert growth <= SLOPE_BOUND, growth


def test_pipeline_peak_per_prediction_row_along_the_density_axis(tmp_path):
    submissions = {f"density_{density}": box_submission(0, 1, density) for density in (1, 2)}
    growth, rows = slope(tmp_path, submissions, prediction_rows)
    assert rows == [34_000, 68_000]
    assert growth <= DENSITY_SLOPE_BOUND, growth


def test_mask_pipeline_peak_per_mask_run(tmp_path):
    submissions = {f"scale_{scale}": mask_submission(0, scale) for scale in (1, 2)}
    growth, runs = slope(tmp_path, submissions, mask_runs)
    assert runs[1] > 1.8 * runs[0]
    assert growth <= MASK_RUN_SLOPE_BOUND, growth
