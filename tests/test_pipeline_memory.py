"""How a whole box-only pipeline run's memory grows with its input: the
traced peak of ``detpipe pipeline`` run in process, on box-submission's
shape at two sizes.  The peak grows by at most a bound per prediction row,
so a change that keeps one more copy of a file or a table per row fails."""

import gc
import tracemalloc

from detpipe import cli

from generators import box_submission

# This test measured a slope of 99 B per prediction row when the bound was
# last lowered (Python 3.11, numpy 2.4), once chunks split only the lines
# they yield, ensemble held one input at a time and a parse was given the
# text without the bytes; the bound is that plus about a tenth.  A change
# that lowers the slope lowers the bound with it.
SLOPE_BOUND = 109


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


def test_pipeline_peak_grows_at_most_109_bytes_per_prediction_row(tmp_path):
    peaks, rows = [], []
    for scale in (1, 2):
        files = box_submission(0, scale)
        rows.append(prediction_rows(files))
        peaks.append(peak_bytes(tmp_path / f"scale_{scale}", files))
    assert rows == [34_000, 68_000]
    slope = (peaks[1] - peaks[0]) / (rows[1] - rows[0])
    assert slope <= SLOPE_BOUND, (slope, peaks)
