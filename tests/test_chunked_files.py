"""Files read and written a chunk at a time.

Every CSV parser reads its data lines a chunk at a time from the decoded
text, each chunk bounded by ``fileio._CHUNK_LINES`` lines and
``fileio._CHUNK_CHARS`` characters: the five column parsers (predictions
and ground truth, verification, RoI pools, and the label and logit
matrices) and the six small-file parsers, which read the rows one by one.
Any chunk sizes, down to one line, give the same value, or the same
``ParseError`` line and message, as the default ones.  A parse's transient memory is set by one chunk, not by
the file, and a written predictions table holds its rows' lines as one
encoded buffer.
"""

import gc
import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpipe import BinaryMask, ParseError, fileio
from detpipe.federated import LabelMatrix

# Sizes the parsers run at here: one line at a time, chunks cut by the line
# count, chunks cut by the character budget, and both.
SIZES = [(1, 1), (1, 10**6), (2, 10**6), (5, 10**6), (10**6, 1), (10**6, 40), (3, 70)]

ROWS = 12


def predictions_rows() -> list[str]:
    rows = [f"im{i % 3},c{i % 4},0.{i + 1},{i},0,{i + 5},7.5,,," for i in range(ROWS)]
    rows[5] = "im1,c0,0.5,0,0,2,2,2,2,1 3"
    return rows


PARSERS = {
    "predictions": (fileio.parse_prediction_table, fileio.PREDICTIONS_HEADER, predictions_rows()),
    "ground truth": (
        fileio.parse_ground_truth,
        fileio.GROUND_TRUTH_HEADER,
        [f"im{i % 3},c{i % 4},{i},0,{i + 5},7.5,,," for i in range(ROWS)],
    ),
    "verification": (
        fileio.parse_verification,
        fileio.VERIFICATION_HEADER,
        [f"im{i % 3},c{i},{1 if i % 2 else -1}" for i in range(ROWS)],
    ),
    "roi pool": (
        fileio.parse_roi_pool,
        fileio.ROI_POOL_HEADER,
        [f"im{i % 3},{i},0,{i + 5},7.5,{'' if i % 4 == 0 else f'0.{i}'}" for i in range(ROWS)],
    ),
    "label matrix": (
        fileio.parse_label_matrix,
        fileio.LABELS_HEADER,
        [f"{i // 3},c{i % 3},{(-1, 0, 1)[(i // 3 + i) % 3]}" for i in range(ROWS)],
    ),
    "logit matrix": (
        fileio.parse_logit_matrix,
        fileio.LOGITS_HEADER,
        [f"{i // 3},c{i % 3},{i / 4 - 1}" for i in range(ROWS)],
    ),
    "category stats": (
        fileio.parse_category_stats,
        fileio.STATS_HEADER,
        [f"c{i},{i * 7}" for i in range(ROWS)],
    ),
    "embeddings": (
        fileio.parse_embeddings,
        "category_id,v0,v1",
        [f"c{i},{i}.5,-{i}" for i in range(ROWS)],
    ),
    "category groups": (
        fileio.parse_category_groups,
        fileio.GROUPS_HEADER,
        [f"{i // 4},c{i}" for i in range(ROWS)],
    ),
    "category list": (
        fileio.parse_category_list,
        fileio.CATEGORY_LIST_HEADER,
        [f"c{i}" for i in range(ROWS)],
    ),
    "image list": (
        fileio.parse_image_list,
        fileio.IMAGE_LIST_HEADER,
        [f"im{i}" for i in range(ROWS)],
    ),
    "sampled indices": (
        fileio.parse_sampled_indices,
        fileio.SAMPLED_HEADER,
        [f"im{i % 3},{i}" for i in range(ROWS)],
    ),
}

# A row that fails its parser's field checks.
BAD_ROWS = {
    "predictions": "im1,c1,2.0,0,0,1,1,,,",
    "ground truth": "im1,c1,0,0,1",
    "verification": "im1,c99,7",
    "roi pool": "im1,a,0,1,1,",
    "label matrix": "0,c0,2",
    "logit matrix": "0,c0,x",
    "category stats": "c1,-3",
    "embeddings": "c1,x,0",
    "category groups": "x,c1",
    "category list": "c1,c2",
    "image list": "im1,im2",
    "sampled indices": "im1,-1",
}


def value(result) -> str:
    """A comparable text of a parse's result: every column of a table, a
    matrix's values and categories, a list, or a mapping's items.  repr()
    makes NaNs compare equal."""
    if isinstance(result, LabelMatrix):
        return repr((result.values.tolist(), result.categories))
    if isinstance(result, tuple):
        return repr((result[0].tolist(), result[1]))
    if isinstance(result, list):
        return repr(result)
    if not hasattr(result, "__slots__"):
        return repr([(key, np.asarray(v).tolist()) for key, v in result.items()])
    names = [name for name in result.__slots__ if not name.startswith("_")]
    columns = [getattr(result, name) for name in names]
    return repr([c.tolist() if isinstance(c, np.ndarray) else c for c in columns])


def outcome(parse, data):
    try:
        return "ok", value(parse(data))
    except ParseError as exc:
        return "ParseError", exc.line, exc.reason


def outcomes(parse, data, monkeypatch) -> list:
    """The outcome at the default sizes, then at each of SIZES."""
    results = [outcome(parse, data)]
    for lines, chars in SIZES:
        monkeypatch.setattr(fileio, "_CHUNK_LINES", lines)
        monkeypatch.setattr(fileio, "_CHUNK_CHARS", chars)
        results.append(outcome(parse, data))
    monkeypatch.undo()
    return results


def file_of(header: str, rows: list[str], final_lf: bool = True) -> bytes:
    return ("\n".join([header, *rows]) + ("\n" if final_lf else "")).encode()


@pytest.mark.parametrize("kind", PARSERS)
class TestChunkSizes:
    def assert_same(self, kind, data, monkeypatch, expected: str):
        parse = PARSERS[kind][0]
        results = outcomes(parse, data, monkeypatch)
        assert results[0][0] == expected, results[0]
        assert all(result == results[0] for result in results), results

    def test_the_same_value_at_any_chunk_size(self, kind, monkeypatch):
        _, header, rows = PARSERS[kind]
        self.assert_same(kind, file_of(header, rows), monkeypatch, "ok")

    def test_a_file_without_a_final_lf(self, kind, monkeypatch):
        _, header, rows = PARSERS[kind]
        data = file_of(header, rows, final_lf=False)
        self.assert_same(kind, data, monkeypatch, "ok")
        assert outcome(PARSERS[kind][0], data) == outcome(PARSERS[kind][0], file_of(header, rows))

    @pytest.mark.parametrize("final_lf", [True, False])
    def test_a_header_only_file(self, kind, final_lf, monkeypatch):
        _, header, _ = PARSERS[kind]
        # A matrix or an embedding table must not be empty.
        expected = "ParseError" if "matrix" in kind or kind == "embeddings" else "ok"
        self.assert_same(kind, file_of(header, [], final_lf), monkeypatch, expected)

    @pytest.mark.parametrize("at", [0, ROWS // 2, ROWS - 1])
    @pytest.mark.parametrize("final_lf", [True, False])
    def test_an_error_in_the_first_a_middle_or_the_last_chunk(
        self, kind, at, final_lf, monkeypatch
    ):
        _, header, rows = PARSERS[kind]
        rows = [*rows[:at], BAD_ROWS[kind], *rows[at + 1 :]]
        data = file_of(header, rows, final_lf)
        self.assert_same(kind, data, monkeypatch, "ParseError")
        assert outcome(PARSERS[kind][0], data)[1] == at + 2

    @pytest.mark.parametrize("at", [0, ROWS - 1])
    def test_an_empty_line(self, kind, at, monkeypatch):
        _, header, rows = PARSERS[kind]
        data = file_of(header, [*rows[:at], "", *rows[at + 1 :]])
        self.assert_same(kind, data, monkeypatch, "ParseError")

    @pytest.mark.parametrize(
        "last, reason",
        [
            (b"\r", "carriage returns are not allowed; files are LF-terminated"),
            (b"\xff", "not valid UTF-8 at byte"),
        ],
    )
    def test_a_cr_or_bad_byte_in_the_last_chunk_is_reported_first(
        self, kind, last, reason, monkeypatch
    ):
        _, header, rows = PARSERS[kind]
        rows = [BAD_ROWS[kind], *rows[1:]]
        data = file_of(header, rows)[:-1] + last + b"\n"
        self.assert_same(kind, data, monkeypatch, "ParseError")
        _, line, message = outcome(PARSERS[kind][0], data)
        assert line == ROWS + 1
        assert message.startswith(reason)


def test_a_masked_chunk_is_split_once_and_parsed_by_columns(monkeypatch):
    # A chunk with a masked line is split into its fields, as any other
    # chunk is, and converted whole: no row walker sees it.
    splits = []
    real = fileio._split_chunk

    def split_chunk(*args):
        fields = real(*args)
        splits.append(fields is not None)
        return fields

    monkeypatch.setattr(fileio, "_split_chunk", split_chunk)
    monkeypatch.setattr(fileio, "_annotation_rows", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(fileio, "_CHUNK_LINES", 4)
    parse, header, rows = PARSERS["predictions"]
    table = parse(file_of(header, rows))
    # Rows 4-7 hold the masked row 5.
    assert splits == [True, True, True]
    assert table.masks[5] == BinaryMask(2, 2, [1, 3]) and table.masks.count(None) == ROWS - 1


@given(
    st.lists(st.text("ab,\u00e9", max_size=40), max_size=30),
    st.booleans(),
    st.integers(1, 5),
    st.integers(1, 30),
)
@settings(max_examples=300, deadline=None)
def test_chunks_are_the_lines_under_both_caps(lines, final_lf, max_lines, max_chars):
    # Lines up to 40 characters against caps of up to 30: a chunk may be cut
    # by its line count, by its characters, or be one over-long line.
    text = "\n".join(["header", *lines]) + ("\n" if final_lf else "")
    body = text[7:]
    expected = body.removesuffix("\n").split("\n") if body else []
    with mock.patch.object(fileio, "_CHUNK_LINES", max_lines), mock.patch.object(
        fileio, "_CHUNK_CHARS", max_chars
    ):
        chunks = list(fileio._chunks(text, 7))
    assert [line for _, chunk in chunks for line in chunk] == expected
    sizes = [len(chunk) for _, chunk in chunks]
    assert [first for first, _ in chunks] == list(accumulate(sizes, initial=2))[:-1]
    for _, chunk in chunks:
        assert 1 <= len(chunk) <= max_lines
        assert len(chunk) == 1 or len("\n".join(chunk)) < max_chars


# -- memory ---------------------------------------------------------------------------


def traced(fn, *args):
    """fn's result, and the bytes it holds and its peak, above the start."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_chunks_split_only_the_lines_they_yield(monkeypatch):
    # 100k short lines in one window of 1 Mi characters, 64 lines a chunk.
    # Splitting the whole window held a str per line of it, a peak of 6.7 MB
    # here (Python 3.11); splitting only the yielded lines holds the
    # window's text, as its slice and its unsplit rest, and one chunk's
    # lines: 0.79 MB.
    monkeypatch.setattr(fileio, "_CHUNK_LINES", 64)
    monkeypatch.setattr(fileio, "_CHUNK_CHARS", 1 << 20)
    text = "header\n" + "".join(f"{i % 1000}\n" for i in range(100_000))
    rows, _, peak = traced(lambda: sum(len(lines) for _, lines in fileio._chunks(text, 7)))
    assert rows == 100_000
    assert peak <= 2 * len(text) + 64 * 1024, (peak, len(text))


def predictions_text(n: int) -> str:
    rows = [
        f"img{i // 8:05d},p{(7 * i) % 500:03d},0.{i % 997:03d},{i % 900}.5,{i % 700}.0,"
        f"{i % 900 + 80}.5,{i % 700 + 60}.25,,,"
        for i in range(n)
    ]
    return fileio.PREDICTIONS_HEADER + "\n" + "".join(row + "\n" for row in rows)


def logit_text(rois: int, categories: int = 100) -> str:
    rng = np.random.default_rng(7)
    names = [f"c{k:03d}" for k in range(categories)]
    return fileio.write_logit_matrix(rng.normal(size=(rois, categories)), names).decode()


@pytest.mark.parametrize(
    "parse, text_of, sizes",
    [
        (fileio.parse_prediction_table, predictions_text, (20_000, 80_000)),
        (fileio.parse_logit_matrix, logit_text, (200, 800)),
    ],
    ids=["predictions", "logit matrix"],
)
def test_a_parse_peak_above_what_it_holds_grows_at_most_16_bytes_per_line(parse, text_of, sizes):
    # The text is given decoded, so that only the parse's own transients
    # count.  With a list of every line, the peak above what the result
    # holds grew by 143 B per predictions line and 86 B per logit line here
    # (Python 3.11, numpy 2.4); a chunk at a time it grows by less than 5,
    # from the id codes' last pass.
    transients, lines = [], []
    for size in sizes:
        text = text_of(size)
        lines.append(text.count("\n") - 1)
        _, held, peak = traced(parse, text)
        transients.append(peak - held)
    slope = (transients[1] - transients[0]) / (lines[1] - lines[0])
    assert slope <= 16, (slope, transients)


def test_a_written_table_holds_at_most_64_bytes_per_row_beyond_its_columns():
    # Lines of 47 characters.  A list of str held 104 B/row here (Python
    # 3.11, numpy 2.4); one encoded buffer with int64 row ends holds 56.
    rows = 20_000
    text = "".join(
        f"img{i // 8:08d},p{(7 * i) % 500:04d},0.{i % 9 + 1}{i % 7 + 1},{i % 90 + 10}.5,"
        f"{i % 70 + 10}.0,{i % 90 + 110}.5,{i % 70 + 110}.0,,,\n"
        for i in range(rows)
    )
    assert len(text) == 48 * rows
    table = fileio.parse_prediction_table(fileio.PREDICTIONS_HEADER + "\n" + text)
    lines, held, _ = traced(fileio._prediction_lines, table)
    table.lines = lines
    assert fileio.write_predictions(table).decode() == fileio.PREDICTIONS_HEADER + "\n" + text
    assert held / rows <= 64, held / rows
