"""Independent reference implementations used to check the package.

Everything here is written from the operation definitions, not from the
package code: IoU from raw corner tuples, NMS as a literal O(n^2) sweep, AP
as a brute-force enumeration of the interpolated precision envelope, and
budget trimming as a step-through of the removal rule with full
re-serialization each round, a verification table as a plain dict, and a
CSV file's data lines from its whole text split on LF.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np


def iou_ref(a: tuple, b: tuple) -> float:
    """IoU of two (x0, y0, x1, y1) tuples."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        inter = 0.0
    else:
        inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def _corners(p) -> tuple:
    return (p.box.x_min, p.box.y_min, p.box.x_max, p.box.y_max)


def nms_ref(predictions, threshold: float):
    """Literal O(n^2) greedy suppression, one stratum at a time."""
    kept = []
    keys = sorted({(p.image_id, p.category_id) for p in predictions})
    for key in keys:
        stratum = [
            (index, p)
            for index, p in enumerate(predictions)
            if (p.image_id, p.category_id) == key
        ]
        stratum.sort(key=lambda item: (-item[1].score, item[0]))
        kept_here = []
        for _, p in stratum:
            suppressed = False
            for other in kept_here:
                if iou_ref(_corners(p), _corners(other)) >= threshold:
                    suppressed = True
                    break
            if not suppressed:
                kept_here.append(p)
        kept.extend(kept_here)
    return kept


def ap_ref(flags, gt_count: int) -> Fraction:
    """AP as exact rational arithmetic over the PR points.

    For every distinct recall level, the interpolated precision is the
    maximum precision among points at that recall or beyond; AP is the sum
    of recall increments times that envelope.
    """
    points = []
    tp = 0
    fp = 0
    for flag in flags:
        if flag == "ignored":
            continue
        if flag == "tp":
            tp += 1
        else:
            fp += 1
        points.append((Fraction(tp, gt_count), Fraction(tp, tp + fp)))
    if not points:
        return Fraction(0)
    ap = Fraction(0)
    previous = Fraction(0)
    for recall in sorted({r for r, _ in points}):
        envelope = max(p for r, p in points if r >= recall)
        ap += (recall - previous) * envelope
        previous = recall
    return ap


def loss_ref(logits, labels) -> float:
    """Direct per-entry evaluation of the classification loss in 80-bit
    extended precision.

    Uses the exact identity 1 - sigmoid(x) = sigmoid(-x) so the negative
    branch never cancels.
    """
    x = np.asarray(logits, dtype=np.longdouble)
    total = np.longdouble(0)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            label = labels[i, j]
            if label == 1:
                total += -np.log(1 / (1 + np.exp(-x[i, j])))
            elif label == -1:
                total += -np.log(1 / (1 + np.exp(x[i, j])))
    return float(total)


def trim_ref(predictions, max_bytes: int, serialized_size):
    """Step-through of the trimming rule, re-serializing every round.

    Returns (survivors, removed_counts).  Removal per round: category with
    the most remaining predictions (ties: lexicographically smallest), its
    lowest-score prediction (ties: latest in input order).
    """
    current = list(predictions)
    removed: Counter = Counter()
    while serialized_size(current) > max_bytes:
        counts = Counter(p.category_id for p in current)
        category = min(counts, key=lambda c: (-counts[c], c))
        candidates = [i for i, p in enumerate(current) if p.category_id == category]
        victim = min(candidates, key=lambda i: (current[i].score, -i))
        removed[category] += 1
        del current[victim]
    return current, dict(removed)


def verification_ref(entries) -> tuple[dict | None, str | None]:
    """A verification mapping as a plain dict, each entry checked on its own
    from the rules: a key of an image id and a category id, each a non-empty
    string with no comma, LF or CR, and a sign that equals 1 or -1, kept as
    an int.  Returns (the dict, None), or (None, the message for the first
    entry that breaks a rule)."""
    copied = {}
    for key, sign in entries.items():
        image_id, category_id = key
        for name, value in (("image_id", image_id), ("category_id", category_id)):
            if not isinstance(value, str) or not value:
                return None, f"{name} must be a non-empty string, got {value!r}"
            if "," in value or "\n" in value or "\r" in value:
                return None, f"{name} must not contain commas or newlines: {value!r}"
        if sign not in (1, -1):
            return None, f"verification for {key!r} must be 1 or -1, got {sign!r}"
        copied[(image_id, category_id)] = int(sign)
    return copied, None


def csv_lines_ref(data, header: str):
    """Yield (line_number, line) for each data line of a CSV file, from its
    whole text split on LF, once its first line is header; an empty line is
    a ParseError.  The UTF-8 and carriage-return checks that come first are
    fileio._text's, which every reader shares.  The package is imported
    here because detbench loads this module without it on the path."""
    from detpipe import ParseError, fileio

    lines = fileio._text(data).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, f"missing header; expected {header!r}")
    if lines[0] != header:
        raise ParseError(1, f"bad header {lines[0]!r}; expected {header!r}")
    for number, line in enumerate(lines[1:], 2):
        if line == "":
            raise ParseError(number, "empty line")
        yield number, line
