"""Command-line interface.

Every pipeline operation is a subcommand; ``pipeline`` chains them from a
plain-text configuration file, with the parser that parsed its own
arguments.  Within one pipeline run, a file that several stages read is
parsed once, as a predictions, ground-truth or verification table, and
released after its last reader.  A file that a stage writes goes to the
later stages that read it as the value written: a predictions table, with
its rows' lines as the one encoded buffer the file was written from, and a
label matrix, a RoI pool or a list of category groups when parsing the
bytes would give exactly that value.
Every table a stage builds holds exactly the ids of its rows, as its parse
would, and ``by_image`` gives a table's rows of one image.  The run keeps
one BLAKE2b digest per path, of the bytes last parsed or written there, and
no bytes: a stage that reads a file whose bytes no longer match parses
them.  A parser is given a file's decoded text, its bytes already dropped,
and ``ensemble`` parses its files one at a time, each released after its
NMS.  A verification file is one coded ``VerificationTable`` from parse to
hierarchy expansion, and the table keeps its closure over the hierarchy, so
``eval`` and every ``assign`` that read one parse share one closure.
``assign`` closes the whole table, which checks every image for conflicts,
and reads its image's label statuses from that closure.  It,
``sample-rois``, ``partition-pool``, ``filter-expert`` and ``eval`` take
boxes and codes from the tables and pools, and build no row views beyond
one image's ground truth.  A stage may not name one file for two of its
outputs, nor a pipeline stage the run's manifest.  Outputs are written
atomically (to a temporary file in the destination directory, then
renamed).  ``main`` freezes the objects its imports left before it runs, so
the collections that parsing triggers do not scan them again.  Exit status:
0 on success, 1 on validation or I/O errors (one machine-parsable line on
stderr: ``error<TAB>type<TAB>message``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import tempfile
# CPython's own BLAKE2; hashlib would load OpenSSL (about 7 ms and 1.7 MB).
from _blake2 import blake2b
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fileio
from .ensemble import ensemble, nms
from .errors import ValidationError
from .evaluation import evaluate
from .experts import (
    CategoryGroup,
    filter_for_expert,
    rarity_ranking,
    restrict_predictions,
    split_by_embedding,
    split_by_rank,
)
from .federated import (
    assign_rois,
    build_label_matrix,
    classification_loss,
    expand_verification,
)
from .fileio import _decode, _prediction_file, _prediction_lines
from .postprocess import (
    DEFAULT_BYTE_BUDGET,
    DEFAULT_MIN_MASK_AREA,
    drop_small_masks,
    trim_to_budget,
)
from .records import DEFAULT_POOL_LIMIT
from .table import PredictionTable
from .training import SamplerConfig, base_lr, cosine_lr, fnv1a64, partition_pool, sample_rois

__all__ = ["run", "main", "build_parser"]

PROG = "detpipe"


# -- small file helpers ---------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_bytes_atomic(path: str, *parts: bytes) -> None:
    """Write the file of parts, one after another, without joining them."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp_name, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


# -- the run's store ----------------------------------------------------------------


@dataclass
class _Record:
    """What a pipeline run keeps for one path that its stages read.
    ``readers`` counts the stages that list the path and have not finished,
    the running one included.  ``digest`` is the BLAKE2b digest of the bytes
    this run last parsed or wrote at the path, and ``result`` what ``parse``
    gives for those bytes: the result of an earlier reader's parse, or the
    value a stage wrote there.  They are kept only for a later reader, and
    only the stages' writers and ``_load`` set them."""

    readers: int
    digest: bytes = b""
    parse: Callable | None = None
    result: object = None


# A record for each path that a stage of the running pipeline reads, from
# the start of the run until the path's last reader finishes; a single
# subcommand keeps none.  No file's bytes are kept, and a stage never
# mutates what `_load` gives it.
_store: dict[str, _Record] = {}


def _digest(*parts: bytes) -> bytes:
    """The BLAKE2b digest of the file of parts."""
    hasher = blake2b()
    for part in parts:
        hasher.update(part)
    return hasher.digest()


def _load(parse: Callable[[str], object], path: str):
    """parse(the text at path), or what this run kept for the same parser
    and the same bytes at that path: an earlier stage's parse, or the value
    that a stage wrote there.  The bytes are hashed when a record needs
    their digest, then decoded, and dropped before the parse: a parser is
    given the text alone.  A decode error is the ParseError every parser
    raises first."""
    data = _read_bytes(path)
    record = _store.get(path)
    digest = b""
    if record is not None and (record.parse is not None or record.readers > 1):
        digest = _digest(data)
        if record.parse is parse and record.digest == digest:
            return record.result
    text = _decode(data)
    del data
    result = parse(text)
    if record is not None and record.readers > 1:
        _store[path] = _Record(record.readers, digest, parse, result)
    return result


def _write(path: str, *parts: bytes, parse: Callable | None = None, value: object = None) -> None:
    """Write a stage's output atomically, as the file of parts, which are
    written and hashed one after another and never joined.  With parse,
    the later stages of this run that read the path with parse get value,
    for as long as the file keeps these bytes: value must be exactly what
    parse gives for them.  A written predictions table is: ``take`` keeps
    its vocabularies to the ids of its rows, its other columns read back as
    they are, and it carries the encoded lines it was written from, which a
    later stage's ``take`` copies and trim sizes its rows by.  Without
    parse, nothing is handed and the path's next reader parses."""
    _write_bytes_atomic(path, *parts)
    record = _store.get(path)
    if record is not None:
        digest = _digest(*parts) if parse else b""
        _store[path] = _Record(record.readers, digest, parse, value)


def _write_predictions(path: str, table: PredictionTable) -> None:
    """Write a predictions table, formatting its rows once into one encoded
    buffer, a chunk of rows at a time, and hand it, with that buffer, to the
    path's later readers: the file is the header and the buffer, written
    one after the other."""
    table.lines = _prediction_lines(table)
    _write(path, *_prediction_file(table), parse=fileio.parse_prediction_table, value=table)


def _finished(inputs: list[str]) -> None:
    """Count a finished stage out of its inputs' readers, and drop the
    record of each path that no later stage reads."""
    for path in set(inputs):
        _store[path].readers -= 1
        if not _store[path].readers:
            del _store[path]


# -- stage declarations -------------------------------------------------------------

# Flag roles.  A pipeline resolves input and output paths against the config
# and run directories, records them in the manifest and checks that inputs
# exist; it passes parameters through verbatim.
INPUT, OUTPUT, PARAM = "input", "output", "parameter"


@dataclass(frozen=True)
class Flag:
    """One argument of a subcommand: its argparse name and settings, and its
    role.  Its pipeline config key is the name without leading dashes.  The
    ``either_or`` flags of a subcommand form one required group of which
    exactly one is given."""

    name: str
    role: str
    settings: dict
    either_or: bool = False

    @property
    def key(self) -> str:
        return self.name.lstrip("-")

    @property
    def dest(self) -> str:
        return self.settings.get("dest", self.key.replace("-", "_"))

    @property
    def many(self) -> bool:
        """Takes several values; a config gives them whitespace-separated."""
        return "nargs" in self.settings


def _flag(name: str, role: str = PARAM, either_or: bool = False, **settings) -> Flag:
    return Flag(name, role, settings, either_or)


@dataclass(frozen=True)
class Stage:
    """One subcommand: its name, help text, run function and flags.
    ``outputs`` gives the files a run writes, from its parsed arguments, when
    they are not the values of its output flags.  A pipeline config may not
    name a stage whose ``in_config`` is false."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: tuple[Flag, ...]
    outputs: Callable[[argparse.Namespace], list[str]] | None = None
    in_config: bool = True

    def output_paths(self, args: argparse.Namespace) -> list[str]:
        """The files a run writes.  One file named for two of them, compared
        as real paths, is an error: the later write would replace the
        earlier."""
        paths = self.outputs(args) if self.outputs else self.paths(args, OUTPUT)
        named: dict[str, str] = {}
        for path in paths:
            real = os.path.realpath(path)
            if real in named:
                raise ValidationError(f"outputs {named[real]} and {path} are one file")
            named[real] = path
        return paths

    def paths(self, args: argparse.Namespace, role: str) -> list[str]:
        """The values given to this stage's flags of one role, in flag order."""
        found: list[str] = []
        for flag in self.flags:
            value = getattr(args, flag.dest)
            if flag.role == role and value is not None:
                found.extend(value if flag.many else [value])
        return found


# -- subcommand implementations ---------------------------------------------------


def _cmd_nms(args: argparse.Namespace) -> int:
    table = _load(fileio.parse_prediction_table, args.input)
    _write_predictions(args.out, nms(table, args.iou_threshold))
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    # One file parsed at a time: ensemble drops each table after its NMS.
    tables = (_load(fileio.parse_prediction_table, path) for path in args.inputs)
    _write_predictions(args.out, ensemble(tables, args.iou_threshold))
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    pool = _load(fileio.parse_roi_pool, args.rois)
    gts = _load(fileio.parse_ground_truth, args.ground_truth)
    verification = _load(fileio.parse_verification, args.verification)
    hierarchy = _load(fileio.parse_hierarchy, args.hierarchy)
    categories = _load(fileio.parse_category_list, args.categories)
    roi_rows = pool.by_image()
    if args.image_id not in roi_rows:
        raise ValidationError(f"image {args.image_id!r} is not in the RoI pool")
    image_gts = gts.take(gts.by_image()[args.image_id])
    expanded = expand_verification(verification, hierarchy)
    assignment = assign_rois(pool.boxes[roi_rows[args.image_id]], image_gts, args.iou_threshold)
    matrix = build_label_matrix(assignment, image_gts, expanded, args.image_id, categories)
    # The parser rejects a matrix without cells; the categories come from a
    # parsed category list, so any other matrix reads back as itself.
    parse = fileio.parse_label_matrix if matrix.values.size else None
    _write(args.out, fileio.write_label_matrix(matrix), parse=parse, value=matrix)
    return 0


def _cmd_loss(args: argparse.Namespace) -> int:
    labels = _load(fileio.parse_label_matrix, args.labels)
    logits, categories = _load(fileio.parse_logit_matrix, args.logits)
    if categories != labels.categories:
        raise ValidationError(
            "logit matrix categories do not match the label matrix"
        )
    value = classification_loss(logits, labels)
    print(f"loss,{value!r}")
    return 0


def _cmd_sample_rois(args: argparse.Namespace) -> int:
    pool = _load(fileio.parse_roi_pool, args.rois)
    gts = _load(fileio.parse_ground_truth, args.ground_truth)
    config = SamplerConfig(
        n_sample=args.n_sample,
        fg_fraction=args.fg_fraction,
        fg_iou_threshold=args.fg_iou_threshold,
        seed=args.seed,
    )
    roi_rows, gt_rows = pool.by_image(), gts.by_image()
    samples: dict[str, list[int]] = {}
    for image_id in pool.image_ids:
        gt_boxes = gts.boxes[gt_rows[image_id]]
        per_image = replace(config, seed=config.seed ^ fnv1a64(image_id))
        samples[image_id] = sample_rois(pool.boxes[roi_rows[image_id]], gt_boxes, per_image)
    _write(args.out, fileio.write_sampled_indices(samples))
    return 0


def _cmd_partition_pool(args: argparse.Namespace) -> int:
    paths = _partition_paths(args)
    pool = _load(fileio.parse_roi_pool, args.rois)
    parts: list[list[int]] = [[] for _ in paths]
    for image_rows in pool.by_image().values():
        for index, chunk in enumerate(partition_pool(image_rows.tolist(), args.k)):
            parts[index] += chunk
    # Images in id order and each image's rows in order, as the file
    # holds them: the part reads back as itself.
    for path, rows in zip(paths, parts):
        part = pool.take(np.array(rows, dtype=np.int64))
        _write(path, fileio.write_roi_pool(part), parse=fileio.parse_roi_pool, value=part)
    return 0


def _partition_paths(args: argparse.Namespace) -> list[str]:
    if args.k < 1:
        raise ValidationError(f"number of partitions must be >= 1, got {args.k}")
    # A pool holds at most DEFAULT_POOL_LIMIT RoIs per image, so any further
    # partition would be empty for every image.
    if args.k > DEFAULT_POOL_LIMIT:
        raise ValidationError(
            f"number of partitions must be at most {DEFAULT_POOL_LIMIT}, "
            f"the per-image pool limit, got {args.k}"
        )
    return [f"{args.out_prefix}{index}.csv" for index in range(args.k)]


def _cmd_lr(args: argparse.Namespace) -> int:
    eta0 = args.eta0 if args.eta0 is not None else base_lr(args.batch_size)
    for progress in args.at:
        print(f"{progress!r},{cosine_lr(progress, eta0)!r}")
    return 0


def _cmd_split_experts(args: argparse.Namespace) -> int:
    if args.by == "rank":
        if args.stats is None:
            raise ValidationError("--stats is required with --by rank")
        if args.start_rank is None or args.end_rank is None or args.num_experts is None:
            raise ValidationError(
                "--start-rank, --end-rank and --num-experts are required with --by rank"
            )
        stats = _load(fileio.parse_category_stats, args.stats)
        ranking = rarity_ranking(stats)
        groups = split_by_rank(ranking, args.start_rank, args.end_rank, args.num_experts)
    else:
        if args.embeddings is None:
            raise ValidationError("--embeddings is required with --by embedding")
        if args.k is None:
            raise ValidationError("--k is required with --by embedding")
        table = _load(fileio.parse_embeddings, args.embeddings)
        groups = split_by_embedding(table, args.k, seed=args.seed)
    # A group file records only each group's categories.
    written = [CategoryGroup(group.categories) for group in groups]
    _write(
        args.out,
        fileio.write_category_groups(groups),
        parse=fileio.parse_category_groups,
        value=written,
    )
    return 0


def _select_group(path: str, group_index: int | None):
    groups = _load(fileio.parse_category_groups, path)
    if not groups:
        raise ValidationError(f"group file {path} contains no groups")
    if group_index is None:
        if len(groups) > 1:
            raise ValidationError(
                f"group file {path} has {len(groups)} groups; pass --group-index"
            )
        return groups[0]
    if not 0 <= group_index < len(groups):
        raise ValidationError(
            f"group index {group_index} out of range for {len(groups)} groups"
        )
    return groups[group_index]


def _cmd_filter_expert(args: argparse.Namespace) -> int:
    gts = _load(fileio.parse_ground_truth, args.ground_truth)
    verification = _load(fileio.parse_verification, args.verification)
    group = _select_group(args.group_file, args.group_index)
    kept_gts, kept_verification, kept_images = filter_for_expert(gts, verification, group)
    _write(args.out_ground_truth, fileio.write_ground_truth(kept_gts))
    _write(args.out_verification, fileio.write_verification(kept_verification))
    _write(args.out_images, fileio.write_image_list(kept_images))
    return 0


def _cmd_restrict(args: argparse.Namespace) -> int:
    table = _load(fileio.parse_prediction_table, args.input)
    group = _select_group(args.group_file, args.group_index)
    _write_predictions(args.out, restrict_predictions(table, group))
    return 0


def _cmd_drop_small_masks(args: argparse.Namespace) -> int:
    table = _load(fileio.parse_prediction_table, args.input)
    _write_predictions(args.out, drop_small_masks(table, args.min_area))
    return 0


def _cmd_trim(args: argparse.Namespace) -> int:
    table = _load(fileio.parse_prediction_table, args.input)
    survivors, report = trim_to_budget(table, args.max_bytes)
    _write_predictions(args.out, survivors)
    _write(args.report, fileio.write_trim_report(report))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    predictions = _load(fileio.parse_prediction_table, args.predictions)
    gts = _load(fileio.parse_ground_truth, args.ground_truth)
    verification = _load(fileio.parse_verification, args.verification)
    hierarchy = _load(fileio.parse_hierarchy, args.hierarchy)
    report = evaluate(
        predictions, gts, verification, hierarchy, args.iou_threshold, args.mode
    )
    _write(args.out_report, fileio.write_eval_report(report))
    print(f"mAP,{report.mean_ap:.6f}")
    return 0


# -- pipeline ----------------------------------------------------------------------


@dataclass
class _StagePlan:
    section: str
    stage: Stage
    argv: list[str]
    inputs: list[str]
    outputs: list[str]
    args: argparse.Namespace


def _parse_config_sections(text: str):
    """Parse the INI-like pipeline config into (label, stage, options) tuples.

    A section header names the stage to run; an optional ``.label`` suffix
    distinguishes repeated stages.  Keys use ``key = value``; values are
    taken verbatim after stripping whitespace.
    """
    sections: list[tuple[str, str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            label = line[1:-1].strip()
            stage = label.split(".", 1)[0]
            if stage not in _STAGES or not _STAGES[stage].in_config:
                raise ValidationError(f"config line {number}: unknown stage {stage!r}")
            current = {}
            sections.append((label, stage, current))
            continue
        if current is None:
            raise ValidationError(f"config line {number}: key outside any [stage] section")
        if "=" not in line:
            raise ValidationError(f"config line {number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise ValidationError(f"config line {number}: empty key")
        if key in current:
            raise ValidationError(f"config line {number}: duplicate key {key!r}")
        current[key] = value
    if not sections:
        raise ValidationError("pipeline config defines no stages")
    return sections


def _plan_stage(
    label: str,
    stage: Stage,
    options: dict[str, str],
    parser: argparse.ArgumentParser,
    config_dir: Path,
    run_dir: Path,
    produced: set[str],
) -> _StagePlan:
    """Render one config section as the stage's argv and parse it.  Relative
    outputs land in the run directory; relative inputs resolve to a prior
    stage's output when one matches and to the config directory otherwise."""

    def resolve(flag: Flag, raw: str) -> str:
        if flag.role == PARAM or os.path.isabs(raw):
            return raw
        in_run_dir = str(run_dir / raw)
        if flag.role == OUTPUT or in_run_dir in produced:
            return in_run_dir
        return str(config_dir / raw)

    flags = {flag.key: flag for flag in stage.flags}
    argv = [stage.name]
    for key, value in options.items():
        # Exact keys only: argparse would also take a prefix of a flag, or
        # --help, and neither would be resolved as a path.
        if key not in flags:
            raise ValidationError(f"stage {label!r}: unknown key {key!r}")
        flag = flags[key]
        tokens = [resolve(flag, raw) for raw in (value.split() if flag.many else [value])]
        argv.extend(tokens if not flag.name.startswith("-") else [f"--{key}", *tokens])
    stderr_buffer = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr_buffer):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        detail = stderr_buffer.getvalue().strip().splitlines()
        raise ValidationError(
            f"stage {label!r}: invalid arguments" + (f": {detail[-1]}" if detail else "")
        ) from exc
    inputs = stage.paths(args, INPUT)
    for path in inputs:
        if path not in produced and not os.path.exists(path):
            raise ValidationError(f"stage {label!r}: input file not found: {path}")
    try:
        outputs = stage.output_paths(args)
    except ValidationError as exc:
        raise ValidationError(f"stage {label!r}: {exc}") from exc
    manifest = os.path.realpath(run_dir / "manifest.json")
    for path in outputs:
        if os.path.realpath(path) == manifest:
            raise ValidationError(f"stage {label!r}: output {path} is the run's manifest")
    produced.update(outputs)
    return _StagePlan(label, stage, argv, inputs, outputs, args)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config_text = _decode(_read_bytes(str(config_path)))
    run_dir = Path(args.run_dir)
    config_dir = config_path.resolve().parent
    produced: set[str] = set()
    plans = [
        _plan_stage(
            label, _STAGES[stage], options, args.parser, config_dir, run_dir.resolve(), produced
        )
        for label, stage, options in _parse_config_sections(config_text)
    ]
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": str(config_path.resolve()),
        "run_dir": str(run_dir.resolve()),
        "stages": [],
    }
    try:
        readers = Counter(path for plan in plans for path in set(plan.inputs))
        _store.update((path, _Record(count)) for path, count in readers.items())
        for plan in plans:
            entry = {
                "section": plan.section,
                "stage": plan.stage.name,
                "argv": plan.argv,
                "inputs": plan.inputs,
                "outputs": plan.outputs,
                "status": "ok",
            }
            try:
                plan.stage.run(plan.args)
            except (ValidationError, OSError) as exc:
                entry["status"] = "failed"
                entry["error"] = str(exc)
                manifest["stages"].append(entry)
                raise ValidationError(f"stage {plan.section!r} failed: {exc}") from exc
            _finished(plan.inputs)
            manifest["stages"].append(entry)
    finally:
        _store.clear()
        # Written once, however the stage loop ends: one encode of every
        # entry, not one per stage.
        _write_bytes_atomic(
            str(run_dir / "manifest.json"),
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
    return 0


# -- stage table --------------------------------------------------------------------


_IOU_THRESHOLD = _flag(
    "--iou-threshold", type=float, default=0.5, help="IoU threshold (default 0.5)"
)
_GROUP_INDEX = _flag("--group-index", type=int, default=None)

_STAGES: dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage("nms", "class-wise non-maximum suppression", _cmd_nms, (
            _flag("--in", INPUT, dest="input", required=True, help="predictions CSV"),
            _flag("--out", OUTPUT, required=True, help="output predictions CSV"),
            _IOU_THRESHOLD,
        )),
        Stage("ensemble", "two-stage multi-model ensembling", _cmd_ensemble, (
            _flag("inputs", INPUT, nargs="+", help="prediction CSVs, one per model, in order"),
            _flag("--out", OUTPUT, required=True, help="output predictions CSV"),
            _IOU_THRESHOLD,
        )),
        Stage("assign", "build one image's label matrix", _cmd_assign, (
            _flag("--image-id", required=True),
            _flag("--rois", INPUT, required=True, help="RoI pool CSV"),
            _flag("--ground-truth", INPUT, required=True, help="ground truth CSV"),
            _flag("--verification", INPUT, required=True, help="verification CSV"),
            _flag("--hierarchy", INPUT, required=True, help="hierarchy JSON"),
            _flag("--categories", INPUT, required=True, help="category list CSV"),
            _IOU_THRESHOLD,
            _flag("--out", OUTPUT, required=True, help="output label matrix CSV"),
        )),
        Stage("loss", "classification loss of logits vs labels", _cmd_loss, (
            _flag("--labels", INPUT, required=True, help="label matrix CSV"),
            _flag("--logits", INPUT, required=True, help="logit matrix CSV"),
        )),
        Stage("sample-rois", "sample head-training RoIs per image", _cmd_sample_rois, (
            _flag("--rois", INPUT, required=True, help="RoI pool CSV"),
            _flag("--ground-truth", INPUT, required=True, help="ground truth CSV"),
            _flag("--n-sample", type=int, default=512),
            _flag("--fg-fraction", type=float, default=0.25),
            _flag("--fg-iou-threshold", type=float, default=0.5),
            _flag("--seed", type=int, default=0),
            _flag("--out", OUTPUT, required=True, help="output sampled-index CSV"),
        )),
        Stage("partition-pool", "split an RoI pool into k disjoint pools", _cmd_partition_pool, (
            _flag("--rois", INPUT, required=True, help="RoI pool CSV"),
            _flag("--k", type=int, required=True),
            _flag("--out-prefix", OUTPUT, required=True,
                  help="output prefix; partition i goes to <prefix><i>.csv"),
        ), outputs=_partition_paths),
        Stage("lr", "print the cosine schedule at given progress values", _cmd_lr, (
            _flag("--batch-size", either_or=True, type=int,
                  help="derive eta0 as 0.00125 * batch size"),
            _flag("--eta0", either_or=True, type=float, help="explicit initial learning rate"),
            _flag("--at", type=float, action="append", required=True,
                  help="progress ratio in [0, 1]; repeatable"),
        )),
        Stage("split-experts", "build expert category groups", _cmd_split_experts, (
            _flag("--by", choices=("rank", "embedding"), required=True),
            _flag("--stats", INPUT, help="category stats CSV (rank mode)"),
            _flag("--start-rank", type=int, help="window start, 0 = rarest (rank mode)"),
            _flag("--end-rank", type=int, help="window end, exclusive (rank mode)"),
            _flag("--num-experts", type=int, help="number of groups (rank mode)"),
            _flag("--embeddings", INPUT, help="embeddings CSV (embedding mode)"),
            _flag("--k", type=int, help="number of clusters (embedding mode)"),
            _flag("--seed", type=int, default=0, help="clustering seed (embedding mode)"),
            _flag("--out", OUTPUT, required=True, help="output group CSV"),
        )),
        Stage("filter-expert", "restrict a training set to one group", _cmd_filter_expert, (
            _flag("--ground-truth", INPUT, required=True, help="ground truth CSV"),
            _flag("--verification", INPUT, required=True, help="verification CSV"),
            _flag("--group-file", INPUT, required=True, help="group CSV"),
            _GROUP_INDEX,
            _flag("--out-ground-truth", OUTPUT, required=True),
            _flag("--out-verification", OUTPUT, required=True),
            _flag("--out-images", OUTPUT, required=True, help="kept image list CSV"),
        )),
        Stage("restrict", "drop predictions outside a category group", _cmd_restrict, (
            _flag("--in", INPUT, dest="input", required=True, help="predictions CSV"),
            _flag("--group-file", INPUT, required=True, help="group CSV"),
            _GROUP_INDEX,
            _flag("--out", OUTPUT, required=True),
        )),
        Stage("drop-small-masks", "remove predictions with tiny masks", _cmd_drop_small_masks, (
            _flag("--in", INPUT, dest="input", required=True, help="predictions CSV"),
            _flag("--min-area", type=int, default=DEFAULT_MIN_MASK_AREA),
            _flag("--out", OUTPUT, required=True),
        )),
        Stage("trim", "trim predictions to a byte budget", _cmd_trim, (
            _flag("--in", INPUT, dest="input", required=True, help="predictions CSV"),
            _flag("--max-bytes", type=int, default=DEFAULT_BYTE_BUDGET),
            _flag("--out", OUTPUT, required=True),
            _flag("--report", OUTPUT, required=True, help="trim report CSV"),
        )),
        Stage("eval", "federated mean average precision", _cmd_eval, (
            _flag("--predictions", INPUT, required=True, help="predictions CSV"),
            _flag("--ground-truth", INPUT, required=True, help="ground truth CSV"),
            _flag("--verification", INPUT, required=True, help="verification CSV"),
            _flag("--hierarchy", INPUT, required=True, help="hierarchy JSON"),
            _flag("--mode", choices=("box", "mask"), default="box"),
            _IOU_THRESHOLD,
            _flag("--out-report", OUTPUT, required=True, help="per-category report CSV"),
        )),
        Stage("pipeline", "run a multi-stage configuration", _cmd_pipeline, (
            _flag("--config", INPUT, required=True, help="pipeline config file"),
            _flag("--run-dir", required=True, help="directory for outputs and manifest"),
        ), in_config=False),
    )
}


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Detection prediction post-processing toolkit.",
    )
    # Every parse carries its parser, with which `pipeline` parses the
    # argv of each of its stages.
    parser.set_defaults(parser=parser)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for stage in _STAGES.values():
        sub = subparsers.add_parser(stage.name, help=stage.help)
        if any(flag.either_or for flag in stage.flags):
            either_or = sub.add_mutually_exclusive_group(required=True)
        for flag in stage.flags:
            (either_or if flag.either_or else sub).add_argument(flag.name, **flag.settings)
    return parser


def run(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    stage = _STAGES[args.command]
    try:
        stage.output_paths(args)
        return int(stage.run(args) or 0)
    except (ValidationError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error\t{type(exc).__name__}\t{message}", file=sys.stderr)
        return 1


def main() -> None:
    # What the imports left behind lives as long as the process: freezing it
    # keeps the collections that parsing triggers from scanning it again.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
