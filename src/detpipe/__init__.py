"""detpipe: post-processing toolkit for detection/segmentation prediction files.

Operates on prediction and annotation files rather than a live network:
federated label assignment and its masked classification loss, RoI pool
utilities, multi-model ensembling, expert category splits, federated mAP
evaluation, and submission-stage filtering.
"""

from .errors import ParseError, ValidationError
from .geometry import (
    BinaryMask,
    Box,
    box_area,
    box_iou,
    mask_area,
    mask_decode,
    mask_encode,
    mask_iou,
)
from .records import (
    DEFAULT_POOL_LIMIT,
    NEGATIVE,
    POSITIVE,
    UNVERIFIED,
    CategoryStats,
    EmbeddingTable,
    GroundTruthInstance,
    Hierarchy,
    Prediction,
    Roi,
    RoiPool,
    VerificationTable,
)
from .federated import (
    Assignment,
    LabelMatrix,
    assign_rois,
    build_label_matrix,
    classification_loss,
    expand_verification,
)
from .training import (
    SamplerConfig,
    SplitMix64,
    base_lr,
    cosine_lr,
    fnv1a64,
    partition_pool,
    sample_rois,
)
from .ensemble import PredictionGroup, ensemble, fuse_group, group_predictions, nms
from .postprocess import (
    DEFAULT_BYTE_BUDGET,
    DEFAULT_MIN_MASK_AREA,
    TrimReport,
    drop_small_masks,
    trim_to_budget,
)
from .experts import (
    EMBEDDING_CLUSTER,
    RANK_SPLIT,
    CategoryGroup,
    filter_for_expert,
    rarity_ranking,
    restrict_predictions,
    split_by_embedding,
    split_by_rank,
)
from .evaluation import (
    FALSE_POSITIVE,
    IGNORED,
    TRUE_POSITIVE,
    CategoryResult,
    EvalReport,
    MatchResult,
    average_precision,
    evaluate,
    match_category,
)
from .fileio import serialized_size

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "ValidationError",
    "BinaryMask",
    "Box",
    "box_area",
    "box_iou",
    "mask_area",
    "mask_decode",
    "mask_encode",
    "mask_iou",
    "DEFAULT_POOL_LIMIT",
    "NEGATIVE",
    "POSITIVE",
    "UNVERIFIED",
    "CategoryStats",
    "EmbeddingTable",
    "GroundTruthInstance",
    "Hierarchy",
    "Prediction",
    "Roi",
    "RoiPool",
    "VerificationTable",
    "Assignment",
    "LabelMatrix",
    "assign_rois",
    "build_label_matrix",
    "classification_loss",
    "expand_verification",
    "SamplerConfig",
    "SplitMix64",
    "base_lr",
    "cosine_lr",
    "fnv1a64",
    "partition_pool",
    "sample_rois",
    "PredictionGroup",
    "ensemble",
    "fuse_group",
    "group_predictions",
    "nms",
    "DEFAULT_BYTE_BUDGET",
    "DEFAULT_MIN_MASK_AREA",
    "TrimReport",
    "drop_small_masks",
    "trim_to_budget",
    "EMBEDDING_CLUSTER",
    "RANK_SPLIT",
    "CategoryGroup",
    "filter_for_expert",
    "rarity_ranking",
    "restrict_predictions",
    "split_by_embedding",
    "split_by_rank",
    "FALSE_POSITIVE",
    "IGNORED",
    "TRUE_POSITIVE",
    "CategoryResult",
    "EvalReport",
    "MatchResult",
    "average_precision",
    "evaluate",
    "match_category",
    "serialized_size",
]
