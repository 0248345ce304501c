"""Span-level quality assurance for draft/revised report pairs.

Pipeline: diff a draft against its revision, tag the edited spans, score each
span's importance with a weakly supervised classifier, and aggregate span
scores into a qualified/unqualified verdict.
"""

from .types import Dataset, ParseError, ReportPair, SpanLabelRecord, ValidationError
from .diffmerge import (
    MixedReport,
    RevisedSpan,
    kernel_name,
    lcs_diff,
    merge_reports,
    reconstruct,
    span_char_indices,
)
from .corpus import (
    SynthesisConfig,
    generate_synthetic_corpus,
    load_report_pairs,
    load_span_labels,
    save_report_pairs,
    save_span_labels,
    split_dataset,
)
from .encoder import HashedWindowEncoder, PrecomputedEncoder
from .classifier import SpanClassifier, otsu_threshold, span_loss
from .selftrain import (
    TrainConfig,
    TrainingError,
    init_pseudo_labels,
    refresh_pseudo_labels,
    train,
    train_epoch,
)
from .model import SpanScoringModel, load_model, save_model
from .aggregate import QAResult, classify_report, decide
from .metrics import confusion, macro_metrics

__version__ = "0.1.0"

__all__ = [
    "Dataset", "ParseError", "ReportPair", "SpanLabelRecord", "ValidationError",
    "MixedReport", "RevisedSpan", "kernel_name", "lcs_diff",
    "merge_reports", "reconstruct", "span_char_indices",
    "SynthesisConfig", "generate_synthetic_corpus", "load_report_pairs",
    "load_span_labels", "save_report_pairs", "save_span_labels", "split_dataset",
    "HashedWindowEncoder", "PrecomputedEncoder",
    "SpanClassifier", "otsu_threshold", "span_loss",
    "TrainConfig", "TrainingError", "init_pseudo_labels",
    "refresh_pseudo_labels", "train", "train_epoch",
    "SpanScoringModel", "load_model", "save_model",
    "QAResult", "classify_report", "decide",
    "confusion", "macro_metrics",
    "__version__",
]
