"""Report-level verdicts from span importance scores.

Two aggregators: `average` (mean span score) and `minimum` (a single bad
span sinks the report). The verdict compares the aggregate strictly against
the threshold: qualified iff score > tau, so a score exactly at tau counts
as unqualified. Reports whose merge produces no spans are qualified by
definition with aggregate score 1.0.

Both aggregators run in plain Python over a report's few scores. The mean
is numpy's pairwise sum, reproduced bit for bit, divided by the count, so
`aggregate_average` equals `np.mean` to the last bit at every length.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diffmerge
from .model import SpanScoringModel
from .types import ReportPair, ValidationError

AGGREGATORS = ("average", "minimum")


@dataclass
class QAResult:
    report_id: str
    span_scores: list[float]
    aggregate_score: float
    verdict: int  # 1 qualified, 0 unqualified
    aggregator: str
    threshold: float


def _pairwise_sum(x: list[float], lo: int, n: int) -> float:
    """Sum of x[lo:lo + n] in the order of numpy's float64 pairwise sum:
    sequential below 8 values, eight interleaved accumulators up to blocks
    of 128, and above that two halves, the first rounded down to a
    multiple of 8."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += x[i]
        return total
    if n <= 128:
        acc = x[lo:lo + 8]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            for j in range(8):
                acc[j] += x[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(stop, lo + n):
            total += x[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x, lo, half) + _pairwise_sum(x, lo + half, n - half)


def _floats(scores) -> list[float]:
    values = [float(s) for s in scores]
    if not values:
        raise ValidationError("cannot aggregate an empty score list")
    return values


def aggregate_average(scores) -> float:
    values = _floats(scores)
    return _pairwise_sum(values, 0, len(values)) / len(values)


def aggregate_min(scores) -> float:
    return min(_floats(scores))


def decide(report_id: str, span_scores, aggregator: str, threshold: float) -> QAResult:
    """Aggregate span scores and apply the strict threshold rule."""
    if aggregator not in AGGREGATORS:
        raise ValidationError(f"unknown aggregator {aggregator!r}; use one of {AGGREGATORS}")
    span_scores = [float(s) for s in span_scores]
    if not span_scores:
        return QAResult(report_id, [], 1.0, 1, aggregator, threshold)
    agg = aggregate_average(span_scores) if aggregator == "average" else aggregate_min(span_scores)
    return QAResult(report_id, span_scores, agg, int(agg > threshold), aggregator, threshold)


def classify_report(pair: ReportPair, model: SpanScoringModel,
                    aggregator: str = "average") -> QAResult:
    """merge -> pool spans -> score each span -> aggregate -> verdict.

    Span embeddings come from backend.span_embeddings, the call the trainer
    scores with, so the threshold is applied to the scores it was fitted on.
    """
    mixed = diffmerge.merge_reports(pair)
    if not mixed.spans:
        return decide(pair.id, [], aggregator, model.threshold)
    S = model.backend.span_embeddings(mixed, [s.range for s in mixed.spans])
    return decide(pair.id, model.classifier.scores(S).tolist(), aggregator, model.threshold)
