"""Report-level verdicts from span importance scores.

`AGGREGATORS` is the one owner of the aggregators: a table from name to
rule, `average` (mean span score) and `minimum` (a single bad span sinks the
report). A new aggregator, or a rule every aggregator must carry, is added
there and nowhere else. The verdict compares the aggregate strictly against
the threshold: qualified iff score > tau, so a score exactly at tau counts as
unqualified. Reports whose merge produces no spans are qualified by
definition with aggregate score 1.0.

`decide` checks the aggregator name, then the threshold, then answers the
spanless rule, and only then converts the scores: an unedited report costs no
score handling, and a bad name or threshold is still refused for it.

Both aggregators run in plain Python over a report's few scores. Below 8
values numpy's pairwise sum adds left to right, so `average` sums that few
in a plain loop and leaves 8 or more to `np.mean`; either way it equals
`np.mean` to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import length_hint

import numpy as np

from . import diffmerge
from .model import SpanScoringModel
from .types import ReportPair, ValidationError, check_fraction


@dataclass
class QAResult:
    report_id: str
    span_scores: list[float]
    aggregate_score: float
    verdict: int  # 1 qualified, 0 unqualified
    aggregator: str
    threshold: float


def _mean(values: list[float]) -> float:
    """Mean of a non-empty list of floats, equal to np.mean to the last bit."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


AGGREGATORS = {"average": _mean, "minimum": min}


def decide(report_id: str, span_scores, aggregator: str, threshold: float) -> QAResult:
    """Aggregate span scores and apply the strict threshold rule. In order: the
    aggregator must be named in AGGREGATORS, the threshold a number in [0, 1];
    no scores give the spanless result; float() must make each score finite."""
    try:
        rule = AGGREGATORS[aggregator]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValidationError(
            f"unknown aggregator {aggregator!r}; use one of {tuple(AGGREGATORS)}") from None
    try:
        threshold = check_fraction("threshold", threshold)
        # length_hint is len() where there is one, so an empty list, tuple or
        # array converts nothing; an iterator of unknown length is converted
        scores = [float(s) for s in span_scores] if length_hint(span_scores, 1) else []
    except (TypeError, ValueError, OverflowError) as err:  # a ValidationError is a ValueError
        raise ValidationError(f"report {report_id!r}: {err}") from None
    if not scores:
        return QAResult(report_id, scores, 1.0, 1, aggregator, threshold)
    if not all(map(math.isfinite, scores)):
        raise ValidationError(f"report {report_id!r}: span scores {scores} are not all finite")
    agg = rule(scores)
    return QAResult(report_id, scores, agg, int(agg > threshold), aggregator, threshold)


def classify_report(pair: ReportPair, model: SpanScoringModel,
                    aggregator: str = "average") -> QAResult:
    """merge -> pool spans -> score each span -> aggregate -> verdict.

    Span embeddings come from backend.span_embeddings, the call the trainer
    scores with, so the threshold is applied to the scores it was fitted on.
    """
    mixed = diffmerge.merge_reports(pair)
    if not mixed.spans:
        return decide(pair.id, [], aggregator, model.threshold)
    S = model.backend.span_embeddings(mixed)
    return decide(pair.id, model.classifier.scores(S).tolist(), aggregator, model.threshold)
