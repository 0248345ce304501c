"""Type fuzz over the constructors that take a model's values, and over the
configuration records.

HashedWindowEncoder(table=), SpanClassifier(params=),
PrecomputedEncoder(matrices=), SpanScoringModel(threshold=) and decide each
get a value of every JSON kind in place of one value, or of one element of one
array. Every call must either build or raise ValidationError, and a model that
builds must score an edited pair to a non-NaN aggregate and a verdict of 0 or 1.

Each field of TrainConfig, and each numeric and seed field of SynthesisConfig,
gets each JSON kind too. A config must raise ValidationError or work: a
SynthesisConfig generates the same 3-report corpus twice, and a TrainConfig
trains on 3 reports to a model that scores. A count above what such a test can
run (2**64 epochs, or a 2**64-wide table) only has to build, since no count has
an upper bound but the window.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanqa.aggregate import AGGREGATORS, classify_report, decide
from spanqa.classifier import SpanClassifier
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus
from spanqa.diffmerge import merge_reports
from spanqa.encoder import HashedWindowEncoder, PrecomputedEncoder
from spanqa.model import SpanScoringModel
from spanqa.selftrain import TrainConfig, train
from spanqa.types import ReportPair, ValidationError

# one value of each JSON kind: null, bool, int, huge int (beyond 64 bits, and
# beyond the float range), float, NaN, +-Infinity, string, list and object
JSON_KINDS = [None, True, 7, 2**64, 10**400, -2.5, math.nan, math.inf, -math.inf, "0.5",
              [0.5], {"value": 0.5}]
KIND_IDS = ["null", "bool", "int", "2**64", "10**400", "float", "nan", "inf", "-inf",
            "string", "list", "object"]
MISSING = object()  # a parameter left out of the dict

PAIR = ReportPair("r", "axb", "ayb")
DIM, HIDDEN, BUCKETS = 3, 2, 8

fuzz = settings(derandomize=True, deadline=None, max_examples=12)


def substituted(data, array: np.ndarray, kind):
    """array as nested lists with one element, drawn by hypothesis, replaced by
    kind; or kind itself in place of the whole array."""
    if data.draw(st.booleans(), label="whole"):
        return kind
    value = array.tolist()
    index = np.unravel_index(data.draw(st.integers(0, array.size - 1), label="element"),
                             array.shape)
    target = value
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = kind
    return value


def build_and_score(make) -> None:
    """make() raises ValidationError, or builds a model that scores PAIR to a
    non-NaN aggregate and a verdict of 0 or 1 under every aggregator."""
    try:
        model = make()
    except ValidationError:
        return
    for aggregator in AGGREGATORS:
        result = classify_report(PAIR, model, aggregator)
        assert len(result.span_scores) == 1
        assert not math.isnan(result.aggregate_score) and result.verdict in (0, 1)


def hashed_model(table=None, params=None, threshold=0.5):
    return SpanScoringModel(HashedWindowEncoder(DIM, 1, BUCKETS, seed=0, table=table),
                            SpanClassifier(DIM, HIDDEN, seed=1, params=params), threshold, {})


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@fuzz
@given(data=st.data())
def test_encoder_table(kind, data):
    table = substituted(data, HashedWindowEncoder(DIM, 1, BUCKETS, seed=0).table, kind)
    build_and_score(lambda: hashed_model(table=table))


@pytest.mark.parametrize("kind", [*JSON_KINDS, MISSING], ids=[*KIND_IDS, "missing"])
@fuzz
@given(data=st.data(), name=st.sampled_from(["w1", "b1", "w2", "b2"]))
def test_classifier_params(kind, data, name):
    params = dict(SpanClassifier(DIM, HIDDEN, seed=1).params())
    if kind is MISSING:
        del params[name]
    else:
        params[name] = substituted(data, params[name], kind)
    build_and_score(lambda: hashed_model(params=params))


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@fuzz
@given(data=st.data())
def test_precomputed_matrices(kind, data):
    rows = np.linspace(-1.0, 1.0, len(merge_reports(PAIR).chars) * DIM).reshape(-1, DIM)
    matrices = {"r": substituted(data, rows, kind)}
    build_and_score(lambda: SpanScoringModel(PrecomputedEncoder(DIM, matrices),
                                             SpanClassifier(DIM, HIDDEN, seed=1), 0.5, {}))


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
def test_model_threshold(kind):
    build_and_score(lambda: hashed_model(threshold=kind))


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@fuzz
@given(data=st.data(), field=st.sampled_from(["span_scores", "threshold", "aggregator"]))
def test_decide(kind, data, field):
    args = {"span_scores": np.array([0.2, 0.9]), "threshold": 0.5, "aggregator": "minimum"}
    args[field] = (substituted(data, args[field], kind) if field == "span_scores" else kind)
    try:
        result = decide("r", **args)
    except ValidationError:
        return
    assert not math.isnan(result.aggregate_score) and result.verdict in (0, 1)


TRAIN_SMALL = {"epochs": 1, "dim": 4, "hidden": 2, "buckets": 16}
TRAIN_SIZES = ("epochs", "dim", "hidden", "buckets")  # what a run's time or memory grows with


@pytest.fixture(scope="module")
def three_reports():
    return generate_synthetic_corpus(SynthesisConfig(
        n_reports=3, benign_edit_rate=0.3, harmful_edit_rate=0.3, seed=1))


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_train_config(three_reports, field, kind):
    try:
        config = TrainConfig(**{**TRAIN_SMALL, field: kind})
    except ValidationError:
        return
    assert getattr(config, field) is kind
    if any(getattr(config, name) > 64 for name in TRAIN_SIZES):
        return
    dataset, labels = three_reports
    manual = next({rid: record} for rid, record in labels.items() if record.span_labels)
    model, telemetry = train(dataset, manual, config)
    assert len(telemetry) == config.epochs
    build_and_score(lambda: model)


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("field", ["n_reports", "benign_edit_rate", "harmful_edit_rate",
                                   "seed", "avg_length"])
def test_synthesis_config(field, kind):
    try:
        config = SynthesisConfig(**{field: kind})
    except ValidationError:
        return
    config = dataclasses.replace(config, n_reports=3)
    assert generate_synthetic_corpus(config) == generate_synthetic_corpus(config)
