"""Type fuzz over the constructors that take a model's values, and over the
configuration records.

HashedWindowEncoder(table=), SpanClassifier(params=), the ranges and rows of
PrecomputedEncoder(records=), SpanScoringModel(threshold=) and decide each
get a value of every JSON kind in place of one value, or of one element of one
array. Every call must either build or raise ValidationError, and a model that
builds must score an edited pair to a non-NaN aggregate and a verdict of 0 or 1;
a precomputed backend whose ranges differ from the pair's merge counts as
refused when it raises ValidationError on them.

Each field of TrainConfig, and each numeric and seed field of SynthesisConfig,
gets each JSON kind too. A config must raise ValidationError or work: a
SynthesisConfig generates the same 3-report corpus twice, and a TrainConfig
trains on 3 reports to a model that scores. A config of 2**64 or more epochs
only has to build: such a run is slow, not wrong. A table or a layer above the
size cap must be refused by train(), naming its size.

The file formats get each JSON kind as JSON text, so that NaN, Infinity and a
400-digit integer reach the parser: in each field of a pair line and of a
span-label line, in the embeddings header's dim and a record's report_id,
ranges and rows, in each field of a prediction line, or with that field left
out, under each key, at every depth, of a saved model document, and under each
training key of a train --config file. A load must work or raise ParseError or
ValidationError naming the file, and the line of a JSON-Lines file; `spanqa
evaluate` must exit 0, or exit 1 naming the prediction file and line. A model that loads must score
an edited pair; a --config file that loads must give a 1-epoch `spanqa train`
that exits 0 with a model that scores, or exits 1 naming the file or the key.
"""

import copy
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanqa import cli
from spanqa.aggregate import AGGREGATORS, classify_report, decide
from spanqa.classifier import SpanClassifier
from spanqa.corpus import (SynthesisConfig, generate_synthetic_corpus, load_report_pairs,
                           load_span_labels, save_report_pairs, save_span_labels)
from spanqa.diffmerge import merge_reports
from spanqa.encoder import HashedWindowEncoder, PrecomputedEncoder
from spanqa.fileio import plain
from spanqa.model import SpanScoringModel, load_model, save_model
from spanqa.selftrain import TrainConfig, train
from spanqa.types import ParseError, ReportPair, ValidationError

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


def span_record(mixed) -> dict:
    """The embeddings record of mixed: its span ranges and one row per span."""
    rows = np.linspace(-1.0, 1.0, len(mixed.spans) * DIM).reshape(-1, DIM)
    return {"ranges": [list(s.range) for s in mixed.spans], "rows": rows.tolist()}


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@fuzz
@given(data=st.data(), field=st.sampled_from(["ranges", "rows"]))
def test_precomputed_records(kind, data, field):
    mixed = merge_reports(PAIR)
    record = span_record(mixed)
    record[field] = substituted(data, np.array(record[field]), kind)

    def make():
        backend = PrecomputedEncoder(DIM, {"r": (record["ranges"], record["rows"])})
        backend.span_embeddings(mixed)  # ranges other than the merge's are refused here
        return SpanScoringModel(backend, SpanClassifier(DIM, HIDDEN, seed=1), 0.5, {})

    build_and_score(make)


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
TRAIN_SIZES = ("dim", "hidden", "buckets")  # what the encoder's and classifier's memory grows with


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
    if config.epochs > 64:
        return
    dataset, labels = three_reports
    manual = next({rid: record} for rid, record in labels.items() if record.span_labels)
    try:
        model, telemetry = train(dataset, manual, config)
    except ValidationError as err:  # a table or a layer above the size cap
        assert field in TRAIN_SIZES and "above the cap" in str(err) and field in str(err)
        return
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


# ---------------------------------------------------------------------------
# file formats


def loads_or_names(load, path, line=None):
    """load()'s result, or None when it raises ParseError or ValidationError
    naming path first, then `line` (a regex) when given."""
    try:
        return load()
    except (ParseError, ValidationError) as err:
        where = re.escape(str(path)) + (f":(?:{line})" if line else "")
        assert re.match(where + ": ", str(err)), str(err)
        return None


def write_lines(path, *records) -> None:
    """records as JSON-Lines; json.dumps writes NaN and Infinity as their JSON-like tokens."""
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")


PAIR_LINES = [{"id": "a", "junior": "肺见结节", "senior": "肺未见结节", "label": 0, "section": None},
              {"id": "b", "junior": "左肺", "senior": "右肺", "label": 1, "section": "findings"}]
SPAN_LINES = [{"report_id": "a", "span_labels": [0]}, {"report_id": "b", "span_labels": [1]}]


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("key", list(PAIR_LINES[1]))
def test_pair_line(tmp_path, key, kind):
    path = tmp_path / "pairs.jsonl"
    write_lines(path, PAIR_LINES[0], {**PAIR_LINES[1], key: kind})
    loads_or_names(lambda: load_report_pairs(path), path, "2")


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("key", list(SPAN_LINES[1]))
def test_span_label_line(tmp_path, key, kind):
    pairs, path = tmp_path / "pairs.jsonl", tmp_path / "spans.jsonl"
    write_lines(pairs, *PAIR_LINES)
    write_lines(path, SPAN_LINES[0], {**SPAN_LINES[1], key: kind})
    dataset = load_report_pairs(pairs)
    loads_or_names(lambda: load_span_labels(path, dataset), path, "2")


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("line, key", [(0, "dim"), (1, "report_id"), (1, "ranges"),
                                       (1, "rows")])
def test_embeddings_file(tmp_path, line, key, kind):
    records = [{"dim": DIM}, {"report_id": "r", **span_record(merge_reports(PAIR))}]
    records[line][key] = kind
    path = tmp_path / "emb.jsonl"
    write_lines(path, *records)
    loads_or_names(lambda: PrecomputedEncoder.from_file(path), path, "1|2")


PREDICTION_LINES = [{"report_id": "a", "verdict": 0}, {"report_id": "b", "verdict": 1}]


@pytest.mark.parametrize("kind", [*JSON_KINDS, MISSING], ids=[*KIND_IDS, "missing"])
@pytest.mark.parametrize("key", list(PREDICTION_LINES[1]))
def test_prediction_line(tmp_path, capsys, key, kind):
    # report b is unlabeled, so evaluate needs no prediction for it: a line 2
    # that reads but names another report still scores report a
    pairs, path, out = tmp_path / "pairs.jsonl", tmp_path / "preds.jsonl", tmp_path / "m.json"
    write_lines(pairs, PAIR_LINES[0], {**PAIR_LINES[1], "label": None})
    line = {k: v for k, v in PREDICTION_LINES[1].items() if k != key}
    if kind is not MISSING:
        line[key] = kind
    write_lines(path, PREDICTION_LINES[0], line)
    code = cli.main(["evaluate", "--input", str(pairs), "--predictions", str(path),
                     "--output", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert json.loads(out.read_text(encoding="utf-8"))["n_reports"] == 1
    else:
        assert code == 1 and not out.exists()
        assert err.startswith(f"spanqa: error: {path}:2: "), err


def key_paths(doc: dict, prefix=()):
    """The key path of every value in a nested dict, outer keys first."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def saved_model_doc() -> dict:
    """The document save_model writes for a small trained-config hashed model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model = hashed_model()
        model.train_config = plain(dataclasses.asdict(TrainConfig()))
        save_model(model, path)
        return json.loads(path.read_text(encoding="utf-8"))


MODEL_DOC = saved_model_doc()
MODEL_KEYS = list(key_paths(MODEL_DOC))


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("keys", MODEL_KEYS, ids=[".".join(keys) for keys in MODEL_KEYS])
def test_model_file(tmp_path, keys, kind):
    doc = copy.deepcopy(MODEL_DOC)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = kind
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    model = loads_or_names(lambda: load_model(path), path)
    if model is not None:
        build_and_score(lambda: model)


@pytest.fixture(scope="module")
def train_files(tmp_path_factory, three_reports):
    """The 3-report pair file and a span-label file of one labeled report."""
    dataset, labels = three_reports
    tmp = tmp_path_factory.mktemp("train")
    pairs, spans = tmp / "pairs.jsonl", tmp / "spans.jsonl"
    save_report_pairs(dataset, pairs)
    save_span_labels(next({rid: record} for rid, record in labels.items()
                          if record.span_labels), spans)
    return pairs, spans


@pytest.mark.parametrize("kind", JSON_KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainConfig)])
def test_train_config_file(train_files, tmp_path, capsys, key, kind):
    if key == "epochs" and type(kind) is int and kind > 64:  # slow, not wrong
        return
    pairs, spans = train_files
    cfg, model = tmp_path / "cfg.json", tmp_path / "model.json"
    cfg.write_text(json.dumps({**TRAIN_SMALL, key: kind}), encoding="utf-8")
    code = cli.main(["train", "--config", str(cfg), "--input", str(pairs),
                     "--span-labels", str(spans), "--model-out", str(model)])
    err = capsys.readouterr().err
    if code == 0:
        build_and_score(lambda: load_model(model))
    else:
        assert code == 1 and not model.exists()
        assert str(cfg) in err or re.search(rf"\b{key}\b", err), err
