"""Seeded fuzz over corrupted input files.

Each of the four files spanqa reads (a model, an embeddings file, a pair file
and a span-label file) is truncated and byte-flipped many times. Every load
must either succeed or raise ParseError / ValidationError, and a model that
does load must still give a finite aggregate score.
"""

import json
import math
import random

import numpy as np
import pytest

from spanqa.aggregate import classify_report
from spanqa.corpus import (
    SynthesisConfig,
    generate_synthetic_corpus,
    load_report_pairs,
    load_span_labels,
    save_report_pairs,
    save_span_labels,
)
from spanqa.diffmerge import merge_reports
from spanqa.encoder import PrecomputedEncoder
from spanqa.model import load_model, save_model
from spanqa.selftrain import TrainConfig, train
from spanqa.types import ParseError, ValidationError

CASES_PER_FILE = 120


def corruptions(data: bytes, rng: random.Random):
    """Truncations, random byte replacements and single-bit flips of data."""
    for _ in range(CASES_PER_FILE // 3):
        yield data[:rng.randrange(len(data))]
    for _ in range(CASES_PER_FILE // 3):
        pos = rng.randrange(len(data))
        yield data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1:]
    for _ in range(CASES_PER_FILE // 3):
        pos = rng.randrange(len(data))
        yield data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1:]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("originals")
    dataset, truth = generate_synthetic_corpus(
        SynthesisConfig(n_reports=12, benign_edit_rate=0.2, harmful_edit_rate=0.2, seed=4))
    save_report_pairs(dataset, root / "pairs.jsonl")
    save_span_labels(truth, root / "spans.jsonl")
    rng = np.random.default_rng(4)
    spans = {p.id: merge_reports(p).spans for p in dataset}
    (root / "emb.jsonl").write_text(json.dumps({"dim": 2}) + "\n" + "".join(
        json.dumps({"report_id": rid, "ranges": [s.range for s in spans[rid]],
                    "rows": rng.normal(size=(len(spans[rid]), 2)).tolist()}) + "\n"
        for rid in spans))
    model, _ = train(dataset, truth, TrainConfig(epochs=1, dim=4, buckets=16, hidden=3))
    save_model(model, root / "model.json")
    return root, dataset


def load_model_and_score(path, dataset):
    model = load_model(path)
    for pair in dataset:
        assert math.isfinite(classify_report(pair, model).aggregate_score)


@pytest.mark.parametrize("name, load", [
    ("model.json", load_model_and_score),
    ("emb.jsonl", lambda path, dataset: PrecomputedEncoder.from_file(path)),
    ("pairs.jsonl", lambda path, dataset: load_report_pairs(path)),
    ("spans.jsonl", load_span_labels),
])
def test_corrupted_file_loads_or_raises_a_documented_error(inputs, tmp_path, name, load):
    root, dataset = inputs
    data = (root / name).read_bytes()
    rng = random.Random(f"{name}-17")
    path = tmp_path / name
    outcomes = {"loaded": 0, "rejected": 0}
    for corrupt in corruptions(data, rng):
        path.write_bytes(corrupt)
        try:
            load(path, dataset)
        except (ParseError, ValidationError) as err:
            assert name in str(err)
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0
