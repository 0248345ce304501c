import json
import os
import tracemalloc

import numpy as np
import pytest

from spanqa.classifier import SpanClassifier
from spanqa.corpus import save_report_pairs, save_span_labels
from spanqa.encoder import HashedWindowEncoder
from spanqa.fileio import atomic_write, write_json, write_jsonl
from spanqa.model import SpanScoringModel, save_model
from spanqa.types import Dataset, ReportPair, SpanLabelRecord

# A lone surrogate cannot be encoded as UTF-8, and a set is not JSON: each
# save below fails partway, after an in-place write would have truncated the file.
BAD = "\ud800"


def bad_model():
    backend = HashedWindowEncoder(dim=2, window=1, buckets=4, seed=0)
    return SpanScoringModel(backend, SpanClassifier(2, 2), 0.5, {"note": {1, 2}})


@pytest.mark.parametrize("save, obj", [
    (save_model, bad_model()),
    (save_report_pairs, Dataset([ReportPair("a", "ab", "ac"), ReportPair("b", BAD, "x")])),
    (save_span_labels, {"a": SpanLabelRecord("a", (1,)), BAD: SpanLabelRecord(BAD, (0,))}),
])
def test_failed_write_keeps_previous_file(tmp_path, save, obj):
    path = tmp_path / "out.jsonl"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises((TypeError, UnicodeEncodeError)):
        save(obj, path)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_chunk_source_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous\n")

    def chunks():
        for _ in range(4):  # past the write buffer, so bytes reach the temporary file
            yield "x" * 2**16
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("write, doc", [
    (write_json, {"rows": [{"f1": float("nan")}]}),
    (write_jsonl, [{"loss": 0.5}, {"loss": float("nan")}]),
])
def test_nan_raises_before_anything_is_written(tmp_path, write, doc):
    with pytest.raises(ValueError):
        write(tmp_path / "out.json", doc)
    assert os.listdir(tmp_path) == []


def test_infinities_are_written_as_strings(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"gamma": float("inf"), "grid": (0.5, -float("inf"))})
    assert json.loads(path.read_text()) == {"gamma": "inf", "grid": [0.5, "-inf"]}
    write_jsonl(path, [{"gamma": float("inf")}])
    assert path.read_text() == '{"gamma": "inf"}\n'


def test_jsonl_lines_are_streamed(tmp_path):
    # 20,000 prediction-shaped records, a file of about 3 MB: the lines go to
    # the file one by one, never joined into one string
    records = [{"report_id": f"syn-{i:05d}", "verdict": i % 2, "aggregate_score": 0.5 + i * 1e-6,
                "span_scores": [0.25, 0.75, 0.125], "aggregator": "average", "threshold": 0.5}
               for i in range(20000)]
    path = tmp_path / "predictions.jsonl"
    write_jsonl(path, records)
    tracemalloc.start()
    try:
        write_jsonl(path, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 10, f"peak {peak / size:.2f} x the file"
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps(r, ensure_ascii=False) for r in records]
