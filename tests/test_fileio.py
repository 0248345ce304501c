import os

import numpy as np
import pytest

from spanqa.classifier import SpanClassifier
from spanqa.corpus import save_report_pairs, save_span_labels
from spanqa.encoder import HashedWindowEncoder
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
