import json

import numpy as np
import pytest

from spanqa.classifier import SpanClassifier
from spanqa.encoder import HashedWindowEncoder, PrecomputedEncoder
from spanqa.model import FORMAT_VERSION, SpanScoringModel, _enc, load_model, save_model
from spanqa.types import ValidationError


def fresh_model(seed=0, threshold=0.37):
    backend = HashedWindowEncoder(dim=6, window=1, buckets=32, seed=seed)
    clf = SpanClassifier(6, 4, seed=seed + 1)
    return SpanScoringModel(backend, clf, threshold, {"seed": seed, "epochs": 3})


class TestModelIO:
    def test_round_trip(self, tmp_path):
        model = fresh_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.threshold == model.threshold
        assert loaded.train_config == model.train_config
        assert np.array_equal(loaded.backend.table, model.backend.table)
        assert (loaded.backend.dim, loaded.backend.window, loaded.backend.buckets) == (6, 1, 32)
        for k, v in model.classifier.params().items():
            assert np.array_equal(loaded.classifier.params()[k], v)

    def test_scores_survive_round_trip(self, tmp_path):
        model = fresh_model(seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        s = np.linspace(-1, 1, 6)
        assert loaded.classifier.score(s) == model.classifier.score(s)

    def test_byte_identical_saves(self, tmp_path):
        model = fresh_model(seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="version"):
            load_model(path)

    def test_precomputed_backend_round_trip(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "rows": [[1.0, 2.0]]}\n')
        backend = PrecomputedEncoder.from_file(emb)
        backend.source_path = str(emb)
        model = SpanScoringModel(backend, SpanClassifier(2, 2, seed=0), 0.5, {})
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded.backend, PrecomputedEncoder)
        assert np.array_equal(loaded.backend.matrices["r"], [[1.0, 2.0]])

    def test_precomputed_backend_without_path_needs_override(self, tmp_path):
        backend = PrecomputedEncoder(2, {"r": np.zeros((1, 2))})
        model = SpanScoringModel(backend, SpanClassifier(2, 2), 0.5, {})
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ValidationError, match="embeddings"):
            load_model(path)
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "rows": [[0.0, 0.0]]}\n')
        loaded = load_model(path, embeddings_path=emb)
        assert isinstance(loaded.backend, PrecomputedEncoder)


class TestLoadChecks:
    """load_model rejects a file whose arrays disagree with its header."""

    def saved_doc(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)  # dim 6, buckets 32, hidden 4
        return path, json.loads(path.read_text())

    def test_missing_backend_names_file(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        del doc["backend"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"model\.json.*'backend'"):
            load_model(path)

    @pytest.mark.parametrize("section, name, shape", [
        ("backend", "table", (10, 6)),
        ("classifier", "w1", (1, 6)),
        ("classifier", "b1", (1,)),
        ("classifier", "w2", (1,)),
        ("classifier", "b2", (1, 1)),
    ])
    def test_array_shape_mismatch_names_file(self, tmp_path, section, name, shape):
        path, doc = self.saved_doc(tmp_path)
        doc[section]["arrays"][name] = _enc(np.full(shape, 0.3))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"model\.json.*{name}.*shape"):
            load_model(path)

    def test_undecodable_array_names_file(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["classifier"]["arrays"]["b1"]["shape"] = [5]  # data holds 4 values
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"model\.json.*'b1'.*decoded"):
            load_model(path)
