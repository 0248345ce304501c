import base64
import json
import re
import tracemalloc

import numpy as np
import pytest

from spanqa.aggregate import classify_report
from spanqa.classifier import SpanClassifier
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus
from spanqa.diffmerge import merge_reports
from spanqa.encoder import HashedWindowEncoder, PrecomputedEncoder
from spanqa.fileio import plain
from spanqa.model import (_CHUNK, FORMAT_VERSION, SpanScoringModel, _array, load_model,
                          save_model)
from spanqa.selftrain import TrainConfig, train
from spanqa.types import ParseError, ValidationError

from reference import reference_array_doc


def assert_names_path_once(info, path):
    """The error message starts with the file's path and names it nowhere else."""
    message = str(info.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message


def fresh_model(seed=0, threshold=0.37):
    backend = HashedWindowEncoder(dim=6, window=1, buckets=32, seed=seed)
    clf = SpanClassifier(6, 4, seed=seed + 1)
    return SpanScoringModel(backend, clf, threshold, {"seed": seed, "epochs": 3})


class TestModelIO:
    def test_round_trip(self, tmp_path):
        dataset, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=20, seed=1))
        inf_model, _ = train(dataset, {}, TrainConfig(gamma=float("inf"), epochs=1, dim=6,
                                                      window=1, buckets=32, hidden=4))
        path = tmp_path / "model.json"
        for model in (fresh_model(), inf_model):
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.threshold == model.threshold
            assert loaded.train_config == model.train_config
            assert np.array_equal(loaded.backend.table, model.backend.table)
            assert (loaded.backend.dim, loaded.backend.window,
                    loaded.backend.buckets) == (6, 1, 32)
            for k, v in model.classifier.params().items():
                assert np.array_equal(loaded.classifier.params()[k], v)
        assert '"gamma":"inf"' in path.read_text()

    def test_scores_survive_round_trip(self, tmp_path):
        model = fresh_model(seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        s = np.linspace(-1, 1, 6).reshape(1, -1)
        assert loaded.classifier.scores(s)[0] == model.classifier.scores(s)[0]

    def test_byte_identical_saves(self, tmp_path):
        model = fresh_model(seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, True, 1.0])
    def test_version_mismatch_rejected(self, tmp_path, version):
        # True and 1.0 both == 1, so only a type test refuses them
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unsupported format version") as info:
            load_model(path)
        assert_names_path_once(info, path)

    def test_precomputed_backend_round_trip(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "ranges": [[0, 1]], "rows": [[1.0, 2.0]]}\n')
        backend = PrecomputedEncoder.from_file(emb)
        model = SpanScoringModel(backend, SpanClassifier(2, 2, seed=0), 0.5, {})
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded.backend, PrecomputedEncoder)
        ranges, rows = loaded.backend.records["r"]
        assert ranges == [(0, 1)] and np.array_equal(rows, [[1.0, 2.0]])

    def test_precomputed_backend_without_path_needs_override(self, tmp_path):
        backend = PrecomputedEncoder(2, {"r": ([(0, 1)], np.zeros((1, 2)))})
        model = SpanScoringModel(backend, SpanClassifier(2, 2), 0.5, {})
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ValidationError, match="embeddings") as info:
            load_model(path)
        assert_names_path_once(info, path)
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "ranges": [[0, 1]], "rows": [[0.0, 0.0]]}\n')
        loaded = load_model(path, embeddings_path=emb)
        assert isinstance(loaded.backend, PrecomputedEncoder)

    def test_embeddings_file_with_hashed_model_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 6}\n')
        with pytest.raises(ValidationError, match=r"model\.json.*hashed-window") as info:
            load_model(path, embeddings_path=emb)
        assert_names_path_once(info, path)


def reference_file(model) -> bytes:
    """The model file as one json.dumps of the whole document, each array
    encoded in one piece."""
    backend, clf = model.backend, model.classifier
    backend_doc = {"name": backend.name, "dim": backend.dim}
    if isinstance(backend, HashedWindowEncoder):
        backend_doc.update(window=backend.window, buckets=backend.buckets,
                           arrays={"table": reference_array_doc(backend.table)})
    else:
        backend_doc["path"] = backend.source_path
    doc = {"format_version": FORMAT_VERSION, "kind": "span-scoring-model",
           "threshold": model.threshold, "train_config": model.train_config,
           "backend": backend_doc,
           "classifier": {"dim": clf.dim, "hidden": clf.hidden,
                          "arrays": {k: reference_array_doc(v)
                                     for k, v in clf.params().items()}}}
    text = json.dumps(plain(doc), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")


def hashed_model(dim, buckets, hidden, train_config=None):
    return SpanScoringModel(HashedWindowEncoder(dim, 1, buckets, seed=dim),
                            SpanClassifier(dim, hidden, seed=hidden), 0.25, train_config or {})


class TestUnknownBackend:
    def test_save_refuses_a_backend_it_cannot_serialize(self, tmp_path):
        path = tmp_path / "model.json"
        model = SpanScoringModel(object(), SpanClassifier(2, 2), 0.5, {})
        with pytest.raises(ValidationError, match="^cannot serialize backend object$"):
            save_model(model, path)
        assert not path.exists()


class TestStreamedSave:
    """save_model writes each array's base64 in pieces; the file is the one
    a single json.dumps of the whole document gives, byte for byte."""

    @pytest.mark.parametrize("model", [
        # a 152,000-byte table: more than three chunks, and a multiple of
        # neither the chunk size nor 3
        hashed_model(19, 1000, 3),
        hashed_model(1, 1, 1),  # 8-byte arrays: base64 padding
        SpanScoringModel(PrecomputedEncoder(2, {}, "/data/emb.jsonl"),
                         SpanClassifier(2, 5, seed=0), 0.5, {"epochs": 1}),
        hashed_model(4, 7, 2, {"gamma": float("inf"), "grid": [0.5, -float("inf")]}),
    ], ids=["several-chunks", "one-by-one", "precomputed", "gamma-inf"])
    def test_file_equals_one_dump_of_the_document(self, tmp_path, model):
        if isinstance(model.backend, HashedWindowEncoder) and model.backend.buckets == 1000:
            nbytes = model.backend.table.nbytes
            assert nbytes > 3 * _CHUNK and nbytes % _CHUNK and nbytes % 3
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == reference_file(model)

    def test_strings_that_look_like_array_data_round_trip(self, tmp_path):
        # strings are written by json.dumps like any other value, whatever they spell
        model = fresh_model()
        model.train_config["note"] = '<array 0> {"data":"AAAA","shape":[1]}'
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == reference_file(model)
        loaded = load_model(path)
        assert loaded.train_config == model.train_config
        assert np.array_equal(loaded.backend.table, model.backend.table)
        precomputed = SpanScoringModel(PrecomputedEncoder(2, {}, "/data/<array 0>.jsonl"),
                                       SpanClassifier(2, 3, seed=0), 0.5, {})
        save_model(precomputed, path)
        assert path.read_bytes() == reference_file(precomputed)
        assert json.loads(path.read_text())["backend"]["path"] == "/data/<array 0>.jsonl"

    @pytest.mark.parametrize("key", [True, 1, None, float("inf")])
    def test_non_str_key_refused_and_the_previous_file_kept(self, tmp_path, key):
        # json.dumps would write True as "true", str() as "True"; a mixed-type
        # dict cannot even be sorted. The key is refused, and the save is atomic
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)
        before = path.read_bytes()
        model = fresh_model(seed=1)
        model.train_config[key] = 1
        message = f"^cannot save the dict key {re.escape(repr(key))}: keys must be str$"
        with pytest.raises(ValidationError, match=message):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_loaded_and_seeded_tables_are_read_only(self, tmp_path):
        model = fresh_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        for table in (model.backend.table, load_model(path).backend.table):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestBoundedMemory:
    """Saving and loading the default-sized model (a 4096 x 64 table, 2 MB)
    hold neither many copies of the table nor of the file."""

    def traced_peak(self, call) -> int:
        call()  # the first call may compile or import something once
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_holds_less_than_the_table(self, tmp_path):
        model = hashed_model(64, 4096, 32)
        peak = self.traced_peak(lambda: save_model(model, tmp_path / "model.json"))
        table_bytes = model.backend.table.nbytes
        assert peak < table_bytes, f"peak {peak / table_bytes:.2f} x the table"

    def test_load_holds_about_two_copies_of_the_file(self, tmp_path):
        # the file's bytes and its text, or the text and the parsed document,
        # are alive together; loading decodes no other copy of it
        path = tmp_path / "model.json"
        save_model(hashed_model(64, 4096, 32), path)
        peak = self.traced_peak(lambda: load_model(path))
        size = path.stat().st_size
        assert peak < 2.25 * size, f"peak {peak / size:.2f} x the file"


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
        with pytest.raises(ParseError, match=r"model\.json.*'backend'") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("section, key", [("backend", "window"), ("classifier", "hidden")])
    def test_missing_nested_key_is_a_parse_error(self, tmp_path, section, key):
        # a missing key is a ParseError, as in the JSON-Lines readers
        path, doc = self.saved_doc(tmp_path)
        del doc[section][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"missing key '{key}'") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("section, name, shape", [
        ("backend", "table", (10, 6)),
        ("classifier", "w1", (1, 6)),
        ("classifier", "b1", (1,)),
        ("classifier", "w2", (1,)),
        ("classifier", "b2", (1, 1)),
    ])
    def test_array_shape_mismatch_names_file(self, tmp_path, section, name, shape):
        path, doc = self.saved_doc(tmp_path)
        doc[section]["arrays"][name] = reference_array_doc(np.full(shape, 0.3))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"model\.json.*{name}.*shape") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("data", [
        "mpmZmZmZuT8=", "mpmZmZmZ uT8=\n", "mpmZmZmZuT8", "mpmZmZmZuT8=mpmZmZmZuT8=",
        "", "====", "肺", None, 5, ["mpmZmZmZuT8="],
    ])
    def test_decoding_accepts_what_b64decode_accepts(self, data):
        def outcome(decode):
            try:
                return decode({"data": data, "shape": [-1]}).tolist()
            except (TypeError, ValueError):
                return "rejected"

        expected = outcome(lambda obj: np.frombuffer(base64.b64decode(obj["data"]), "<f8"))
        assert outcome(lambda obj: _array({"arrays": {"a": obj}}, "a")) == expected

    def test_undecodable_array_names_file(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["classifier"]["arrays"]["b1"]["shape"] = [5]  # data holds 4 values
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"model\.json.*'b1'.*decoded") as info:
            load_model(path)
        assert_names_path_once(info, path)


class TestLoadValues:
    """load_model rejects values that would load but score wrongly, and
    malformed files, with an error naming the file."""

    def saved(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fresh_model(), path)
        return path, path.read_text()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(threshold=None), "'threshold'"),
        (lambda d: d.update(threshold=float("nan")), "threshold"),
        (lambda d: d.update(threshold=1.5), "threshold"),
        (lambda d: d.update(threshold=True), "'threshold'"),
        (lambda d: d["backend"].update(dim="6"), "'dim'"),
        (lambda d: d["classifier"].update(hidden=4.0), "hidden must be an integer"),
        (lambda d: d["classifier"].update(dim=5), "dim"),
        # window, buckets and hidden are checked by their owners, the encoder
        # and the classifier, with the messages they give in memory
        (lambda d: d["backend"].update(window=-1), "window must be >= 0"),
        (lambda d: d["backend"].update(buckets=True), "buckets must be an integer"),
        (lambda d: d["classifier"].update(hidden=0), "hidden must be >= 1"),
        (lambda d: d.update(backend=[]), "'backend'"),
        (lambda d: d.update(train_config=None), "'train_config'"),
        # a huge window used to load and then fail inside numpy when scoring
        (lambda d: d["backend"].update(window=10**18), "window must be <= 64"),
        (lambda d: d["backend"].update(window=65), "window must be <= 64"),
    ])
    def test_bad_header_value_names_file(self, tmp_path, edit, message):
        path, text = self.saved(tmp_path)
        doc = json.loads(text)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"model\.json.*{message}") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("section, name, shape", [
        ("backend", "table", (32, 6)),
        ("classifier", "w1", (4, 6)),
        ("classifier", "b2", (1,)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_names_file(self, tmp_path, section, name, shape, bad):
        path, text = self.saved(tmp_path)
        doc = json.loads(text)
        arr = np.full(shape, 0.1)
        arr.reshape(-1)[-1] = bad
        doc[section]["arrays"][name] = reference_array_doc(arr)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"model\.json.*{name}.*non-finite") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("section, name, shape", [
        ("backend", "table", (32, 6)),
        ("classifier", "w1", (4, 6)),
    ])
    def test_array_value_above_the_magnitude_bound_names_file(self, tmp_path, section, name,
                                                              shape):
        path, text = self.saved(tmp_path)
        doc = json.loads(text)
        arr = np.full(shape, 0.1)
        arr.reshape(-1)[-1] = -1e308
        doc[section]["arrays"][name] = reference_array_doc(arr)
        path.write_text(json.dumps(doc))
        message = rf"model\.json.*{name} holds values above 1e[+]150"
        with pytest.raises(ValidationError, match=message) as info:
            load_model(path)
        assert_names_path_once(info, path)

    def test_top_level_array_names_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[]")
        with pytest.raises(ValidationError, match=r"model\.json.*JSON object") as info:
            load_model(path)
        assert_names_path_once(info, path)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path, text = self.saved(tmp_path)
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError, match=r"model\.json: invalid JSON") as info:
            load_model(path)
        assert_names_path_once(info, path)

    @pytest.mark.parametrize("source", [5, ["emb.jsonl"], None])
    def test_embeddings_path_that_is_no_string_names_file(self, tmp_path, source):
        # the path 5 used to be opened as file descriptor 5
        path = tmp_path / "model.json"
        save_model(SpanScoringModel(PrecomputedEncoder(2, {}), SpanClassifier(2, 2), 0.5, {}),
                   path)
        doc = json.loads(path.read_text())
        doc["backend"]["path"] = source
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"model\.json: 'path' has the wrong type") as info:
            load_model(path)
        assert_names_path_once(info, path)

    def test_bad_embeddings_file_names_model_then_embeddings(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "ranges": [[0, 1]], "rows": [[1.0, 2.0]]}\n')
        path = tmp_path / "model.json"
        save_model(SpanScoringModel(PrecomputedEncoder.from_file(emb), SpanClassifier(2, 2),
                                    0.5, {}), path)
        for text, error in (('{"dim": 2}\n{"report_id": "r", "ranges": [[0, 1]], '
                             '"rows": [["1", "2"]]}\n',
                             ValidationError),
                            ('{"report_id": "r"}\n', ParseError)):
            emb.write_text(text)
            with pytest.raises(error, match=rf"^{re.escape(f'{path}: {emb}:')}\d+: ") as info:
                load_model(path)
            assert_names_path_once(info, path)

    def test_embeddings_of_another_width_name_both_files_and_widths(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"dim": 2}\n{"report_id": "r", "ranges": [[0, 1]], "rows": [[1.0, 2.0]]}\n')
        path = tmp_path / "model.json"
        save_model(SpanScoringModel(PrecomputedEncoder.from_file(emb), SpanClassifier(2, 2),
                                    0.5, {}), path)
        wide = tmp_path / "wide.jsonl"
        wide.write_text('{"dim": 3}\n')
        expected = f"{path}: embeddings in {wide} are 3-dimensional, the model expects 2"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$") as info:
            load_model(path, embeddings_path=wide)
        assert_names_path_once(info, path)

    def test_external_backend_model_reloads_without_embeddings_path(self, tmp_path):
        dataset, labels = generate_synthetic_corpus(
            SynthesisConfig(n_reports=30, benign_edit_rate=0.2, harmful_edit_rate=0.2, seed=3))
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb.jsonl"
        spans = {p.id: merge_reports(p).spans for p in dataset}
        emb.write_text(json.dumps({"dim": 3}) + "\n" + "".join(
            json.dumps({"report_id": rid, "ranges": [s.range for s in spans[rid]],
                        "rows": rng.normal(size=(len(spans[rid]), 3)).tolist()}) + "\n"
            for rid in spans))
        model, _ = train(dataset, {}, TrainConfig(epochs=2, hidden=4, seed=1),
                         backend=PrecomputedEncoder.from_file(emb))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.backend.source_path == str(emb)
        for pair in dataset:
            assert classify_report(pair, loaded).span_scores == \
                classify_report(pair, model).span_scores


class TestModelValues:
    """SpanScoringModel owns the threshold rule, for a model built in memory
    as for one loaded from a file."""

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5, 1.5, float("inf"), None, True,
                                           "0.5", 10**400],
                             ids=["nan", "negative", "above-1", "inf", "null", "bool", "string",
                                  "huge-int"])
    def test_threshold_outside_the_unit_interval_is_refused(self, threshold):
        # a NaN threshold used to build, and then called every edited report unqualified
        with pytest.raises(ValidationError, match=r"^'threshold' must be a number in \[0, 1\]"):
            fresh_model(threshold=threshold)

    def test_threshold_is_kept_as_a_float(self):
        for given in (0, 1, np.float32(0.25)):
            threshold = fresh_model(threshold=given).threshold
            assert type(threshold) is float and threshold == given
