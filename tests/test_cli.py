import json

import numpy as np
import pytest

from spanqa import cli
from spanqa.aggregate import classify_report
from spanqa.cli import main
from spanqa.corpus import load_report_pairs, load_span_labels, split_dataset
from spanqa.diffmerge import merge_reports
from spanqa.encoder import external_backend
from spanqa.metrics import confusion, macro_metrics
from spanqa.selftrain import TrainConfig, train


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in open(path, encoding="utf-8") if line.strip()]


@pytest.fixture
def corpus(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    spans = tmp_path / "spans.jsonl"
    assert run("gen-corpus", "--n", 50, "--seed", 7, "--benign-rate", 0.1,
               "--harmful-rate", 0.1, "--output", pairs, "--span-labels-out", spans) == 0
    return pairs, spans


@pytest.fixture
def embeddings(corpus, tmp_path):
    """A 4-dimensional precomputed embeddings file covering every corpus report."""
    rng = np.random.default_rng(0)
    path = tmp_path / "emb.jsonl"
    lines = [json.dumps({"dim": 4})]
    for pair in load_report_pairs(corpus[0]):
        n_chars = len(merge_reports(pair).chars)
        lines.append(json.dumps({"report_id": pair.id,
                                 "rows": rng.normal(size=(n_chars, 4)).tolist()}))
    path.write_text("\n".join(lines) + "\n")
    return path


FAST_TRAIN = ["--epochs", 4, "--dim", 16, "--hidden", 8, "--buckets", 256, "--seed", 3]


class TestGenCorpus:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("gen-corpus", "--n", 40, "--seed", 7, "--output", out,
                       "--span-labels-out", str(out) + ".spans") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.spans").read_bytes() == (tmp_path / "b.jsonl.spans").read_bytes()

    def test_meta_sidecar_embeds_config(self, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert run("gen-corpus", "--n", 10, "--seed", 1, "--output", out) == 0
        meta = json.loads((tmp_path / "pairs.jsonl.meta.json").read_text())
        assert meta["command"] == "gen-corpus"
        assert meta["config"]["n"] == 10
        assert meta["config"]["seed"] == 1
        assert "format_version" in meta


class TestMerge:
    def test_laterality_pair_yields_one_revision_span(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps(
            {"id": "fig", "junior": "肺左叶见片影", "senior": "肺双叶见片影",
             "label": 0, "section": "chest"}, ensure_ascii=False) + "\n")
        out = tmp_path / "merged.jsonl"
        assert run("merge", "--input", pairs, "--output", out) == 0
        rec = read_jsonl(out)[0]
        assert len(rec["spans"]) == 1
        span = rec["spans"][0]
        assert span["kind"] == "revision"
        assert (span["deleted"], span["inserted"]) == ("左", "双")
        assert rec["tags"].count("B") == 1

    def test_bad_input_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert run("merge", "--input", bad, "--output", tmp_path / "out.jsonl") == 1
        assert not (tmp_path / "out.jsonl").exists()


class TestTrainPredictEvaluate:
    def test_end_to_end_smoke(self, corpus, tmp_path):
        pairs, spans = corpus
        model = tmp_path / "model.json"
        tele = tmp_path / "tele.jsonl"
        assert run("train", "--input", pairs, "--span-labels", spans,
                   "--model-out", model, "--telemetry", tele, *FAST_TRAIN) == 0
        rows = read_jsonl(tele)
        assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
        assert set(rows[0]) == {"epoch", "l_manual", "l_pseudo", "l_all", "refreshed"}

        preds = tmp_path / "preds.jsonl"
        assert run("predict", "--input", pairs, "--model", model,
                   "--aggregator", "minimum", "--output", preds) == 0
        recs = read_jsonl(preds)
        assert len(recs) == 50
        assert all(0 <= r["aggregate_score"] <= 1 for r in recs)

        metrics = tmp_path / "metrics.json"
        assert run("evaluate", "--input", pairs, "--predictions", preds,
                   "--output", metrics, "--verdicts", tmp_path / "v.jsonl") == 0
        doc = json.loads(metrics.read_text())
        assert set(doc["metrics"]) == {"acc", "pre", "rec", "f1"}
        assert doc["n_reports"] == 50

    def test_train_deterministic_model_file(self, corpus, tmp_path):
        pairs, spans = corpus
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("train", "--input", pairs, "--span-labels", spans,
                       "--model-out", out, *FAST_TRAIN) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_prediction_fails(self, corpus, tmp_path):
        pairs, _ = corpus
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"report_id": "syn-00000", "verdict": 1}\n')
        assert run("evaluate", "--input", pairs, "--predictions", preds,
                   "--output", tmp_path / "m.json") == 1

    @pytest.mark.parametrize("record, message", [
        ({"report_id": ["syn-00000"], "verdict": 1}, "'report_id' must be a string"),
        ({"report_id": 7, "verdict": 1}, "'report_id' must be a string"),
        ({"report_id": "syn-00000", "verdict": 2}, "'verdict' must be 0 or 1"),
        ({"report_id": "syn-00000", "verdict": True}, "'verdict' must be 0 or 1"),
        ({"report_id": "syn-00000", "verdict": "1"}, "'verdict' must be 0 or 1"),
        ({"report_id": "syn-00000", "verdict": [1]}, "'verdict' must be 0 or 1"),
    ])
    def test_bad_prediction_record_names_file_and_line(self, corpus, tmp_path, capsys,
                                                        record, message):
        pairs, _ = corpus
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"report_id": "syn-00001", "verdict": 0}\n' + json.dumps(record) + "\n")
        assert run("evaluate", "--input", pairs, "--predictions", preds,
                   "--output", tmp_path / "m.json") == 1
        assert f"preds.jsonl:2: {message}" in capsys.readouterr().err

    def test_duplicate_prediction_names_file_and_line(self, corpus, tmp_path, capsys):
        pairs, _ = corpus
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"report_id": f"syn-{i:05d}", "verdict": 1}) + "\n" for i in range(50))
            + '{"report_id": "syn-00003", "verdict": 0}\n')
        out = tmp_path / "m.json"
        assert run("evaluate", "--input", pairs, "--predictions", preds, "--output", out) == 1
        assert "preds.jsonl:51: duplicate report id 'syn-00003'" in capsys.readouterr().err
        assert not out.exists()

    def test_external_backend_requires_embeddings(self, corpus, tmp_path):
        pairs, spans = corpus
        assert run("train", "--input", pairs, "--span-labels", spans,
                   "--model-out", tmp_path / "m.json", "--backend", "external",
                   *FAST_TRAIN) == 1


class TestSweep:
    def test_two_by_two_grid(self, corpus, tmp_path):
        pairs, spans = corpus
        out, summary = tmp_path / "sweep.json", tmp_path / "sweep.txt"
        assert run("sweep", "--input", pairs, "--span-labels", spans,
                   "--gamma-grid", "0,0.1", "--lambda-grid", "0,1",
                   "--test-fraction", 0.2, "--output", out, "--summary", summary,
                   *FAST_TRAIN) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 4
        assert {(r["gamma"], r["lambda"]) for r in doc["rows"]} == \
            {(0.0, 0.0), (0.0, 1.0), (0.1, 0.0), (0.1, 1.0)}
        assert doc["best"] in doc["rows"]
        assert "best cell" in summary.read_text()

    def test_rerun_identical(self, corpus, tmp_path):
        pairs, spans = corpus
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("sweep", "--input", pairs, "--span-labels", spans,
                       "--gamma-grid", "0.1", "--lambda-grid", "1",
                       "--output", out, *FAST_TRAIN) == 0
        a_doc, b_doc = json.loads(a.read_text()), json.loads(b.read_text())
        a_doc["config"].pop("output"), b_doc["config"].pop("output")
        assert a_doc == b_doc

    def test_external_backend_loaded_once_with_unchanged_rows(self, corpus, embeddings,
                                                              tmp_path, monkeypatch):
        pairs, spans = corpus
        loads = []

        def counting_backend(path):
            loads.append(path)
            return external_backend(path)

        monkeypatch.setattr(cli, "external_backend", counting_backend)
        out = tmp_path / "sweep.json"
        assert run("sweep", "--input", pairs, "--span-labels", spans,
                   "--gamma-grid", "0,0.1", "--lambda-grid", "0,1", "--output", out,
                   "--backend", "external", "--embeddings", embeddings, *FAST_TRAIN) == 0
        assert loads == [str(embeddings)]

        # the rows equal those of cells trained each on a freshly loaded backend
        dataset = load_report_pairs(pairs)
        labels = load_span_labels(spans, dataset)
        train_ds, test_ds = split_dataset(dataset, 0.2, 3)
        train_ids = {p.id for p in train_ds}
        train_labels = {rid: rec for rid, rec in labels.items() if rid in train_ids}
        expected = []
        for cell, (gamma, lam) in enumerate([(0.0, 0.0), (0.0, 1.0), (0.1, 0.0), (0.1, 1.0)]):
            cfg = TrainConfig(gamma=gamma, lam=lam, epochs=4, dim=16, hidden=8,
                              buckets=256, seed=3 + cell)
            model, _ = train(train_ds, train_labels, cfg, backend=external_backend(embeddings))
            preds = [classify_report(p, model).verdict for p in test_ds]
            metrics = macro_metrics(confusion(preds, [p.label for p in test_ds]))
            expected.append({"gamma": gamma, "lambda": lam, "seed": 3 + cell,
                             **{k: round(v, 2) for k, v in metrics.items()}})
        assert json.loads(out.read_text())["rows"] == expected

    def test_bad_grid(self, corpus, tmp_path):
        pairs, _ = corpus
        assert run("sweep", "--input", pairs, "--gamma-grid", "zero",
                   "--lambda-grid", "1", "--output", tmp_path / "s.json") == 1


class TestConfigFile:
    def test_file_supplies_flags_cli_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 25, "seed": 9}))
        out = tmp_path / "pairs.jsonl"
        assert run("gen-corpus", "--config", cfg, "--output", out, "--seed", 11) == 0
        meta = json.loads((tmp_path / "pairs.jsonl.meta.json").read_text())
        assert meta["config"]["n"] == 25      # from file
        assert meta["config"]["seed"] == 11   # CLI wins
        assert len(read_jsonl(out)) == 25

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_flag": 1}))
        assert run("gen-corpus", "--config", cfg, "--output", tmp_path / "o.jsonl") == 1

    @pytest.mark.parametrize("key", ["lr_encoder", "hard_refresh", "refresh_on_high_loss"])
    def test_removed_training_options_rejected(self, corpus, tmp_path, key):
        pairs, _ = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        assert run("train", "--config", cfg, "--input", pairs,
                   "--model-out", tmp_path / "m.json", *FAST_TRAIN) == 1
        assert not (tmp_path / "m.json").exists()
        with pytest.raises(SystemExit):
            run("train", "--input", pairs, "--model-out", tmp_path / "m.json",
                "--" + key.replace("_", "-"), "1")
