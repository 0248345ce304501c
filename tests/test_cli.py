import json
import os

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
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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

    @pytest.mark.parametrize("flags, field", [(["--avg-length", 0], "avg_length"),
                                              (["--n", 0], "n_reports")])
    def test_bad_size_names_the_field(self, tmp_path, capsys, flags, field):
        out = tmp_path / "pairs.jsonl"
        assert run("gen-corpus", *flags, "--output", out) == 1
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_flag_value_rejected_before_any_write(self, tmp_path, capsys):
        # a non-UTF-8 byte in a command-line path arrives as a lone surrogate,
        # which the meta sidecar could never hold
        assert run("gen-corpus", "--n", 3, "--output", tmp_path / "p\udcff.jsonl") == 1
        err = capsys.readouterr().err
        assert "--output" in err and "lone surrogate" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []


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

    def test_lone_surrogate_exits_nonzero_naming_line_and_field(self, tmp_path, capsys):
        # the pair loads as JSON, but no UTF-8 write can hold "\ud800"
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"id": "a", "junior": "\\ud800左肺", "senior": "\\ud800右肺"}\n')
        out = tmp_path / "merged.jsonl"
        assert run("merge", "--input", pairs, "--output", out) == 1
        err = capsys.readouterr().err
        assert f"{pairs}:1: 'junior' holds a lone surrogate" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--lam", "nan"),
                                             ("--lr-classifier", "-0.001")])
    def test_bad_train_value_exits_nonzero(self, corpus, tmp_path, capsys, flag, value):
        pairs, spans = corpus
        model = tmp_path / "model.json"
        assert run("train", "--input", pairs, "--span-labels", spans,
                   "--model-out", model, *FAST_TRAIN, flag, value) == 1
        assert not model.exists()
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_lambda_zero_without_span_labels_exits_nonzero(self, corpus, tmp_path, capsys):
        pairs, _ = corpus
        model = tmp_path / "model.json"
        assert run("train", "--input", pairs, "--model-out", model, *FAST_TRAIN,
                   "--lam", 0) == 1
        assert not model.exists()
        err = capsys.readouterr().err
        assert "lambda=0" in err and "manual span labels" in err

    def test_no_training_signal_exits_nonzero(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "a", "junior": "same", "senior": "same",
                                     "label": 1}) + "\n")
        model = tmp_path / "model.json"
        assert run("train", "--input", pairs, "--model-out", model, "--epochs", 0) == 1
        assert not model.exists()
        assert "no spans to train on" in capsys.readouterr().err

    def test_non_object_model_names_file(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("[]")
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--input", corpus[0], "--model", model, "--output", out) == 1
        assert f"{model}: expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

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

    def test_embeddings_select_precomputed_backend(self, corpus, embeddings, tmp_path):
        pairs, spans = corpus
        model = tmp_path / "m.json"
        assert run("train", "--input", pairs, "--span-labels", spans,
                   "--model-out", model, "--embeddings", embeddings, *FAST_TRAIN) == 0
        backend = json.loads(model.read_text())["backend"]
        assert backend["name"] == "precomputed"
        assert backend["dim"] == 4

    def test_model_reloads_its_embeddings_from_another_directory(
            self, corpus, embeddings, tmp_path, monkeypatch):
        pairs, spans = corpus
        trained_in, predicted_in = tmp_path / "a", tmp_path / "b"
        trained_in.mkdir()
        predicted_in.mkdir()
        (trained_in / "emb.jsonl").write_bytes(embeddings.read_bytes())
        monkeypatch.chdir(trained_in)
        assert run("train", "--input", pairs, "--span-labels", spans, "--model-out",
                   "model.json", "--embeddings", "emb.jsonl", *FAST_TRAIN) == 0
        monkeypatch.chdir(predicted_in)
        assert run("predict", "--input", pairs, "--model", "../a/model.json",
                   "--output", "preds.jsonl") == 0
        assert len(read_jsonl(predicted_in / "preds.jsonl")) == 50


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
                   "--embeddings", embeddings, *FAST_TRAIN) == 0
        assert loads == [str(embeddings)]

        # the rows equal those of cells trained each on a freshly loaded backend
        dataset = load_report_pairs(pairs)
        labels = load_span_labels(spans, dataset)
        train_ds, test_ds = split_dataset(dataset, 0.2, 3)
        train_ids = {p.id for p in train_ds}
        train_labels = {rid: rec for rid, rec in labels.items() if rid in train_ids}
        expected = []
        for gamma, lam in [(0.0, 0.0), (0.0, 1.0), (0.1, 0.0), (0.1, 1.0)]:
            cfg = TrainConfig(gamma=gamma, lam=lam, epochs=4, dim=16, hidden=8,
                              buckets=256, seed=3)
            model, _ = train(train_ds, train_labels, cfg, backend=external_backend(embeddings))
            preds = [classify_report(p, model).verdict for p in test_ds]
            metrics = macro_metrics(confusion(preds, [p.label for p in test_ds]))
            expected.append({"gamma": gamma, "lambda": lam, "seed": 3,
                             **{k: round(v, 2) for k, v in metrics.items()}})
        assert json.loads(out.read_text())["rows"] == expected

    def test_lambda_zero_rows_equal_across_gamma(self, corpus, tmp_path):
        # every cell trains with --seed; at lambda = 0 the pseudo labels that
        # gamma gates carry no weight, so gamma cannot change the row
        pairs, spans = corpus
        out = tmp_path / "sweep.json"
        assert run("sweep", "--input", pairs, "--span-labels", spans,
                   "--gamma-grid", "0,0.1,0.5,inf", "--lambda-grid", "0",
                   "--output", out, *FAST_TRAIN) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["gamma"] for r in rows] == [0.0, 0.1, 0.5, "inf"]
        assert [{**r, "gamma": None} for r in rows] == [{**rows[0], "gamma": None}] * 4
        assert rows[0]["seed"] == 3

    def test_best_cell_line_names_every_tied_cell(self, corpus, tmp_path, capsys):
        # at lambda = 0 gamma cannot matter, so the two cells tie
        pairs, spans = corpus
        out = tmp_path / "sweep.json"
        assert run("sweep", "--input", pairs, "--span-labels", spans,
                   "--gamma-grid", "0,0.1", "--lambda-grid", "0",
                   "--output", out, *FAST_TRAIN) == 0
        best_line = capsys.readouterr().out.splitlines()[-1]
        assert best_line.startswith(
            "best cell: gamma=0.0 lambda=0.0, gamma=0.1 lambda=0.0 (2 cells tie, f1=")
        doc = json.loads(out.read_text())
        assert doc["best"] == doc["rows"][0]

    def test_infinite_gamma_written_as_strict_json(self, corpus, tmp_path):
        pairs, spans = corpus
        out = tmp_path / "sweep.json"
        assert run("sweep", "--input", pairs, "--span-labels", spans,
                   "--gamma-grid", "inf", "--lambda-grid", "1", "--output", out,
                   *FAST_TRAIN) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["rows"][0]["gamma"] == doc["best"]["gamma"] == "inf"

    def test_non_finite_grid_value_rejected_before_training(self, corpus, tmp_path, caplog):
        pairs, _ = corpus
        with caplog.at_level("INFO"):
            assert run("sweep", "--input", pairs, "--gamma-grid", "0.1,nan",
                       "--lambda-grid", "1", "--output", tmp_path / "s.json", *FAST_TRAIN) == 1
        assert not (tmp_path / "s.json").exists()
        assert not any("sweep cell" in r.message for r in caplog.records)

    def test_unlabeled_test_reports_skipped(self, corpus, tmp_path, caplog):
        pairs, _ = corpus
        records = read_jsonl(pairs)
        for rec in records[:10]:
            rec["label"] = None
        partly = tmp_path / "partly.jsonl"
        partly.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "sweep.json"
        with caplog.at_level("WARNING"):
            assert run("sweep", "--input", partly, "--gamma-grid", "0.1",
                       "--lambda-grid", "1", "--output", out, *FAST_TRAIN) == 0
        _, test_ds = split_dataset(load_report_pairs(partly), 0.2, 3)
        unlabeled = {p.id for p in test_ds if p.label is None}
        assert unlabeled  # the split holds unlabeled reports to skip
        skipped = {r.args[0] for r in caplog.records if "no gold label" in r.getMessage()}
        assert skipped == unlabeled
        assert len(json.loads(out.read_text())["rows"]) == 1

    @pytest.mark.parametrize("n, fraction, unlabeled", [(6, 0.05, 0), (40, 0.2, 40)])
    def test_no_labeled_test_report_rejected_before_training(self, tmp_path, caplog, capsys,
                                                             n, fraction, unlabeled):
        pairs = tmp_path / "pairs.jsonl"
        assert run("gen-corpus", "--n", n, "--seed", 7, "--output", pairs) == 0
        records = read_jsonl(pairs)
        for rec in records[:unlabeled]:
            rec["label"] = None
        pairs.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "sweep.json"
        with caplog.at_level("INFO"):
            assert run("sweep", "--input", pairs, "--gamma-grid", "0.1",
                       "--lambda-grid", "1", "--test-fraction", fraction,
                       "--output", out, *FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert f"--test-fraction {fraction}" in err and "no labeled test report" in err
        assert not out.exists()
        assert not any("sweep cell" in r.message for r in caplog.records)

    def test_empty_training_split_rejected_before_training(self, tmp_path, caplog, capsys):
        pairs = tmp_path / "six.jsonl"
        assert run("gen-corpus", "--n", 6, "--seed", 7, "--output", pairs) == 0
        out = tmp_path / "sweep.json"
        with caplog.at_level("INFO"):
            assert run("sweep", "--input", pairs, "--gamma-grid", "0.1", "--lambda-grid", "1",
                       "--test-fraction", 0.95, "--output", out, *FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "--test-fraction 0.95 leaves no training report" in err
        assert "0 train and 6 test reports" in err
        assert not out.exists()
        assert not any("sweep cell" in r.message for r in caplog.records)

    def test_lambda_zero_without_span_labels_rejected_before_training(self, corpus, tmp_path,
                                                                      caplog, capsys):
        pairs, _ = corpus
        out = tmp_path / "sweep.json"
        with caplog.at_level("INFO"):  # the default lambda grid holds 0
            assert run("sweep", "--input", pairs, "--gamma-grid", "0.1",
                       "--output", out, *FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "--lambda-grid" in err and "--span-labels" in err
        assert not out.exists()
        assert not any("sweep cell" in r.message for r in caplog.records)

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

    def test_file_supplies_required_flag(self, tmp_path):
        out, other = tmp_path / "o.jsonl", tmp_path / "other.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": str(out), "n": 5}))
        assert run("gen-corpus", "--config", cfg) == 0
        assert len(read_jsonl(out)) == 5
        assert run("gen-corpus", "--config", cfg, "--output", other, "--n", 3) == 0
        assert len(read_jsonl(other)) == 3  # command-line values win
        assert len(read_jsonl(out)) == 5

    def test_null_config_value_leaves_flag_required(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": None}))
        with pytest.raises(SystemExit) as exc:
            run("gen-corpus", "--config", cfg)
        assert exc.value.code == 2
        assert "required: --output" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_flag": 1}))
        assert run("gen-corpus", "--config", cfg, "--output", tmp_path / "o.jsonl") == 1

    def test_non_object_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 5}]))
        assert run("gen-corpus", "--config", cfg, "--output", tmp_path / "o.jsonl") == 1
        assert f"{cfg}: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_lone_surrogate_flag_value_rejected_before_config_is_opened(self, tmp_path, capsys):
        # the config file does not exist: the flag check comes before any open()
        assert run("gen-corpus", "--config", tmp_path / "missing.json",
                   "--output", tmp_path / "p\udcff.jsonl") == 1
        err = capsys.readouterr().err
        assert "--output" in err and "lone surrogate" in err
        assert os.listdir(tmp_path) == []

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": 5, "seed": "\xff"}')
        assert run("gen-corpus", "--config", cfg, "--output", tmp_path / "o.jsonl") == 1
        assert f"{cfg}: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("command, values, key", [
        ("gen-corpus", {"n": 2.5}, "n"),
        ("gen-corpus", {"n": 3.0}, "n"),
        ("gen-corpus", {"n": True}, "n"),
        ("gen-corpus", {"n": "many"}, "n"),
        ("gen-corpus", {"n": [5]}, "n"),
        ("gen-corpus", {"benign_rate": "high"}, "benign_rate"),
        ("gen-corpus", {"benign_rate": False}, "benign_rate"),
        ("gen-corpus", {"span_labels_out": 7}, "span_labels_out"),
        ("sweep", {"gamma_grid": 5}, "gamma_grid"),
        ("sweep", {"lambda_grid": [0.5, 1.0]}, "lambda_grid"),
        ("sweep", {"aggregator": "median"}, "aggregator"),
        ("sweep", {"epochs": 1.5}, "epochs"),
    ])
    def test_ill_typed_config_value_names_file_and_key(self, corpus, tmp_path, capsys,
                                                        command, values, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out.json"
        required = (["--output", out] if command == "gen-corpus"
                    else ["--input", corpus[0], "--output", out])
        assert run(command, "--config", cfg, *required) == 1
        assert f"{cfg}: option {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_config_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": str(tmp_path / "x\ud800.jsonl")}))
        assert run("gen-corpus", "--config", cfg, "--n", 5) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: option 'output'" in err and "lone surrogate" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_lone_surrogate_config_path_rejected(self, tmp_path, capsys, monkeypatch):
        # a non-UTF-8 byte in the --config path arrives as a lone surrogate,
        # which no open() can encode
        monkeypatch.chdir(tmp_path)
        assert main(["gen-corpus", "--config", "x\ud800.json"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "lone surrogate" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_config_values_converted_like_command_line(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "12", "benign_rate": 0, "harmful_rate": "0.2",
                                   "span_labels_out": None}))
        out = tmp_path / "pairs.jsonl"
        assert run("gen-corpus", "--config", cfg, "--output", out) == 0
        config = json.loads((tmp_path / "pairs.jsonl.meta.json").read_text())["config"]
        assert (config["n"], config["benign_rate"], config["harmful_rate"]) == (12, 0.0, 0.2)
        assert type(config["benign_rate"]) is float
        assert config["span_labels_out"] is None
        assert len(read_jsonl(out)) == 12

    @pytest.mark.parametrize("argv", [["train", "--input", "p", "--model-out", "m"],
                                      ["sweep", "--input", "p", "--output", "o"]])
    def test_bare_training_flags_give_the_config_defaults(self, argv):
        parser, _ = cli.build_parser()
        assert cli._train_config(parser.parse_args(argv)) == TrainConfig()

    @pytest.mark.parametrize("key", ["lr_encoder", "hard_refresh", "refresh_on_high_loss",
                                     "backend"])
    def test_removed_training_options_rejected(self, corpus, tmp_path, capsys, key):
        pairs, _ = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        assert run("train", "--config", cfg, "--input", pairs,
                   "--model-out", tmp_path / "m.json", *FAST_TRAIN) == 1
        assert "unknown option(s)" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        with pytest.raises(SystemExit):
            run("train", "--input", pairs, "--model-out", tmp_path / "m.json",
                "--" + key.replace("_", "-"), "1")
