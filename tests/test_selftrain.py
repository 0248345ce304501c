import ast
import logging
import re
import math
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from spanqa.classifier import Adam, SpanClassifier, span_loss
from spanqa.corpus import (SynthesisConfig, generate_synthetic_corpus, load_span_labels,
                           split_dataset)
from spanqa.diffmerge import merge_reports
from spanqa.encoder import HashedWindowEncoder
from spanqa.selftrain import (
    TrainConfig,
    TrainingError,
    has_manual_span,
    init_pseudo_labels,
    refresh_pseudo_labels,
    train,
    train_epoch,
)
from spanqa.types import Dataset, ReportPair, SpanLabelRecord, ValidationError

from reference import (ReferenceAdam, epoch_gradient_error, reference_backward,
                       reference_forward)
from test_acceptance import acceptance_split


def tiny_model(dim=4, hidden=3, window=1, buckets=13, seed=0):
    """A frozen backend and the classifier trained over it."""
    backend = HashedWindowEncoder(dim=dim, window=window, buckets=buckets, seed=seed)
    return backend, SpanClassifier(dim, hidden, seed=seed + 1)


def tiny_pack(ds, span_labels):
    """The pack of ds over tiny_model's backend."""
    return init_pseudo_labels(tiny_model()[0], ds, span_labels)


def one_span_pack(backend):
    """A pack of one manual item: one span labeled 1."""
    return init_pseudo_labels(backend, Dataset([ReportPair("a", "axb", "ayb", label=1)]),
                              {"a": SpanLabelRecord((1,))})


def one_item_epochs(clf, pack, epochs=1, lr_classifier=1e-2):
    """Run `epochs` epochs on a pack of one item: one Adam step each.
    Returns the last epoch's loss, taken before its step."""
    opt = Adam(lr_classifier)
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        stats = train_epoch(clf, opt, pack, TrainConfig(), rng)
    return stats["l_manual"]


class TestInitPseudoLabels:
    def test_report_label_broadcast_to_spans(self):
        pack = tiny_pack(Dataset([ReportPair("a", "axbycz", "aqbrcs", label=1)]), {})
        assert pack.pseudo.tolist() == [True] and pack.first_pseudo == 0
        assert pack.targets.dtype == np.float64
        assert np.array_equal(pack.targets, np.ones(3))

    def test_manual_reports_take_their_labels(self):
        ds = Dataset([ReportPair("a", "axb", "ayb", label=0)])
        pack = tiny_pack(ds, {"a": SpanLabelRecord((1,))})
        assert pack.pseudo.tolist() == [False] and pack.first_pseudo == 1
        assert pack.targets.dtype == np.float64
        assert np.array_equal(pack.targets, np.array([1.0]))

    def test_unlabeled_reports_skipped_with_warning(self, caplog):
        ds = Dataset([ReportPair("a", "axb", "ayb"), ReportPair("b", "axb", "ayb", label=0)])
        with caplog.at_level(logging.WARNING):
            pack = tiny_pack(ds, {})
        assert pack.report_ids == ["b"]
        assert any("without any label" in r.message for r in caplog.records)

    def test_spanless_reports_skipped(self):
        ds = Dataset([ReportPair("a", "same", "same", label=1),
                      ReportPair("b", "axb", "ayb", label=1)])
        assert tiny_pack(ds, {"a": SpanLabelRecord(())}).report_ids == ["b"]

    @pytest.mark.parametrize("pairs", [[], [ReportPair("a", "axb", "ayb")],
                                       [ReportPair("a", "same", "same", label=1)]],
                             ids=["empty", "unlabeled", "spanless"])
    def test_no_spans_to_train_on_raises(self, pairs):
        with pytest.raises(TrainingError, match="^no spans to train on in the training set$"):
            tiny_pack(Dataset(pairs), {})

    def test_logs_the_manual_and_pseudo_counts(self, caplog):
        ds = Dataset([ReportPair("a", "axb", "ayb", label=0), ReportPair("b", "axb", "ayb", 1),
                      ReportPair("c", "axb", "ayb", label=1)])
        with caplog.at_level(logging.INFO, logger="spanqa.selftrain"):
            tiny_pack(ds, {"b": SpanLabelRecord((1,))})
        assert "training on 1 manual and 2 pseudo-labeled reports" in caplog.messages

    def test_label_count_mismatch(self):
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1)])
        with pytest.raises(ValidationError, match="'a'"):
            tiny_pack(ds, {"a": SpanLabelRecord((1, 0))})

    def test_span_count_mismatch_is_the_loader_message(self, tmp_path):
        # SpanLabelRecord owns the rule; the loader only puts file and line first
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1)])
        message = "report 'a' merges into 1 spans but has 2 span labels"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            tiny_pack(ds, {"a": SpanLabelRecord((1, 0))})
        path = tmp_path / "labels.jsonl"
        path.write_text('{"report_id": "a", "span_labels": [1, 0]}\n')
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
            load_span_labels(path, ds)

    def test_sizes_with_mixed_sets(self):
        # the dataset interleaves the two sets; the pack puts the manual items first
        pairs = [ReportPair(f"p{i}", "axb", "ayb", label=0) for i in range(7)]
        for i in range(5):
            pairs.insert(2 * i, ReportPair(f"m{i}", "uxvyw", "uqvrw", label=1))
        labels = {f"m{i}": SpanLabelRecord((1, 0)) for i in range(5)}
        pack = tiny_pack(Dataset(pairs), labels)
        assert pack.report_ids == [f"m{i}" for i in range(5)] + [f"p{i}" for i in range(7)]
        assert pack.pseudo.tolist() == [False] * 5 + [True] * 7
        assert pack.counts.tolist() == [2] * 5 + [1] * 7
        assert pack.starts.tolist() == [0, 2, 4, 6, 8] + list(range(10, 17))
        assert pack.first_pseudo == 10
        assert pack.targets.tolist() == [1.0, 0.0] * 5 + [0.0] * 7
        assert pack.losses.tolist() == [0.0] * 17
        assert [(idx.tolist(), rows.tolist()) for idx, rows in pack.by_count] == [
            (list(range(5, 12)), [[r] for r in range(10, 17)]),
            (list(range(5)), [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])]


class TestGradients:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            backend, clf = tiny_model(seed=trial)
            ds = Dataset([ReportPair("m", "axbyc", "aqbrc", label=1),
                          ReportPair("p", "uxv", "uyv", label=0),
                          ReportPair("q", "汉左字", "汉双字", label=0)])
            pack = init_pseudo_labels(backend, ds, {"m": SpanLabelRecord((1, 1))})
            pack.targets[:] = rng.uniform(0, 1, size=len(pack.targets))
            # every trainable parameter is the classifier's: the encoder is frozen
            worst = epoch_gradient_error(clf, pack, 0.7)
            assert worst < 1e-4, f"max relative gradient error {worst}"

    def test_one_step_moves_score_toward_label(self):
        backend, clf = tiny_model()
        pack = one_span_pack(backend)
        before = clf.scores(pack.embeddings)[0]
        one_item_epochs(clf, pack)
        after = clf.scores(pack.embeddings)[0]
        assert after > before  # label is 1

    def test_overfit_single_span(self):
        backend, clf = tiny_model()
        pack = one_span_pack(backend)
        loss = one_item_epochs(clf, pack, epochs=1000)
        assert loss < 1e-2

    def test_zero_lr_keeps_parameters(self):
        backend, clf = tiny_model()
        clf_before = {k: v.copy() for k, v in clf.params().items()}
        table_before = backend.table.copy()
        pack = one_span_pack(backend)
        one_item_epochs(clf, pack, lr_classifier=0.0)
        for k, v in clf.params().items():
            assert np.array_equal(v, clf_before[k])
        assert np.array_equal(backend.table, table_before)

    def test_steps_reuse_the_packed_embeddings_and_leave_the_table(self, monkeypatch):
        backend, clf = tiny_model()
        table_before = backend.table.copy()
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1),
                      ReportPair("b", "uxvyw", "uqvrw", label=0)])
        expected = np.vstack([backend.span_embeddings(merge_reports(p)) for p in ds])
        calls, embed = [], backend.span_embeddings

        def counted(mixed):
            calls.append(mixed.report_id)
            return embed(mixed)

        monkeypatch.setattr(backend, "span_embeddings", counted)
        pack = init_pseudo_labels(backend, ds, {"a": SpanLabelRecord((1,))})
        assert calls == ["a", "b"]  # each item is embedded once, at packing
        assert pack.report_ids == ["a", "b"]
        embeddings = pack.embeddings
        assert np.array_equal(embeddings, expected)
        opt, rng = Adam(1e-2), np.random.default_rng(0)
        for _ in range(6):
            train_epoch(clf, opt, pack, TrainConfig(), rng)
            refresh_pseudo_labels(clf, pack, gamma=float("inf"))
        assert calls == ["a", "b"]
        assert pack.embeddings is embeddings
        assert np.array_equal(pack.embeddings, expected)
        assert np.array_equal(backend.table, table_before)


class TestRefresh:
    def build(self, losses):
        backend, clf = tiny_model()
        pack = init_pseudo_labels(backend, Dataset([ReportPair("a", "axbycz", "aqbrcs", 1)]), {})
        pack.losses[:] = losses
        return clf, pack

    def test_gamma_zero_never_replaces(self):
        clf, pack = self.build([0.0, 0.5, 0.01])
        before = pack.targets.copy()
        assert refresh_pseudo_labels(clf, pack, gamma=0.0) == 0
        assert np.array_equal(pack.targets, before)

    def test_gamma_inf_replaces_everything(self):
        clf, pack = self.build([0.0, 0.5, 9.9])
        n = refresh_pseudo_labels(clf, pack, gamma=float("inf"))
        assert n == 3
        assert np.allclose(pack.targets, clf.scores(pack.embeddings))

    def test_gate_is_strict_less_than(self):
        clf, pack = self.build([0.05, 0.2, 0.1])
        n = refresh_pseudo_labels(clf, pack, gamma=0.1)
        assert n == 1  # only the 0.05 loss passes; 0.1 is not < 0.1
        scores = clf.scores(pack.embeddings)
        assert pack.targets[0] == pytest.approx(scores[0])
        assert pack.targets[1] == 1.0 and pack.targets[2] == 1.0

    def test_replacement_monotone_in_gamma(self):
        rng = np.random.default_rng(8)
        losses = rng.uniform(0, 1, size=3)
        counts = []
        for gamma in (0.0, 0.2, 0.5, 0.9, float("inf")):
            clf, pack = self.build(losses)
            counts.append(refresh_pseudo_labels(clf, pack, gamma))
        assert counts == sorted(counts)

    def test_refresh_is_fixed_point_when_labels_equal_scores(self):
        clf, pack = self.build([0.0, 0.0, 0.0])
        pack.targets[:] = clf.scores(pack.embeddings)
        before = pack.targets.copy()
        refresh_pseudo_labels(clf, pack, gamma=float("inf"))
        assert np.array_equal(pack.targets, before)

    def test_confident_span_loss_passes_reasonable_gate(self):
        backend, clf = tiny_model()
        pack = one_span_pack(backend)
        one_item_epochs(clf, pack, epochs=800)
        score = clf.scores(pack.embeddings)[0]
        assert span_loss(score, score) < 0.1


def small_corpus(n=80, seed=5, benign=0.12, harmful=0.12):
    cfg = SynthesisConfig(n_reports=n, benign_edit_rate=benign,
                          harmful_edit_rate=harmful, seed=seed)
    return generate_synthetic_corpus(cfg)


def fast_config(**kw):
    defaults = dict(epochs=5, dim=16, hidden=8, buckets=512, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def count_merges(monkeypatch) -> Counter:
    """Counts, by report id, the merges training makes from here on."""
    merged = Counter()

    def merge(pair):
        merged[pair.id] += 1
        return merge_reports(pair)

    monkeypatch.setattr("spanqa.selftrain.diffmerge.merge_reports", merge)
    return merged


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("gamma", float("nan")),
        ("gamma", -0.1),
        ("lam", float("nan")),
        ("lam", float("inf")),
        ("lam", -1.0),
        ("lr_classifier", float("nan")),
        ("lr_classifier", float("inf")),
        ("lr_classifier", -1e-3),
        ("gamma", "0.1"),
        ("lam", True),
        ("epochs", 2.5),
        ("epochs", -1),
        ("batch_size", 2.5),
        ("batch_size", True),
        ("batch_size", 0),
        ("seed", -1),
        ("seed", 1.0),
        ("dim", 0),
        ("hidden", 0),
        ("buckets", 0),
        ("window", -1),
        ("window", 65),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gamma", "lam", "lr_classifier"])
    def test_int_beyond_the_float_range_rejected(self, field):
        with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
            TrainConfig(**{field: 10**400})

    @pytest.mark.parametrize("field", ["dim", "buckets", "hidden"])
    def test_size_above_the_cap_refused_before_any_merge(self, field, monkeypatch):
        # TrainConfig leaves the cap to the encoder and the classifier, and
        # train() builds both before it merges a report
        merged = []
        monkeypatch.setattr("spanqa.selftrain.diffmerge.merge_reports", merged.append)
        dataset = Dataset([ReportPair("a", "左肺", "右肺", 1)])
        with pytest.raises(ValidationError, match=rf"\b{field}\b.* {2**64}\b.* is above the cap"):
            train(dataset, {}, TrainConfig(**{field: 2**64}))
        assert merged == []

    def test_edge_values_accepted(self):
        cfg = TrainConfig(gamma=float("inf"), lam=0, lr_classifier=0.0, epochs=0,
                          batch_size=np.int64(1), seed=0, window=0, dim=1, buckets=1, hidden=1)
        assert math.isinf(cfg.gamma)
        TrainConfig(gamma=np.float64(0.2), window=64)


class TestEpochAndTrain:
    def test_epoch_stats_shape(self):
        ds, labels = small_corpus(30)
        backend, clf = tiny_model()
        rng = np.random.default_rng(0)
        pack = init_pseudo_labels(backend, ds, {})
        stats = train_epoch(clf, Adam(1e-3), pack, TrainConfig(epochs=1), rng)
        assert stats["l_manual"] == 0.0
        assert stats["l_pseudo"] > 0
        assert stats["l_all"] == pytest.approx(stats["l_pseudo"])

    def test_empty_training_signal_raises(self):
        ds = Dataset([ReportPair("a", "same", "same", label=1)])
        with pytest.raises(TrainingError):
            train(ds, {}, fast_config(epochs=1))

    def test_empty_training_signal_raises_before_any_epoch(self):
        ds = Dataset([ReportPair("a", "same", "same", label=1)])
        with pytest.raises(TrainingError, match="no spans to train on"):
            train(ds, {}, TrainConfig(epochs=0))

    def test_lambda_zero_without_manual_labels_raises(self):
        ds, _ = small_corpus(30)
        with pytest.raises(TrainingError, match="lambda=0.*manual span labels"):
            train(ds, {}, fast_config(epochs=1, lam=0.0))

    @pytest.mark.parametrize("labels, expected", [
        ({}, False),
        ({"s": SpanLabelRecord(())}, False),  # a spanless report's record
        ({"x": SpanLabelRecord((1,))}, False),  # a report outside the training set
        ({"s": SpanLabelRecord(()), "a": SpanLabelRecord((1,))}, True),
    ], ids=["none", "spanless", "outside", "one-span"])
    def test_has_manual_span(self, labels, expected):
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1),
                      ReportPair("s", "same", "same", label=1)])
        assert has_manual_span(ds, labels) is expected

    def test_lambda_zero_without_manual_span_refused_before_any_merge(self, monkeypatch):
        merged = []
        monkeypatch.setattr("spanqa.selftrain.diffmerge.merge_reports", merged.append)
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1)])
        with pytest.raises(TrainingError, match="lambda=0.*manual span labels"):
            train(ds, {}, fast_config(epochs=1, lam=0.0))
        assert merged == []

    def test_lambda_zero_rule_comes_before_the_span_count_rule(self):
        # the empty record breaks the span-count rule, but at lambda = 0 the
        # missing manual span is what train() names
        ds = Dataset([ReportPair("a", "axb", "ayb", label=1)])
        labels = {"a": SpanLabelRecord(())}
        with pytest.raises(TrainingError, match="lambda=0"):
            train(ds, labels, fast_config(epochs=1, lam=0.0))
        with pytest.raises(ValidationError, match="merges into 1 spans but has 0 span labels"):
            train(ds, labels, fast_config(epochs=1, lam=1.0))

    def test_adam_overflow_raises_naming_lam_and_epoch(self):
        # lam=1e200 squares the gradient past the float range: an inf in Adam's
        # v freezes its weight and leaves a model that looks trained, so even
        # with numpy's overflow warning silenced train() must refuse
        ds, _ = small_corpus(48)
        expected = r"^epoch 1: .* overflowed Adam's second moment \(lam=1e\+200\)$"
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match=expected):
            train(ds, {}, fast_config(epochs=5, lam=1e200))

    def test_determinism_bitwise(self):
        ds, labels = small_corpus(40)
        manual = {rid: labels[rid] for rid in [p.id for p in ds][:8]}
        cfg = fast_config(epochs=3)
        m1, t1 = train(ds, manual, cfg)
        m2, t2 = train(ds, manual, cfg)
        assert t1 == t2
        for k in m1.classifier.params():
            assert np.array_equal(m1.classifier.params()[k], m2.classifier.params()[k])
        assert np.array_equal(m1.backend.table, m2.backend.table)
        assert m1.threshold == m2.threshold

    def test_trained_table_is_the_seeded_table(self):
        ds, labels = small_corpus(40)
        manual = {rid: labels[rid] for rid in [p.id for p in ds][:8]}
        cfg = fast_config(epochs=3)
        model, _ = train(ds, manual, cfg)
        s_backend = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        seeded = HashedWindowEncoder(cfg.dim, cfg.window, cfg.buckets, seed=s_backend)
        assert np.array_equal(model.backend.table, seeded.table)
        assert "lr_encoder" not in model.train_config

    def test_lambda_zero_equals_manual_only_training(self):
        ds, labels = small_corpus(40)
        manual_ids = [p.id for p in ds][:10]
        manual_labels = {rid: labels[rid] for rid in manual_ids}
        cfg = fast_config(epochs=3, lam=0.0)
        m_zero, _ = train(ds, manual_labels, cfg)

        ds_manual = Dataset([p for p in ds if p.id in manual_ids])
        cfg_manual = fast_config(epochs=3, lam=1.0)
        m_only, _ = train(ds_manual, manual_labels, cfg_manual)

        for k in m_zero.classifier.params():
            assert np.array_equal(m_zero.classifier.params()[k],
                                  m_only.classifier.params()[k])
        assert np.array_equal(m_zero.backend.table, m_only.backend.table)

    def test_lambda_zero_merges_only_the_reports_with_a_record(self, monkeypatch):
        # the acceptance split: 400 training reports, the first 50 with a record
        train_ds, _, manual, _ = acceptance_split()
        merged = count_merges(monkeypatch)
        train(train_ds, manual, fast_config(epochs=1, lam=0.0))
        assert (len(train_ds), sum(merged.values())) == (400, 50)
        assert merged == Counter(manual.keys())

    def test_report_without_label_or_record_is_never_merged(self, monkeypatch):
        ds, _ = small_corpus(30)
        ds = Dataset(ds.pairs + [ReportPair("u", "axb", "ayb"), ReportPair("r", "axb", "ayb")])
        merged = count_merges(monkeypatch)
        train(ds, {"r": SpanLabelRecord((1,))}, fast_config(epochs=1, lam=1.0))
        assert merged == Counter(p.id for p in ds if p.id != "u")

    def test_merges_are_dead_at_the_first_epoch(self, monkeypatch):
        # the pack is the only copy of the training set: no merge train()
        # makes, manual or pseudo, outlives init_pseudo_labels
        ds, labels = small_corpus(60)
        merges, alive = [], []

        def merge(pair):
            mixed = merge_reports(pair)
            merges.append(weakref.ref(mixed))
            return mixed

        def epoch(*args):
            if not alive:
                alive.append(sum(ref() is not None for ref in merges))
            return train_epoch(*args)

        monkeypatch.setattr("spanqa.selftrain.diffmerge.merge_reports", merge)
        monkeypatch.setattr("spanqa.selftrain.train_epoch", epoch)
        train(ds, dict(list(labels.items())[:5]), fast_config(epochs=2))
        assert len(merges) == len(ds) == 60 and alive == [0]

    def test_no_merge_outlives_its_own_packing(self, monkeypatch):
        # a report is embedded as soon as it is merged, and its merge is freed
        # before the next report's embedding: one merge is alive at a time
        ds, labels = small_corpus(60)
        merges, alive = [], []
        span_embeddings = HashedWindowEncoder.span_embeddings

        def merge(pair):
            mixed = merge_reports(pair)
            merges.append(weakref.ref(mixed))
            return mixed

        def embed(self, mixed):
            alive.append(sum(ref() is not None for ref in merges))
            return span_embeddings(self, mixed)

        monkeypatch.setattr("spanqa.selftrain.diffmerge.merge_reports", merge)
        monkeypatch.setattr(HashedWindowEncoder, "span_embeddings", embed)
        train(ds, dict(list(labels.items())[:5]), fast_config(epochs=2))
        assert len(merges) == 60 and set(alive) == {1}
        assert len(alive) == sum(bool(merge_reports(p).spans) for p in ds)

    def test_one_epoch_gamma_zero_keeps_initial_labels(self):
        ds, _ = small_corpus(30)
        backend = HashedWindowEncoder(8, 1, 128, seed=0)
        clf = SpanClassifier(8, 4, seed=1)
        rng = np.random.default_rng(0)
        pack = init_pseudo_labels(backend, ds, {})
        assert pack.pseudo.all()
        initial = pack.targets.copy()
        train_epoch(clf, Adam(1e-3), pack, TrainConfig(epochs=1), rng)
        refresh_pseudo_labels(clf, pack, gamma=0.0)
        assert np.array_equal(pack.targets, initial)

    def test_refresh_counts_in_telemetry(self):
        ds, labels = small_corpus(30)
        manual = {rid: labels[rid] for rid in [p.id for p in ds][:5]}
        _, telemetry = train(ds, manual, fast_config(epochs=2, gamma=float("inf")))
        assert all(row["refreshed"] > 0 for row in telemetry)
        _, telemetry0 = train(ds, manual, fast_config(epochs=2, gamma=0.0))
        assert all(row["refreshed"] == 0 for row in telemetry0)

    def test_end_to_end_recovers_span_labels(self):
        ds, labels = small_corpus(150, seed=9, benign=0.08, harmful=0.08)
        train_ds, test_ds = split_dataset(ds, 0.2, seed=1)
        manual_ids = [p.id for p in train_ds][:20]
        manual_labels = {rid: labels[rid] for rid in manual_ids}
        cfg = fast_config(epochs=25, seed=11)
        model, _ = train(train_ds, manual_labels, cfg)

        correct = total = 0
        for pair in test_ds:
            mixed = merge_reports(pair)
            if not mixed.spans:
                continue
            scores = model.classifier.scores(model.backend.span_embeddings(mixed))
            preds = (scores > model.threshold).astype(int)
            gold = np.asarray(labels[pair.id].span_labels)
            correct += int((preds == gold).sum())
            total += len(gold)
        assert total > 10
        assert correct / total >= 0.85


class TestGateRegimes:
    """The span loss is H(y) + KL(y||p), never below the label's entropy, so
    below gamma = ln 2 a refresh keeps each inherited label on its side of 0.5
    and refreshes a span at most once; at gamma = inf the labels follow the
    model. 100 epochs on corpus seed 7: 60 reports, the first 5 manual."""

    CORPUS_SEED = 7

    def run(self, gamma):
        """(pseudo-labels ending across 0.5 from their inherited label, the
        most epochs any one span was refreshed in)."""
        ds, labels = small_corpus(60, seed=self.CORPUS_SEED, benign=0.15, harmful=0.15)
        manual = {p.id: labels[p.id] for p in list(ds)[:5]}
        pack = init_pseudo_labels(HashedWindowEncoder(16, 2, 256, seed=0), ds, manual)
        clf, opt, rng = SpanClassifier(16, 8, seed=1), Adam(1e-2), np.random.default_rng(0)
        inherited = pack.targets[pack.first_pseudo:].copy()
        refreshes = np.zeros(len(inherited), dtype=np.int64)
        for _ in range(100):
            train_epoch(clf, opt, pack, TrainConfig(gamma=gamma), rng)
            gate = pack.losses[pack.first_pseudo:] < gamma
            assert refresh_pseudo_labels(clf, pack, gamma) == gate.sum()
            refreshes += gate
        final = pack.targets[pack.first_pseudo:]
        return int(np.count_nonzero((final > 0.5) != (inherited > 0.5))), int(refreshes.max())

    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    def test_below_ln2_no_label_crosses_and_no_span_is_refreshed_twice(self, gamma):
        assert gamma < math.log(2)
        assert self.run(gamma) == (0, 1)

    def test_at_gamma_inf_the_labels_follow_the_model(self):
        crossed, most = self.run(float("inf"))
        assert crossed > 0 and most == 100


# ---------------------------------------------------------------------------
# Reference oracle: the per-batch epoch that the packed epoch replaced. It
# keeps its own items, each with its own embeddings, targets and manual or
# pseudo group, builds every batch from them, weighs it item by item, runs the
# plain forward and backward formulas of reference.py on the classifier's
# parameter arrays, computes each step's losses in the step, steps each
# parameter array with ReferenceAdam and adds the telemetry losses one item at
# a time. It shares no arithmetic with train_epoch's step or its flat Adam.


@dataclass
class OracleItem:
    report_id: str
    embeddings: np.ndarray
    targets: np.ndarray
    pseudo: bool


def reference_batch_objective(clf, groups):
    all_items = [it for items, _ in groups for it in items]
    coeffs, targets = [], []
    for items, weight in groups:
        for item in items:
            n_spans = len(item.targets)
            coeffs.append(np.full(n_spans, weight / (len(items) * n_spans)))
            targets.append(item.targets)
    S = np.vstack([it.embeddings for it in all_items])
    coeff = np.concatenate(coeffs)
    y = np.concatenate(targets)
    p, a1 = reference_forward(clf, S)
    raw = span_loss(p, y)
    assert np.all(np.isfinite(raw))
    grads = reference_backward(clf, S, a1, coeff * (p - y))
    out, pos = [], 0
    for item in all_items:
        out.append(raw[pos:pos + len(item.targets)])
        pos += len(item.targets)
    return float(coeff @ raw), out, grads


def reference_train_epoch(clf, opt, manual, pseudo, losses, config, rng):
    """One per-batch epoch; writes each pseudo span's loss into losses[id]."""
    items = manual + pseudo
    order = rng.permutation(len(items))
    sum_manual = sum_pseudo = 0.0
    for lo in range(0, len(order), config.batch_size):
        batch = [items[k] for k in order[lo:lo + config.batch_size]]
        man = [it for it in batch if not it.pseudo]
        pse = [it for it in batch if it.pseudo]
        groups = []
        if man:
            groups.append((man, 1.0))
        if pse:
            groups.append((pse, config.lam))
        _, raw, grads = reference_batch_objective(clf, groups)
        opt.step(clf.params(), grads)
        for item, r in zip(man + pse, raw):
            if item.pseudo:
                losses[item.report_id] = r
            loss = float(r.mean())
            if item.pseudo:
                sum_pseudo += loss
            else:
                sum_manual += loss
    l_manual = sum_manual / len(manual) if manual else 0.0
    l_pseudo = sum_pseudo / len(pseudo) if pseudo else 0.0
    return {"l_manual": l_manual, "l_pseudo": l_pseudo,
            "l_all": l_manual + config.lam * l_pseudo}


def reference_refresh(clf, pseudo, losses, gamma):
    replaced = 0
    for item in pseudo:
        gate = losses[item.report_id] < gamma
        if gate.any():
            item.targets[gate] = reference_forward(clf, item.embeddings)[0][gate]
            replaced += int(gate.sum())
    return replaced


ORACLE_LR = 1e-2


def oracle_setup(dim=16, hidden=8):
    """The backend and a fresh classifier."""
    return HashedWindowEncoder(dim, 2, 512, seed=4), SpanClassifier(dim, hidden, seed=5)


def reference_items(backend, ds, span_labels):
    """The items of the labeled reports with spans, each merged and embedded
    on its own: (manual items, pseudo-labeled items)."""
    manual, pseudo = [], []
    for pair in ds:
        record = span_labels.get(pair.id)
        if record is None and pair.label is None:
            continue
        mixed = merge_reports(pair)
        if not mixed.spans:
            continue
        embeddings = backend.span_embeddings(mixed)
        if record is None:
            targets = np.full(len(mixed.spans), float(pair.label))
            pseudo.append(OracleItem(pair.id, embeddings, targets, True))
        else:
            targets = np.array(record.span_labels, dtype=np.float64)
            manual.append(OracleItem(pair.id, embeddings, targets, False))
    return manual, pseudo


def assert_epochs_match_reference(ds, span_labels, config, epochs=4, **dims):
    backend, clf = oracle_setup(**dims)
    pack = init_pseudo_labels(backend, ds, span_labels)
    opt = Adam(ORACLE_LR)
    ref_backend, ref_clf = oracle_setup(**dims)
    ref_manual, ref_pseudo = reference_items(ref_backend, ds, span_labels)
    ref_losses = {it.report_id: np.zeros(len(it.targets)) for it in ref_pseudo}
    ref_items = ref_manual + ref_pseudo
    assert pack.report_ids == [it.report_id for it in ref_items]
    assert pack.pseudo.tolist() == [it.pseudo for it in ref_items]
    fast_rng = np.random.default_rng(config.seed)
    ref_rng = np.random.default_rng(config.seed)
    ref_opt = ReferenceAdam(ORACLE_LR)
    for _ in range(epochs):
        stats = train_epoch(clf, opt, pack, config, fast_rng)
        ref_stats = reference_train_epoch(ref_clf, ref_opt, ref_manual, ref_pseudo, ref_losses,
                                          config, ref_rng)
        assert stats == ref_stats
        assert (refresh_pseudo_labels(clf, pack, config.gamma)
                == reference_refresh(ref_clf, ref_pseudo, ref_losses, config.gamma))
        for name, value in clf.params().items():
            assert np.array_equal(value, ref_clf.params()[name]), name
        for item, lo, n in zip(ref_items, pack.starts, pack.counts):
            assert np.array_equal(pack.targets[lo:lo + n], item.targets), item.report_id
            if item.pseudo:
                assert np.array_equal(pack.losses[lo:lo + n], ref_losses[item.report_id]), \
                    item.report_id
    return pack


class TestPackedEpochMatchesReference:
    """The packed epoch gives the per-batch epoch's parameters, targets, last
    losses and telemetry bit for bit."""

    @pytest.fixture(scope="class")
    def corpus(self):
        ds, labels = small_corpus(40, seed=6, benign=0.15, harmful=0.15)
        manual = {p.id: labels[p.id] for p in ds if merge_reports(p).spans}
        return ds, {rid: manual[rid] for rid in list(manual)[:8]}

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 1000])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, float("inf")])
    def test_mixed_batches(self, corpus, batch_size, lam, gamma):
        ds, manual = corpus
        config = TrainConfig(batch_size=batch_size, lam=lam, gamma=gamma, seed=batch_size)
        pack = assert_epochs_match_reference(ds, manual, config)
        assert pack.pseudo.sum() > len(manual)

    @pytest.mark.parametrize("batch_size", [1, 3, 1000])
    def test_manual_items_only(self, corpus, batch_size):
        ds, manual = corpus
        manual_only = Dataset([p for p in ds if p.id in manual])
        pack = assert_epochs_match_reference(
            manual_only, manual, TrainConfig(batch_size=batch_size, seed=1))
        assert not pack.pseudo.any()

    @pytest.mark.parametrize("batch_size", [1, 3, 1000])
    def test_pseudo_items_only(self, corpus, batch_size):
        ds, _ = corpus
        assert_epochs_match_reference(
            ds, {}, TrainConfig(batch_size=batch_size, gamma=0.5, seed=2))

    def test_acceptance_split(self):
        ds, labels = generate_synthetic_corpus(SynthesisConfig(
            n_reports=500, benign_edit_rate=0.05, harmful_edit_rate=0.05, seed=42))
        train_ds, _ = split_dataset(ds, 0.2, seed=42)
        manual = {p.id: labels[p.id] for p in list(train_ds)[:50]}
        assert_epochs_match_reference(train_ds, manual, TrainConfig(seed=7), epochs=8,
                                      dim=64, hidden=32)

    def test_pack_is_the_only_copy_of_the_items(self, corpus):
        ds, manual = corpus
        backend, clf = oracle_setup()
        pack = init_pseudo_labels(backend, ds, manual)
        initial = pack.targets.copy()
        train_epoch(clf, Adam(ORACLE_LR), pack, TrainConfig(), np.random.default_rng(0))
        refresh_pseudo_labels(clf, pack, gamma=float("inf"))
        pairs = {p.id: p for p in ds}
        n_manual = len(pack.pseudo) - int(pack.pseudo.sum())
        assert set(pack.report_ids[:n_manual]) == set(manual)
        for k, (rid, lo, n) in enumerate(zip(pack.report_ids, pack.starts, pack.counts)):
            mixed = merge_reports(pairs[rid])
            assert np.array_equal(pack.embeddings[lo:lo + n], backend.span_embeddings(mixed))
            assert (lo >= pack.first_pseudo) == (k >= n_manual) == pack.pseudo[k]
        # the refresh rewrote the pseudo targets in the pack, and only those
        assert np.array_equal(pack.targets[:pack.first_pseudo], initial[:pack.first_pseudo])
        assert not np.array_equal(pack.targets[pack.first_pseudo:],
                                  initial[pack.first_pseudo:])


def _set_last(name, value):
    """Set the last packed row of item k of `name` to value."""
    def corrupt(pack, k):
        getattr(pack, name)[pack.starts[k] + pack.counts[k] - 1] = value
    return corrupt


# ways to make a span's loss non-finite: its target, or its embedding row
CORRUPTIONS = {
    "nan target": _set_last("targets", np.nan),
    "+inf target": _set_last("targets", np.inf),
    "nan embedding row": _set_last("embeddings", np.nan),
}


class TestNonFiniteLoss:
    def reports_named(self, err):
        return ast.literal_eval(str(err.value).split("reports ", 1)[1])

    def named_by_epoch(self, corrupt, batch_size):
        """The reports one epoch names after corrupt() hits two pseudo items."""
        backend, clf = oracle_setup()
        pack = init_pseudo_labels(backend, small_corpus(30)[0], {})
        assert pack.pseudo.all()
        for k in (2, 5):
            corrupt(pack, k)
        with pytest.raises(TrainingError, match="non-finite loss") as err:
            train_epoch(clf, Adam(ORACLE_LR), pack, TrainConfig(batch_size=batch_size),
                        np.random.default_rng(0))
        return self.reports_named(err)

    @pytest.mark.parametrize("batch_size", [1, 4, 1000])
    @pytest.mark.parametrize("kind", ["+inf target", "nan embedding row"])
    def test_every_non_finite_source_names_the_same_reports(self, kind, batch_size):
        named = self.named_by_epoch(CORRUPTIONS[kind], batch_size)
        assert named
        assert named == self.named_by_epoch(CORRUPTIONS["nan target"], batch_size)

    def test_packed_epoch_names_the_reports(self):
        backend, clf = oracle_setup()
        pack = init_pseudo_labels(backend, small_corpus(30)[0], {})
        bad = (2, 5)
        for k in bad:
            CORRUPTIONS["nan target"](pack, k)
        for batch_size in (1, 4, 1000):
            with pytest.raises(TrainingError, match="non-finite loss") as err:
                train_epoch(clf, Adam(ORACLE_LR), pack, TrainConfig(batch_size=batch_size),
                            np.random.default_rng(0))
            named = self.reports_named(err)
            expected = {pack.report_ids[k] for k in bad}
            # a batch names the reports it holds; the first failing batch stops the epoch
            assert set(named) <= expected and named
            if batch_size == 1000:
                assert set(named) == expected

    def test_owners_names_each_report_once_in_row_order(self):
        ds = Dataset([ReportPair("nan", "axbycz", "aqbrcs", label=0),
                      ReportPair("nan2", "uxv", "uyv", label=0), ReportPair("ok", "axb", "ayb")])
        pack = tiny_pack(ds, {"ok": SpanLabelRecord((1,))})  # rows: ok 0, nan 1-3, nan2 4
        pack.targets[[2, 4]] = np.nan
        assert pack.owners([2, 4, 1, 3]) == ["nan", "nan2"]
        assert pack.owners([4, 0, 2]) == ["nan2", "ok", "nan"]  # row order, not sorted
