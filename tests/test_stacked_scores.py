"""The stacking contract that `selftrain.pack_scores` relies on.

`SpanClassifier.scores` on a k x n x dim stack must give each item's n
scores bit for bit as a call on that item's own n x dim matrix does. numpy
does not document that a stacked matmul rounds each item as a lone one does,
so these tests are the contract: random embeddings, and the acceptance
training pack cut into random same-count stacks, single items included.
They also hold the refresh and the threshold fit to the same call: one
forward per span-count group, manual groups included.
"""

import math

import numpy as np
import pytest

from spanqa.aggregate import classify_report
from spanqa.classifier import SpanClassifier, otsu_threshold
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus, split_dataset
from spanqa.encoder import HashedWindowEncoder
from spanqa.selftrain import (TrainConfig, init_pseudo_labels, pack_scores,
                              refresh_pseudo_labels, train)


def random_stacks(rng, k):
    """Index arrays cutting a random order of range(k) into consecutive stacks
    of random sizes; the first stack is a single item."""
    order = rng.permutation(k)
    cuts = [1]
    while cuts[-1] < k:
        cuts.append(cuts[-1] + int(rng.integers(1, 9)))
    return np.split(order, cuts[:-1])


def assert_stacks_match_items(clf, items, rng):
    """items: k x n x dim. Every stack of a random cut scores each of its items
    bit for bit as the item's own matrix does, a fresh copy or a view."""
    for idx in random_stacks(rng, len(items)):
        stack = items[idx]
        stacked = clf.scores(stack)
        assert stacked.shape == stack.shape[:2]
        for k, scores in zip(idx.tolist(), stacked):
            assert scores.tobytes() == clf.scores(items[k]).tobytes()
            assert scores.tobytes() == clf.scores(items[k].copy()).tobytes()


def test_random_stacks_score_each_item_as_alone():
    rng = np.random.default_rng(24)
    for trial in range(80):
        dim, hidden = int(rng.integers(1, 80)), int(rng.integers(1, 40))
        clf = SpanClassifier(dim, hidden, seed=trial)
        clf.b1[...] = rng.normal(size=hidden)
        clf.b2[...] = rng.normal()
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        scale = float(rng.choice([0.01, 1.0, 30.0]))
        assert_stacks_match_items(clf, rng.normal(scale=scale, size=(k, n, dim)), rng)


@pytest.fixture(scope="module")
def acceptance():
    """The acceptance training set, a model trained on it briefly, and the
    pack its training made, rebuilt from the model's frozen backend."""
    ds, labels = generate_synthetic_corpus(SynthesisConfig(
        n_reports=500, benign_edit_rate=0.05, harmful_edit_rate=0.05, seed=42))
    train_ds, _ = split_dataset(ds, 0.2, seed=42)
    manual = {p.id: labels[p.id] for p in list(train_ds)[:50]}
    model, _ = train(train_ds, manual, TrainConfig(seed=7, epochs=3))
    pack = init_pseudo_labels(model.backend, train_ds, manual)
    return train_ds, pack, model


def item_scores(clf, pack):
    """The packed scores one item at a time, in pack order."""
    return [clf.scores(pack.embeddings[lo:lo + n])
            for lo, n in zip(pack.starts.tolist(), pack.counts.tolist())]


def test_acceptance_pack_stacks_score_each_item_as_alone(acceptance):
    _, pack, model = acceptance
    assert len(pack.by_count) > 2
    rng = np.random.default_rng(7)
    for _, rows in pack.by_count:
        assert_stacks_match_items(model.classifier, pack.embeddings[rows], rng)


def test_pack_scores_are_the_scores_classify_report_gives(acceptance):
    train_ds, pack, model = acceptance
    scores = pack_scores(model.classifier, pack)
    per_item = item_scores(model.classifier, pack)
    assert scores.tobytes() == np.concatenate(per_item).tobytes()
    # the threshold is fitted on the very scores classify_report applies it to
    assert model.threshold == otsu_threshold(np.concatenate(per_item))
    pairs = {p.id: p for p in train_ds}
    for rid, own in zip(pack.report_ids, per_item):
        assert classify_report(pairs[rid], model).span_scores == own.tolist()


@pytest.fixture
def forwards(monkeypatch):
    """The shape of each SpanClassifier.forward call, in call order."""
    shapes = []
    forward = SpanClassifier.forward

    def counted(self, S, out=None):
        shapes.append(S.shape)
        return forward(self, S, out=out)

    monkeypatch.setattr(SpanClassifier, "forward", counted)
    return shapes


def small_set():
    """60 reports with 1 to 4 spans, the first 5 with manual labels."""
    ds, labels = generate_synthetic_corpus(SynthesisConfig(
        n_reports=60, benign_edit_rate=0.15, harmful_edit_rate=0.15, seed=6))
    return ds, {p.id: labels[p.id] for p in list(ds)[:5]}


def small_pack():
    return init_pseudo_labels(HashedWindowEncoder(8, 1, 64, seed=1), *small_set())


def group_shapes(pack):
    """The stack shape of each span-count group."""
    return [(len(idx), rows.shape[1], pack.embeddings.shape[1]) for idx, rows in pack.by_count]


def test_a_full_refresh_makes_one_forward_per_span_count_group(forwards):
    pack = small_pack()
    assert len(pack.by_count) > 2 and max(len(idx) for idx, _ in pack.by_count) > 1
    assert pack.first_pseudo > 0
    clf = SpanClassifier(8, 4, seed=2)
    assert refresh_pseudo_labels(clf, pack, float("inf")) == len(pack.targets) - pack.first_pseudo
    assert forwards == group_shapes(pack)  # the manual items are scored too


def test_a_partial_refresh_replaces_exactly_the_gated_pseudo_rows(forwards):
    pack = small_pack()
    clf = SpanClassifier(8, 4, seed=2)
    before = pack.targets.copy()
    pack.losses[:] = np.random.default_rng(3).choice([0.0, 1.0], size=len(pack.losses))
    gated = pack.losses < 0.5
    assert gated[:pack.first_pseudo].any()  # a manual row's loss passes, but it is never replaced
    gated[:pack.first_pseudo] = False
    assert 0 < gated.sum() < len(pack.targets) - pack.first_pseudo
    assert refresh_pseudo_labels(clf, pack, 0.5) == gated.sum()
    assert forwards == group_shapes(pack)
    assert pack.targets[gated].tobytes() == pack_scores(clf, pack)[gated].tobytes()
    assert pack.targets[~gated].tobytes() == before[~gated].tobytes()


def test_a_refresh_that_gates_nothing_makes_no_forward(forwards):
    assert refresh_pseudo_labels(SpanClassifier(8, 4, seed=2), small_pack(), 0.0) == 0
    assert forwards == []


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_scores_one_forward_per_group_outside_its_steps(forwards, epochs):
    groups = group_shapes(small_pack())
    forwards.clear()
    n_items = sum(n for n, _, _ in groups)
    config = TrainConfig(gamma=float("inf"), epochs=epochs, batch_size=4, dim=8,
                         window=1, buckets=64, hidden=4)
    train(*small_set(), config)
    steps = math.ceil(n_items / config.batch_size)
    # each epoch: its steps, then the refresh; after the last, the threshold fit
    assert len(forwards) == epochs * (steps + len(groups)) + len(groups)
    assert forwards[-len(groups):] == groups
