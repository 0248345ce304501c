import random
from collections import Counter

import pytest

from spanqa.metrics import confusion, macro_metrics
from spanqa.types import ValidationError


def naive_counts(preds, golds, cls):
    """Class cls's one-vs-rest (tp, fp, tn, fn), counted straight from the lists."""
    tp = sum(p == cls and g == cls for p, g in zip(preds, golds))
    fp = sum(p == cls and g != cls for p, g in zip(preds, golds))
    fn = sum(p != cls and g == cls for p, g in zip(preds, golds))
    tn = len(preds) - tp - fp - fn
    return tp, fp, tn, fn


def table_counts(n, cls):
    """Class cls's (tp, fp, tn, fn) as the metrics docstring reads them off the table."""
    tp, fp, fn = n[cls, cls], n[cls, 1 - cls], n[1 - cls, cls]
    return tp, fp, sum(n.values()) - tp - fp - fn, fn


def naive_macro(preds, golds):
    """Independent formula oracle."""
    vals = {"acc": [], "pre": [], "rec": [], "f1": []}
    for cls in (0, 1):
        tp, fp, tn, fn = naive_counts(preds, golds, cls)
        vals["acc"].append((tp + tn) / len(preds))
        pre = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        vals["pre"].append(pre)
        vals["rec"].append(rec)
        vals["f1"].append(2 * pre * rec / (pre + rec) if pre + rec else 0.0)
    return {k: 100 * (v[0] + v[1]) / 2 for k, v in vals.items()}


class TestConfusion:
    def test_table_counts_prediction_gold_pairs(self):
        c = confusion([1, 0, 1, 1], [1, 1, 0, 1])
        assert isinstance(c, Counter)
        assert c == {(1, 1): 2, (0, 1): 1, (1, 0): 1}
        assert sum(c.values()) == 4

    def test_perfect_predictions(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        for cls in (0, 1):
            tp, fp, tn, fn = table_counts(c, cls)
            assert fp == 0
            assert fn == 0

    def test_complement_predictions(self):
        c = confusion([0, 1, 0], [1, 0, 1])
        for cls in (0, 1):
            tp, fp, tn, fn = table_counts(c, cls)
            assert tp == 0
            assert tn == 0

    def test_against_naive_counting(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 50)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            c = confusion(preds, golds)
            for cls in (0, 1):
                assert table_counts(c, cls) == naive_counts(preds, golds, cls)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            confusion([1], [1, 0])

    def test_no_predictions_rejected(self):
        with pytest.raises(ValidationError, match="^cannot build a confusion matrix from no "
                                                  "predictions$"):
            confusion([], [])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            confusion([2], [1])

    def test_unorderable_labels_rejected(self):
        # a table key names the bad cell, so no label is sorted into the message
        with pytest.raises(ValidationError, match=r"\('a', 2\)"):
            confusion(["a"], [2])


class TestMacroMetrics:
    @pytest.mark.parametrize("table", [
        Counter(),  # used to raise ZeroDivisionError
        Counter({(0, 2): 3}),  # used to score accuracy 100
        Counter({(1, 1): 0}),
        Counter({(0, 0): 2, (1, 1): -1}),
        Counter({(0, 0): 1.5}),
        Counter({1: 4}),
    ], ids=["empty", "bad-key", "zero-count", "negative-count", "float-count", "bare-key"])
    def test_table_breaking_the_one_table_rule_rejected(self, table):
        with pytest.raises(ValidationError):
            macro_metrics(table)

    def test_perfect_is_100(self):
        m = macro_metrics(confusion([1, 0, 1, 0], [1, 0, 1, 0]))
        assert m == {"acc": 100.0, "pre": 100.0, "rec": 100.0, "f1": 100.0}

    def test_constant_predictor_recall_is_exactly_50(self):
        golds = [1] * 88 + [0] * 12
        m = macro_metrics(confusion([1] * 100, golds))
        assert m["rec"] == 50.0

    def test_imbalance_failure_mode(self):
        # all-qualified on 8 pos / 2 neg: accuracy looks fine, macro-F1 does not
        golds = [1] * 8 + [0] * 2
        m = macro_metrics(confusion([1] * 10, golds))
        assert m["acc"] == pytest.approx(80.0)
        assert m["f1"] == pytest.approx(100 * (2 * 0.8 / 1.8) / 2)
        assert m["f1"] < 50.0
        assert m["rec"] == 50.0

    def test_against_formula_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 60)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            m = macro_metrics(confusion(preds, golds))
            expected = naive_macro(preds, golds)
            assert m == expected  # the same arithmetic, so equal to the last bit

    def test_class_swap_symmetry(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 40)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            m1 = macro_metrics(confusion(preds, golds))
            m2 = macro_metrics(confusion([1 - p for p in preds], [1 - g for g in golds]))
            for k in m1:
                assert m1[k] == pytest.approx(m2[k], abs=1e-12)

    def test_bounded(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 30)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            for v in macro_metrics(confusion(preds, golds)).values():
                assert 0.0 <= v <= 100.0
