"""Macro-averaged evaluation over the two verdict classes.

One 2x2 table n[(prediction, gold)], a Counter, holds every count; its
total is the sum of its cells. Class t reads its one-vs-rest counts off it:
    TP_t = n[t, t]    FP_t = n[t, 1-t]    FN_t = n[1-t, t]
    TN_t = total - TP_t - FP_t - FN_t
and from them
    acc_t = (TP_t + TN_t) / total
    pre_t = TP_t / (TP_t + FP_t)        rec_t = TP_t / (TP_t + FN_t)
    f1_t  = 2 * pre_t * rec_t / (pre_t + rec_t)
Macro metrics average the per-class values over both classes and are
reported on a 0..100 scale. Undefined per-class precision/recall/F1
(zero denominator) counts as 0.

_check_table owns the one table rule: at least one cell, each a positive
count under a (prediction, gold) key of 0s and 1s. confusion applies it to
the table it builds, and macro_metrics to the one it is given.
"""

from __future__ import annotations

from collections import Counter

from .types import ValidationError

_CELLS = {(0, 0), (0, 1), (1, 0), (1, 1)}  # the (prediction, gold) keys


def _check_table(n: Counter) -> Counter:
    if not n:
        raise ValidationError("cannot build a confusion matrix from no predictions")
    for key, count in n.items():
        if key not in _CELLS or type(count) is not int or count < 1:
            raise ValidationError("labels must be 0 or 1 and counts positive integers, got "
                                  f"{count!r} at (prediction, gold) = {key!r}")
    return n


def confusion(preds, golds) -> Counter:
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ValidationError(f"{len(preds)} predictions for {len(golds)} gold labels")
    return _check_table(Counter(zip(preds, golds)))


def _safe_div(num, den) -> float:
    return num / den if den else 0.0


def macro_metrics(n: Counter) -> dict[str, float]:
    total = sum(_check_table(n).values())
    per_class = []  # (acc, pre, rec, f1) of class 0, then of class 1
    for cls in (0, 1):
        tp, fp, fn = n[cls, cls], n[cls, 1 - cls], n[1 - cls, cls]
        tn = total - tp - fp - fn
        pre, rec = _safe_div(tp, tp + fp), _safe_div(tp, tp + fn)
        per_class.append(((tp + tn) / total, pre, rec, _safe_div(2 * pre * rec, pre + rec)))
    return {key: 100.0 * (v0 + v1) / 2
            for key, v0, v1 in zip(("acc", "pre", "rec", "f1"), *per_class)}
