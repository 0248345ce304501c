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
"""

from __future__ import annotations

from collections import Counter

from .types import ValidationError


def confusion(preds, golds) -> Counter:
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ValidationError(f"{len(preds)} predictions for {len(golds)} gold labels")
    if not preds:
        raise ValidationError("cannot build a confusion matrix from no predictions")
    bad = {v for v in preds + golds if v not in (0, 1)}
    if bad:
        raise ValidationError(f"labels must be 0 or 1, got {sorted(bad)}")
    return Counter(zip(preds, golds))


def _safe_div(num, den) -> float:
    return num / den if den else 0.0


def macro_metrics(n: Counter) -> dict[str, float]:
    total = sum(n.values())
    accs, pres, recs, f1s = [], [], [], []
    for cls in (0, 1):
        tp, fp, fn = n[cls, cls], n[cls, 1 - cls], n[1 - cls, cls]
        tn = total - tp - fp - fn
        accs.append((tp + tn) / total)
        pre = _safe_div(tp, tp + fp)
        rec = _safe_div(tp, tp + fn)
        pres.append(pre)
        recs.append(rec)
        f1s.append(_safe_div(2 * pre * rec, pre + rec))
    def mean100(vals):
        return 100.0 * sum(vals) / len(vals)
    return {"acc": mean100(accs), "pre": mean100(pres),
            "rec": mean100(recs), "f1": mean100(f1s)}
