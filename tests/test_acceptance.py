"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
The weak-supervision criteria share one module-scoped set of training runs.
"""

import ctypes
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from spanqa.aggregate import classify_report, decide
from spanqa.classifier import OTSU_BINS, otsu_threshold
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus, split_dataset
from spanqa.diffmerge import KEEP, lcs_diff, merge_reports, reconstruct, span_char_indices
from spanqa.encoder import HashedWindowEncoder
from spanqa.classifier import SpanClassifier
from spanqa.metrics import confusion, macro_metrics
from spanqa.model import save_model
from spanqa.selftrain import TrainConfig, init_pseudo_labels, train
from spanqa.types import Dataset, ReportPair, SpanLabelRecord, ValidationError

from reference import epoch_gradient_error, pool_span, reference_encode


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {status}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: LCS keep-length equals brute force


def lcs_len_enum(a, b):
    def is_subseq(s, t):
        it = iter(t)
        return all(ch in it for ch in s)

    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            if is_subseq(combo, b):
                return r
    return 0


def lcs_len_memo(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def keep_len(runs):
    return sum(n for op, n in runs if op == KEEP)


def test_criterion_01_lcs_oracle_equivalence():
    started = time.perf_counter()
    strings = [""]
    for n in range(1, 7):
        strings += ["".join(p) for p in itertools.product("ab", repeat=n)]
    exhaustive = sum(
        keep_len(lcs_diff(a, b)) == lcs_len_enum(a, b) for a in strings for b in strings)
    rng = random.Random(424)
    alphabet = "abcdefghijklmnopqrst"
    randomized = 0
    for _ in range(500):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
        randomized += keep_len(lcs_diff(a, b)) == lcs_len_memo(a, b)
    elapsed = time.perf_counter() - started
    check(1, "LCS keep-length equals brute-force LCS length",
          exhaustive == len(strings) ** 2 and randomized == 500 and elapsed < 10.0,
          f"{len(strings) ** 2} exhaustive + 500 random pairs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2 + 3: merge losslessness and BIO well-formedness on one fuzz corpus


def fuzz_pairs(n_total, seed):
    rng = random.Random(seed)
    alphabet = "ab丙丁e"
    per_kind = n_total // 5
    for kind in range(5):
        for _ in range(per_kind):
            base = "".join(rng.choices(alphabet, k=rng.randint(1, 30)))
            if kind == 0:  # fully random pair
                other = "".join(rng.choices(alphabet, k=rng.randint(1, 30)))
                yield base, other
            elif kind == 1:  # empty diff
                yield base, base
            elif kind == 2:  # pure deletions: senior drops characters
                keep = [c for c in base if rng.random() > 0.3]
                yield base, "".join(keep) or base[0]
            elif kind == 3:  # pure additions: senior gains characters
                senior = list(base)
                for _ in range(rng.randint(1, 5)):
                    senior.insert(rng.randint(0, len(senior)), rng.choice(alphabet))
                yield base, "".join(senior)
            else:  # adjacent substitutions
                senior = list(base)
                start = rng.randint(0, len(senior) - 1)
                width = min(rng.randint(1, 3), len(senior) - start)
                senior[start:start + width] = rng.choices(alphabet, k=width)
                yield base, "".join(senior)


@pytest.fixture(scope="module")
def fuzz_merges():
    out = []
    for i, (junior, senior) in enumerate(fuzz_pairs(10000, seed=77)):
        pair = ReportPair(f"f{i}", junior, senior)
        out.append((pair, merge_reports(pair)))
    return out


def test_criterion_02_merge_losslessness(fuzz_merges):
    bad = sum(reconstruct(mixed) != (pair.junior, pair.senior)
              for pair, mixed in fuzz_merges)
    check(2, "reconstruct(merge(p)) == p on the fuzz corpus",
          bad == 0, f"{len(fuzz_merges)} pairs, {bad} failures")


def test_criterion_03_bio_well_formedness(fuzz_merges):
    violations = 0
    for _, mixed in fuzz_merges:
        prev = "O"
        for t in mixed.tags:
            if t == "I" and prev not in "BI":
                violations += 1
            prev = t
        if span_char_indices(mixed) != [s.range for s in mixed.spans]:
            violations += 1
        if len(mixed.spans) != mixed.tags.count("B"):
            violations += 1
    check(3, "zero BIO violations and exact span-index rule on the fuzz corpus",
          violations == 0, f"{len(fuzz_merges)} merges, {violations} violations")


# ---------------------------------------------------------------------------
# criterion 4: the gradient train_epoch steps on vs central finite differences of L_all


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        backend = HashedWindowEncoder(dim=4, window=1, buckets=17, seed=trial)
        clf = SpanClassifier(4, 3, seed=trial + 100)
        lam = float(rng.uniform(0.2, 1.5))
        # manual group: m, weight 1; pseudo group: p and q, weight lam
        ds = Dataset([ReportPair("m", "axbyc", "aqbrc"),
                      ReportPair("p", "u左v", "u双v", label=1),
                      ReportPair("q", "汉xy字", "汉zw字", label=1)])
        pack = init_pseudo_labels(backend, ds, {"m": SpanLabelRecord((0, 0))})
        # soft targets, drawn row by row: m's two spans, then p's, then q's
        pack.targets[:] = rng.uniform(0, 1, size=len(pack.targets))
        # the encoder is frozen: the classifier's are all trainable parameters
        worst = max(worst, epoch_gradient_error(clf, pack, lam))
    check(4, "the gradient train_epoch steps on matches central differences of L_all "
          "within 1e-4 relative",
          worst < 1e-4, f"20 configs (d=4, h=3), max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: Otsu equals exhaustive between-class-variance maximization


def otsu_exhaustive(scores):
    bins = [min(int(s * OTSU_BINS), OTSU_BINS - 1) for s in scores]
    counts = [0] * OTSU_BINS
    for b in bins:
        counts[b] += 1
    n = len(scores)
    best, best_var = None, Fraction(0)
    for k in range(1, OTSU_BINS):
        n0 = sum(counts[:k])
        n1 = n - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = Fraction(sum(i * c for i, c in enumerate(counts[:k])), n0)
        mu1 = Fraction(sum(i * counts[i] for i in range(k, OTSU_BINS)), n1)
        var = Fraction(n0 * n1, n * n) * (mu0 - mu1) ** 2
        if var > best_var:
            best, best_var = k, var
    return None if best is None or best_var == 0 else best / OTSU_BINS


def test_criterion_05_otsu_equivalence():
    rng = np.random.default_rng(555)
    matches = total = 0
    for _ in range(200):
        n = int(rng.integers(2, 100))
        kind = rng.integers(0, 3)
        if kind == 0:
            scores = rng.uniform(0.004, 0.996, size=n)
        elif kind == 1:
            scores = np.concatenate([rng.uniform(0.01, 0.3, size=max(1, n // 2)),
                                     rng.uniform(0.6, 0.99, size=max(1, n - n // 2))])
        else:
            scores = np.clip(rng.normal(0.5, 0.2, size=n), 0.004, 0.996)
        expected = otsu_exhaustive(scores)
        try:
            got = otsu_threshold(scores)
        except ValidationError:
            got = None
        total += 1
        matches += got == expected
    check(5, "fitted threshold equals exhaustive search over 256 bins",
          matches == total, f"{matches}/{total} score sets")


# ---------------------------------------------------------------------------
# criteria 6 + 7: weak-supervision recovery and directional ablations


RECOVERY_SYNTHESIS = SynthesisConfig(
    n_reports=500, benign_edit_rate=0.05, harmful_edit_rate=0.05, seed=42)
RECOVERY_EPOCHS = 100
RECOVERY_SEED = 7


def held_out_span_scores(model, pair):
    mixed = merge_reports(pair)
    if not mixed.spans:
        return None
    H = reference_encode(model.backend, mixed)
    S = np.stack([pool_span(H, s.range) for s in mixed.spans])
    return model.classifier.scores(S)


def acceptance_split():
    """(train reports, test reports, manual span labels, true span labels)."""
    dataset, truth = generate_synthetic_corpus(RECOVERY_SYNTHESIS)
    train_ds, test_ds = split_dataset(dataset, 0.2, seed=42)
    manual = {rid: truth[rid] for rid in [p.id for p in train_ds][:50]}
    return train_ds, test_ds, manual, truth


def recovery_config(gamma, lam) -> TrainConfig:
    return TrainConfig(gamma=gamma, lam=lam, epochs=RECOVERY_EPOCHS, seed=RECOVERY_SEED)


@pytest.fixture(scope="module")
def recovery_runs():
    train_ds, test_ds, manual, truth = acceptance_split()
    runs = {}
    for gamma, lam in [(0.1, 1.0), (0.1, 0.0), (0.0, 1.0)]:
        started = time.perf_counter()
        model, _ = train(train_ds, manual, recovery_config(gamma, lam))
        elapsed = time.perf_counter() - started
        f1 = {}
        for agg in ("average", "minimum"):
            preds = [classify_report(p, model, agg).verdict for p in test_ds]
            golds = [p.label for p in test_ds]
            f1[agg] = macro_metrics(confusion(preds, golds))["f1"]
        runs[(gamma, lam)] = {"model": model, "f1": f1, "seconds": elapsed}
    return {"runs": runs, "train": train_ds, "manual": manual, "test": test_ds, "truth": truth}


def test_criterion_06_weak_supervision_recovery(recovery_runs):
    run = recovery_runs["runs"][(0.1, 1.0)]
    model, truth = run["model"], recovery_runs["truth"]
    correct = total = 0
    for pair in recovery_runs["test"]:
        scores = held_out_span_scores(model, pair)
        if scores is None:
            continue
        preds = (scores > model.threshold).astype(int)
        gold = np.asarray(truth[pair.id].span_labels)
        correct += int((preds == gold).sum())
        total += len(gold)
    span_acc = correct / total
    ok = (span_acc >= 0.90 and run["f1"]["average"] >= 90.0
          and run["f1"]["minimum"] >= 90.0 and run["seconds"] < 300.0)
    check(6, "recovery: span acc >= 90%, macro-F1 >= 90 (both aggregators), < 5 min",
          ok, f"span acc {span_acc:.3f} ({correct}/{total}), "
              f"F1 avg {run['f1']['average']:.2f} / min {run['f1']['minimum']:.2f}, "
              f"{run['seconds']:.0f}s")


def test_criterion_07_directional_ablations(recovery_runs):
    runs = recovery_runs["runs"]
    ok = True
    details = []
    for agg in ("average", "minimum"):
        base = runs[(0.1, 1.0)]["f1"][agg]
        lam0 = runs[(0.1, 0.0)]["f1"][agg]
        gam0 = runs[(0.0, 1.0)]["f1"][agg]
        ok = ok and base >= lam0 and base >= gam0 - 2.0
        details.append(f"{agg}: F1(l=1)={base:.2f} >= F1(l=0)={lam0:.2f}, "
                       f"F1(g=.1)={base:.2f} >= F1(g=0)-2={gam0 - 2.0:.2f}")
    check(7, "macro-F1(lambda=1) >= macro-F1(lambda=0); gamma=0.1 within 2 pts of gamma=0",
          ok, "; ".join(details))


def test_training_and_inference_scores_are_identical(recovery_runs):
    """The Otsu threshold is fitted on the scores of the packed embeddings,
    item by item, and applied to classify_report's: both must be the same
    numbers, bit for bit."""
    model = recovery_runs["runs"][(0.1, 1.0)]["model"]
    pack = init_pseudo_labels(model.backend, recovery_runs["train"], recovery_runs["manual"])
    pairs = {p.id: p for p in recovery_runs["train"]}
    assert len(pack.report_ids) == 123
    differ = [rid for rid, lo, n in zip(pack.report_ids, pack.starts, pack.counts)
              if not np.array_equal(model.classifier.scores(pack.embeddings[lo:lo + n]),
                                    classify_report(pairs[rid], model).span_scores)]
    assert differ == []


# The acceptance models' SHA-256, measured on numpy 2.4.6 with scipy-openblas
# 0.3.31. A change meant to keep behaviour keeps these bytes; other numpy or
# BLAS builds may round differently, so the pin applies to this build only.
PINNED_NUMPY = "2.4.6"
PINNED_BLAS = ("scipy-openblas", "0.3.31")
PINNED_MODEL_SHA256 = {
    (0.1, 1.0): "6fcfe58c288bb040f837b1798c0639e7718df81299afadab6175db12250ca1df",
    (0.1, 0.0): "5bd7ae5c4c4f5884ee5ce4bad51fed220bbf592d2174882f6ae92546e972bdcb",
    (0.0, 1.0): "46e4128f688195db3533c8a7b5a50c0522c5e5ac38686efe36e4191ead03a0d5",
}


def blas_build() -> tuple[str, str] | None:
    """(name, version) of the BLAS numpy was built against, if numpy says."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas["name"]), str(blas["version"])
    except (KeyError, TypeError, ValueError):
        return None


# OpenBLAS picks a kernel for the CPU at run time (OPENBLAS_CORETYPE overrides
# it), and the kernels sum dot products in different orders. The hashes hold
# on these AVX-512 kernels; test_outputs_agree_on_every_blas_kernel below
# checks every kernel within the rounding they differ by. Only SkylakeX has
# run the pins: on a Xeon without Sapphire Rapids' instructions,
# OPENBLAS_CORETYPE=SapphireRapids still runs SkylakeX. SapphireRapids is
# listed because OpenBLAS builds its double-precision kernels from SkylakeX's;
# no Sapphire Rapids machine has confirmed it.
PINNED_CORES = ("SkylakeX", "SapphireRapids")


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs, or None if it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def skip_unless_pinned_build():
    blas = blas_build()
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"hashes pinned on numpy {PINNED_NUMPY}, this is {np.__version__}")
    if blas is None or blas[0] != PINNED_BLAS[0] or not blas[1].startswith(PINNED_BLAS[1] + "."):
        pytest.skip(f"hashes pinned on {' '.join(PINNED_BLAS)}, this is {blas}")
    core = openblas_core()
    if core not in PINNED_CORES:
        pytest.skip(f"hashes pinned on the OpenBLAS {' and '.join(PINNED_CORES)} kernels, "
                    f"this is {core or 'a kernel OpenBLAS does not name'}")


def test_acceptance_model_bytes_are_pinned(recovery_runs, tmp_path):
    skip_unless_pinned_build()
    for cell, expected in PINNED_MODEL_SHA256.items():
        path = tmp_path / "model.json"
        save_model(recovery_runs["runs"][cell]["model"], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, cell


# SHA-256 of every classify_report output on a dense corpus: scoring's pin,
# as the model hashes above are training's. Same numpy and BLAS build.
PINNED_SCORES_SHA256 = "f8559991e73b6b27d639d163eeef02708f5003e5050efaff1ae6d9c30114b2e8"


@lru_cache(maxsize=None)
def dense_corpus_model():
    """(model, test reports) of a dense corpus: several edits a report."""
    dataset, _ = generate_synthetic_corpus(SynthesisConfig(
        n_reports=150, benign_edit_rate=0.4, harmful_edit_rate=0.15, seed=24))
    train_ds, test_ds = split_dataset(dataset, 0.4, seed=24)
    model, _ = train(train_ds, {}, TrainConfig(epochs=20, dim=16, buckets=512, hidden=8,
                                               seed=24))
    return model, test_ds


def test_dense_corpus_scores_are_pinned():
    skip_unless_pinned_build()
    model, test_ds = dense_corpus_model()
    digest = hashlib.sha256()
    n_spans = 0
    for pair in test_ds:
        for aggregator in ("average", "minimum"):
            result = classify_report(pair, model, aggregator)
            n_spans += len(result.span_scores)
            digest.update(repr((result.report_id, result.span_scores, result.aggregate_score,
                                result.verdict)).encode())
    assert n_spans >= 2 * 2 * len(test_ds)  # dense: several spans a report
    assert digest.hexdigest() == PINNED_SCORES_SHA256


# The outputs of the two pinned computations, as the SkylakeX kernel gives them,
# split into what must hold exactly on every kernel and the scores, which may
# differ by rounding. Rewrite it with
#     OPENBLAS_CORETYPE=SkylakeX PYTHONPATH=src python tests/test_acceptance.py
PORTABLE_OUTPUTS = Path(__file__).with_name("portable_outputs.json")
# Under OPENBLAS_CORETYPE Haswell, Zen, Sandybridge, Nehalem and Prescott the
# scores moved from SkylakeX's by at most 2.2e-16 (one float64 epsilon);
# thresholds and verdicts stayed equal.
PORTABLE_SCORE_TOLERANCE = 1e-15


def portable_outputs(acceptance_model, acceptance_test) -> dict:
    """The (0.1, 1) acceptance model's threshold, held-out span verdicts and
    scores, and every classify_report output of the dense corpus's model."""
    dense_model, dense_test = dense_corpus_model()
    exact = {"thresholds": [acceptance_model.threshold, dense_model.threshold],
             "span_verdicts": {}, "report_verdicts": []}
    scores = []
    for pair in acceptance_test:
        span_scores = held_out_span_scores(acceptance_model, pair)
        if span_scores is not None:
            exact["span_verdicts"][pair.id] = (span_scores > acceptance_model.threshold).tolist()
            scores += span_scores.tolist()
    for pair in dense_test:
        for aggregator in ("average", "minimum"):
            result = classify_report(pair, dense_model, aggregator)
            exact["report_verdicts"].append(
                [result.report_id, aggregator, len(result.span_scores), result.verdict])
            scores += [*result.span_scores, result.aggregate_score]
    return {"exact": exact, "scores": scores}


def test_outputs_agree_on_every_blas_kernel(recovery_runs):
    got = portable_outputs(recovery_runs["runs"][(0.1, 1.0)]["model"], recovery_runs["test"])
    want = json.loads(PORTABLE_OUTPUTS.read_text(encoding="utf-8"))
    assert got["exact"] == want["exact"]
    assert len(got["scores"]) == len(want["scores"])
    drift = float(np.max(np.abs(np.subtract(got["scores"], want["scores"]))))
    assert drift <= PORTABLE_SCORE_TOLERANCE, f"scores moved by {drift:.3g}"


# ---------------------------------------------------------------------------
# criterion 8: aggregator semantics


def test_criterion_08_aggregator_semantics():
    tau = 0.5
    fixture_ok = (decide("r", [0.2, 0.9, 0.9], "minimum", tau).verdict == 0
                  and decide("r", [0.2, 0.9, 0.9], "average", tau).verdict == 1)
    rng = np.random.default_rng(88)
    min_flags = dominance = 0
    trials = 10000
    for _ in range(trials):
        scores = rng.uniform(0.001, 0.999, size=int(rng.integers(1, 12)))
        t = float(rng.uniform(0.05, 0.95))
        if scores.min() <= t:
            min_flags += decide("r", scores, "minimum", t).verdict == 0
        else:
            min_flags += 1  # vacuously fine; count to keep totals aligned
        dominance += scores.min() <= scores.mean()
    check(8, "minimum flags any span <= tau while average can pass; min <= mean",
          fixture_ok and min_flags == trials and dominance == trials,
          f"{trials} random score lists, constructed fixture OK")


# ---------------------------------------------------------------------------
# criterion 9: imbalance failure mode of a constant predictor


def test_criterion_09_imbalance_failure_mode():
    dataset, _ = generate_synthetic_corpus(
        SynthesisConfig(n_reports=400, benign_edit_rate=0.05, harmful_edit_rate=0.08,
                        seed=99))
    qualified = [p for p in dataset if p.label == 1][:176]
    unqualified = [p for p in dataset if p.label == 0][:24]
    assert len(qualified) == 176 and len(unqualified) == 24  # 88% / 12%
    golds = [p.label for p in qualified + unqualified]
    preds = [1] * len(golds)
    m = macro_metrics(confusion(preds, golds))
    check(9, "constant all-qualified predictor: macro-recall exactly 50.00, macro-F1 < 50",
          m["rec"] == 50.0 and m["f1"] < 50.0,
          f"rec {m['rec']:.2f}, f1 {m['f1']:.2f}, pre {m['pre']:.2f}, acc {m['acc']:.2f}")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical training


def test_criterion_10_determinism(tmp_path):
    dataset, truth = generate_synthetic_corpus(
        SynthesisConfig(n_reports=120, benign_edit_rate=0.06, harmful_edit_rate=0.06,
                        seed=21))
    manual = {rid: truth[rid] for rid in [p.id for p in dataset][:15]}
    cfg = TrainConfig(epochs=25, seed=5, dim=32, buckets=1024, hidden=16)
    paths = []
    for name in ("one.json", "two.json"):
        model, _ = train(dataset, manual, cfg)
        path = tmp_path / name
        save_model(model, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    check(10, "two identical train runs produce byte-identical model files",
          identical, f"{paths[0].stat().st_size} bytes each")


if __name__ == "__main__":
    train_ds, test_ds, manual, _ = acceptance_split()
    model, _ = train(train_ds, manual, recovery_config(0.1, 1.0))
    PORTABLE_OUTPUTS.write_text(json.dumps(portable_outputs(model, test_ds)) + "\n",
                                encoding="utf-8")
