"""The call shapes the benchmark's trace hooks read.

`perfbench/workload.py` (`install_counters`) computes its counts from these
calls' arguments and results, by position or keyword: the `grads` dict of
`Adam.step(params, grads)`, the int that `refresh_pseudo_labels` returns, the
`junior` and `senior` of `lcs_diff`, the `report_id` of what `merge_reports`
returns, the `path` of `save_model(model, path)` and of `load_model(path)`.
The benchmark's own tests are not part of this suite, so a changed shape
would otherwise show only as a broken `perfbench/run.py --trace 1` run.
The first test also pins how often those layers run: one `lcs_diff` per
merge and one `span_embeddings` per scored report with spans, so no faster
path can route work around the spans the per-layer metrics time.

The tracer names each span after the function or method it wraps, so a
renamed function would silently zero the per-layer metrics that
`BENCHMARK.json` reads from its span; the last test pins those names.
"""

import inspect
import json
import os
import sys
from pathlib import Path

from spanqa import classifier, diffmerge, selftrain
from spanqa.aggregate import classify_report
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus, split_dataset
from spanqa.model import load_model, save_model
from spanqa.selftrain import TrainConfig, train


def record(monkeypatch, owner, name, log=None):
    """Replace owner.name, as the tracer does, by a wrapper that keeps each
    call's (args, kwargs, result); with a `log`, it also appends `name` to it
    as each call returns."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        if log is not None:
            log.append(name)
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_train_and_score_calls_have_the_shapes_the_hooks_read(monkeypatch):
    adam = record(monkeypatch, classifier.Adam, "step")
    refresh = record(monkeypatch, selftrain, "refresh_pseudo_labels")
    log = []  # lcs_diff and merge_reports, in the order they return
    lcs = record(monkeypatch, diffmerge, "lcs_diff", log)
    merges = record(monkeypatch, diffmerge, "merge_reports", log)
    dataset, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=40, seed=5))
    train_ds, test_ds = split_dataset(dataset, 0.2, 0)
    model, _ = train(train_ds, {}, TrainConfig(epochs=2, dim=8, hidden=4, buckets=64))
    embeds = record(monkeypatch, type(model.backend), "span_embeddings")
    scored_spans = 0
    for pair in test_ds:
        before = len(embeds)
        result = classify_report(pair, model)
        # the layers the per-layer metrics time: one pooling call per scored report
        assert len(embeds) - before == (1 if result.span_scores else 0)
        scored_spans += len(result.span_scores)

    assert adam and refresh and lcs and merges and scored_spans
    # every merge diffs once, through lcs_diff, and nothing else calls it
    assert log == ["lcs_diff", "merge_reports"] * len(merges)
    for args, kwargs, _ in adam:  # adam_rows: args[0] is the optimizer
        grads = args[2] if len(args) > 2 else kwargs["grads"]
        assert isinstance(args[0], classifier.Adam) and isinstance(grads, dict)
    assert all(type(result) is int for _, _, result in refresh)
    pairs = {(p.junior, p.senior) for p in dataset}
    for args, kwargs, _ in lcs:
        junior = args[0] if args else kwargs["junior"]
        senior = args[1] if len(args) > 1 else kwargs["senior"]
        assert (junior, senior) in pairs
    assert {result.report_id for _, _, result in merges} == {p.id for p in dataset}


def test_model_files_are_named_where_the_hooks_read_them(tmp_path):
    dataset, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=20, seed=5))
    model, _ = train(dataset, {}, TrainConfig(epochs=1, dim=8, hidden=4, buckets=64))
    assert list(inspect.signature(save_model).parameters)[:2] == ["model", "path"]
    assert list(inspect.signature(load_model).parameters)[0] == "path"
    path = tmp_path / "model.json"
    save_model(model, path)
    assert os.path.getsize(path) > 0
    assert load_model(path).threshold == model.threshold


ROOT = Path(__file__).resolve().parents[1]
# <span>.<field> per-layer metrics, by the field the tracer's summary gives
SPAN_FIELDS = ("s", "self_s", "calls", "ms_p50", "ms_p90", "calls_per_report")
# counters that always read 0, whatever the span names (ROADMAP item 7)
STALE = ("encoder.accumulate_grad.", "encoder.span_design.",
         "classifier.adam.rows_touched_frac", "encoder.encode.")


def test_per_layer_metrics_read_spans_that_still_exist():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
        import workload
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    read = set()
    for name in (m["name"] for m in metrics):
        span, _, field = name.rpartition(".")
        if (not name.startswith(STALE) and field in SPAN_FIELDS
                and span.split(".")[0] in tracer.LAYERS and span.count(".") == 1):
            read.add(span)

    class Hooks:  # the spans whose calls the counters are computed from
        names = set()

        def on(self, name, hook):
            self.names.add(name)

    workload.install_counters(Hooks(), {})
    read |= Hooks.names
    assert {"selftrain.train_epoch", "selftrain.init_pseudo_labels",
            "selftrain.refresh_pseudo_labels", "encoder.span_embeddings",
            "classifier.forward", "classifier.backward", "classifier.adam_step",
            "aggregate.classify_report"} <= read
    traced = {name for *_, name in tracer.Tracer().targets()}
    assert sorted(read - traced) == []
