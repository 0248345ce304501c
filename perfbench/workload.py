"""One measured run of one workload, in a process of its own.

`run.py` starts this file as a child process with the input paths, the time
budget and a mode:

  setup  import spanqa and load the inputs, then stop (a set-up probe);
  run    set up, then run the workload's closed loop until the budget is spent;
  trace  set up and run exactly one pass with every spanqa layer traced.

The loop is closed: one caller, one thread, the next call only after the
previous one returns. On train-acceptance it times `spanqa.train()` calls,
each followed by one pass of `classify_report` over the 100 test reports, for
the first half of the budget; on the predict workloads it makes one pass of
`classify_report` over the scoring set. The rest of the budget goes to more
`classify_report` calls, cycling through the scoring set. Only the train()
and classify_report calls are timed. Every output is checked outside the timed
region, and an exception or a failed check counts as one failed operation
without stopping the run.

The child prints one JSON object, the raw measurements, as its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path

from inputs import sha256_file

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
RECOVERY_GATE = 90.0  # criterion 6: held-out span-label accuracy, percent
MAX_LOGGED = 5


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    def span(self, name):
        return nullcontext()

    def paused(self):
        return nullcontext()


class MergeCapture:
    """Keeps the mixed report of the last `merge_reports` call.

    `classify_report` merges the pair itself and returns only scores and a
    verdict; the round-trip check needs the merge it scored, and merging again
    would double the cost of a call on long reports.
    """

    def __init__(self, diffmerge):
        self.diffmerge = diffmerge
        self.original = diffmerge.merge_reports
        self.last = None

    def __call__(self, pair):
        self.last = self.original(pair)
        return self.last

    def __enter__(self):
        self.diffmerge.merge_reports = self
        return self

    def __exit__(self, *exc):
        self.diffmerge.merge_reports = self.original


class Outcome:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED:
            print(f"perfbench: failed: {message}", file=sys.stderr)


def check_prediction(spanqa, pair, result, mixed, expected) -> str | None:
    """Why the prediction for `pair` is wrong, or None."""
    if mixed is None or mixed.report_id != pair.id:
        return f"{pair.id}: merge not observed"
    scores = result.span_scores
    if len(scores) != len(mixed.spans):
        return f"{pair.id}: {len(scores)} scores for {len(mixed.spans)} merged spans"
    if not all(0.0 < s < 1.0 for s in scores):
        return f"{pair.id}: span score outside (0, 1)"
    if not math.isfinite(result.aggregate_score):
        return f"{pair.id}: aggregate score {result.aggregate_score}"
    if result.verdict not in (0, 1):
        return f"{pair.id}: verdict {result.verdict!r}"
    if spanqa.reconstruct(mixed) != (pair.junior, pair.senior):
        return f"{pair.id}: merge does not round-trip"
    if expected is not None and expected != (scores, result.aggregate_score, result.verdict):
        return f"{pair.id}: prediction differs from the first one"
    return None


class Workload:
    """Inputs, timed calls and output checks of one workload."""

    def __init__(self, spanqa, spec: dict, tracer):
        self.spanqa = spanqa
        self.spec = spec
        self.tracer = tracer
        self.training = spec["workload"] == "train-acceptance"
        self.outcome = Outcome()
        self.latencies: dict[str, list[float]] = {}  # report id -> seconds per call
        self.spans: dict[str, int] = {}               # report id -> spans scored
        self.train_rates: list[float] = []  # span-epochs per second per train() call
        self.reference: dict[str, tuple] = {}
        self.quality: dict[str, float] = {}
        self.model_sha256 = None

    # -- set-up (timed as setup_s) -------------------------------------------

    def setup(self) -> None:
        spanqa, paths = self.spanqa, self.spec["paths"]
        if self.training:
            self.train_ds = spanqa.load_report_pairs(paths["train"])
            self.pairs = spanqa.load_report_pairs(paths["test"])
            self.manual = spanqa.load_span_labels(paths["spans"], self.train_ds)
        else:
            self.pairs = spanqa.load_report_pairs(paths["pairs"])
            self.model = spanqa.load_model(paths["model"])

    def load_gold(self) -> None:
        gold = {}
        with open(self.spec["paths"]["gold"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                gold[rec["report_id"]] = rec["span_labels"]
        self.gold = gold
        if self.training:
            self.train_spans = sum(len(gold[p.id]) for p in self.train_ds)
        else:
            self.model_sha256 = sha256_file(self.spec["paths"]["model"])

    # -- measurement -----------------------------------------------------------

    def measure(self, seconds: float, capture, workdir: Path, once: bool) -> int:
        """The closed loop; returns how many main calls it made.

        Training repeats train() calls, each followed by one evaluated pass
        over the test reports, while the next one fits in the first half of
        `seconds`. Predicting makes one evaluated pass over the scoring set.
        Both then classify the scoring set, cycling call by call, until
        `seconds` have passed. With `once` the loop stops after the first
        pass.
        """
        started = time.perf_counter()

        def done() -> bool:
            return once or time.perf_counter() - started >= seconds

        pairs = list(self.pairs)
        if self.training:
            calls = 0
            while True:
                with self.tracer.span("bench.pass"):
                    model, train_s = self.train_pass(capture, workdir)
                calls += 1
                elapsed = time.perf_counter() - started
                if once or model is None or elapsed + train_s > seconds / 2:
                    break
        else:
            model = self.model
            self.evaluate(model, [self.classify_one(p, model, capture) for p in pairs])
            calls = len(pairs)
        # One pass over short reports takes well under a second, too short to
        # average out the machine's speed changes.
        while model is not None and not done():
            self.classify_one(pairs[calls % len(pairs)], model, capture)
            calls += 1
        return calls

    def train_pass(self, capture, workdir: Path):
        """One timed train() call and its checks; returns (model, seconds)."""
        spanqa = self.spanqa
        config = spanqa.TrainConfig(**self.spec["train"])
        self.outcome.attempted += 1
        try:
            started = time.perf_counter()
            model, _ = spanqa.train(self.train_ds, self.manual, config)
            train_s = time.perf_counter() - started
            path = workdir / "model.json"
            spanqa.save_model(model, path)
        except Exception:
            self.outcome.fail(f"train raised\n{traceback.format_exc()}")
            return None, 0.0
        self.train_rates.append(self.train_spans * config.epochs / train_s)
        sha = sha256_file(path)
        problem = None
        if self.model_sha256 is None:
            self.model_sha256 = sha
        elif sha != self.model_sha256:
            problem = "model bytes differ from the first train of this run"
        results = [self.classify_one(pair, model, capture) for pair in self.pairs]
        recovery = self.evaluate(model, results)
        if self.spec["gate"] and recovery < RECOVERY_GATE:
            problem = f"span recovery {recovery:.2f}% is below {RECOVERY_GATE}%"
        if problem:
            self.outcome.fail(problem)
        return model, train_s

    def classify_one(self, pair, model, capture):
        """One timed classify_report call, then its checks; None if it failed."""
        spanqa = self.spanqa
        self.outcome.attempted += 1
        capture.last = None
        try:
            started = time.perf_counter()
            result = spanqa.classify_report(pair, model, "average")
            elapsed = time.perf_counter() - started
        except Exception:
            self.outcome.fail(f"classify_report({pair.id}) raised\n{traceback.format_exc()}")
            return None
        self.latencies.setdefault(pair.id, []).append(elapsed)
        self.spans[pair.id] = len(result.span_scores)
        with self.tracer.paused():
            try:
                problem = check_prediction(spanqa, pair, result, capture.last,
                                           self.reference.get(pair.id))
            except Exception:
                problem = f"{pair.id}: output check raised\n{traceback.format_exc()}"
        if problem:
            self.outcome.fail(problem)
            return None
        self.reference.setdefault(pair.id, (result.span_scores, result.aggregate_score,
                                            result.verdict))
        return result

    def evaluate(self, model, results) -> float:
        """Macro-F1 for both aggregators and span recovery; returns the latter.

        The minimum aggregator is applied to the scores `classify_report`
        returned with the average one, so each pair is merged once a pass.
        """
        spanqa = self.spanqa
        decide = spanqa.aggregate.decide
        golds, by_average, by_minimum = [], [], []
        correct = total = 0
        for pair, result in zip(self.pairs, results):
            if result is None:
                continue
            golds.append(pair.label)
            by_average.append(result.verdict)
            by_minimum.append(decide(pair.id, result.span_scores, "minimum",
                                     model.threshold).verdict)
            gold = self.gold[pair.id]
            total += len(gold)
            correct += sum(int(s > model.threshold) == g
                           for s, g in zip(result.span_scores, gold))
        recovery = 100.0 * correct / total if total else 0.0
        if not self.quality and golds:
            self.quality = {
                "f1_average": spanqa.macro_metrics(spanqa.confusion(by_average, golds))["f1"],
                "f1_minimum": spanqa.macro_metrics(spanqa.confusion(by_minimum, golds))["f1"],
                "span_recovery_pct": recovery,
            }
        return recovery

    def report_seconds(self) -> dict[str, float]:
        """Each report's latency: its fastest classify_report call.

        Every report is scored many times in a run, and the fastest call is
        the one least slowed by other load on the machine, whose speed drifts
        by tens of percent from second to second.
        """
        return {rid: min(times) for rid, times in self.latencies.items()}

    def span_epochs_per_s(self) -> float:
        """Median over train() calls; spans per second of report latency otherwise."""
        if self.training:
            return statistics.median(self.train_rates) if self.train_rates else 0.0
        seconds = self.report_seconds()
        return sum(self.spans[rid] for rid in seconds) / sum(seconds.values()) if seconds else 0.0

    def main_rate(self) -> float:
        """Work per second of the timed calls as they ran, to compare with a traced run."""
        if self.training:
            return self.span_epochs_per_s()
        calls = [t for times in self.latencies.values() for t in times]
        return len(calls) / sum(calls) if calls else 0.0


def environment(spanqa) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "kernel": spanqa.kernel_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def install_counters(tracer, counts: dict) -> None:
    """Counts computed at layer boundaries from call arguments and results."""
    counts.update(cells=0, merged_ids=set(), rows_touched=0, rows_stepped=0,
                  refreshed=0, model_bytes=0)

    def cells(args, kwargs, result):
        junior = args[0] if args else kwargs["junior"]
        senior = args[1] if len(args) > 1 else kwargs["senior"]
        counts["cells"] += len(junior) * len(senior)

    def merged(args, kwargs, result):
        counts["merged_ids"].add(result.report_id)

    def adam_rows(args, kwargs, result):
        opt = args[0]
        grads = args[2] if len(args) > 2 else kwargs["grads"]
        grad = grads.get("table")
        if opt.lr != 0.0 and grad is not None and grad.ndim == 2:
            counts["rows_touched"] += int((grad != 0).any(axis=1).sum())
            counts["rows_stepped"] += grad.shape[0]

    def refreshed(args, kwargs, result):
        counts["refreshed"] += int(result)

    def model_bytes(path):
        counts["model_bytes"] = os.path.getsize(path)

    tracer.on("diffmerge.lcs_diff", cells)
    tracer.on("diffmerge.merge_reports", merged)
    tracer.on("classifier.adam_step", adam_rows)
    tracer.on("selftrain.refresh_pseudo_labels", refreshed)
    tracer.on("model.save_model", lambda a, k, r: model_bytes(a[1] if len(a) > 1 else k["path"]))
    tracer.on("model.load_model", lambda a, k, r: model_bytes(a[0] if a else k["path"]))


def layer_metrics(tracer, counts: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run, by metric name (see BENCHMARK.json)."""
    rows = tracer.summary()

    def get(name, field):
        return float(rows.get(name, {}).get(field, 0.0))

    epochs = tracer.durations("selftrain.train_epoch")
    classify_calls = get("aggregate.classify_report", "calls")
    merges = get("diffmerge.merge_reports", "calls")
    out = {
        "corpus.load_report_pairs.s": get("corpus.load_report_pairs", "s"),
        "corpus.load_span_labels.s": get("corpus.load_span_labels", "s"),
        "diffmerge.lcs_diff.s": get("diffmerge.lcs_diff", "s"),
        "diffmerge.lcs_diff.calls": get("diffmerge.lcs_diff", "calls"),
        "diffmerge.cells": float(counts["cells"]),
        "diffmerge.merge_reports.self_s": get("diffmerge.merge_reports", "self_s"),
        "diffmerge.merges_per_pair": merges / len(counts["merged_ids"]) if merges else 0.0,
    }
    for fn in ("encode", "span_design", "span_embeddings", "accumulate_grad"):
        out[f"encoder.{fn}.s"] = get(f"encoder.{fn}", "s")
        out[f"encoder.{fn}.calls"] = get(f"encoder.{fn}", "calls")
    out["encoder.encode.calls_per_report"] = (
        get("encoder.encode", "calls") / classify_calls if classify_calls else 0.0)
    out.update({
        "classifier.forward.s": get("classifier.forward", "s"),
        "classifier.backward.s": get("classifier.backward", "s"),
        "classifier.adam_step.s": get("classifier.adam_step", "s"),
        "classifier.adam_step.self_s": get("classifier.adam_step", "self_s"),
        "classifier.adam_step.calls": get("classifier.adam_step", "calls"),
        "classifier.adam.rows_touched_frac": (
            counts["rows_touched"] / counts["rows_stepped"] if counts["rows_stepped"] else 0.0),
        "classifier.otsu_threshold.s": get("classifier.otsu_threshold", "s"),
        "selftrain.train_epoch.ms_p50": 1000 * percentile(epochs, 0.5) if epochs else 0.0,
        "selftrain.train_epoch.ms_p90": 1000 * percentile(epochs, 0.9) if epochs else 0.0,
        "selftrain.train_epoch.self_s": get("selftrain.train_epoch", "self_s"),
        "selftrain.init_pseudo_labels.s": get("selftrain.init_pseudo_labels", "s"),
        "selftrain.refresh_pseudo_labels.s": get("selftrain.refresh_pseudo_labels", "s"),
        "selftrain.refreshed": float(counts["refreshed"]),
        "aggregate.classify_report.s": get("aggregate.classify_report", "s"),
        "aggregate.classify_report.self_s": get("aggregate.classify_report", "self_s"),
        "aggregate.classify_report.calls": classify_calls,
        "model.save_model.s": get("model.save_model", "s"),
        "model.load_model.s": get("model.load_model", "s"),
        "model.bytes": float(counts["model_bytes"]),
        "metrics.macro_metrics.s": get("metrics.macro_metrics", "s"),
    })
    layer_self = tracer.layer_self()
    for layer in ("corpus", "diffmerge", "encoder", "classifier", "selftrain",
                  "aggregate", "model", "metrics"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["trace.spans"] = float(len(tracer.names))
    out["trace.hook_s"] = get("trace.hook", "s")
    return out


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run(spec: dict, mode: str, seconds: float, t0: float) -> dict:
    """Set up, measure and check one workload; returns the raw measurements.

    `t0` is the `time.monotonic()` reading taken when this process was
    started; set-up time runs from it to the end of loading the inputs.
    """
    src = spec["src"]
    if src not in sys.path:
        sys.path.insert(0, src)
    import spanqa

    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        counts: dict = {}
        install_counters(tracer, counts)
    else:
        tracer = NullTracer()

    with ExitStack() as stack:
        if mode == "trace":
            stack.enter_context(tracer)
        work = Workload(spanqa, spec, tracer)
        with tracer.span("bench.setup"):
            work.setup()
        setup_s = time.monotonic() - t0
        if mode == "setup":
            return {"setup_s": setup_s}

        work.load_gold()
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=CACHE))
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        capture = stack.enter_context(MergeCapture(spanqa.diffmerge))
        with tracer.span("bench.measure"):
            started = time.perf_counter()
            calls = work.measure(seconds, capture, workdir, once=mode == "trace")
            measured_s = time.perf_counter() - started

    out = {
        "workload": spec["workload"],
        "setup_s": setup_s,
        "calls": calls,
        "measured_s": measured_s,
        "attempted": work.outcome.attempted,
        "failed": work.outcome.failed,
        "report_seconds": work.report_seconds(),
        "classify_calls": sum(len(times) for times in work.latencies.values()),
        "span_epochs_per_s": work.span_epochs_per_s(),
        "main_rate": work.main_rate(),
        "quality": work.quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {**environment(spanqa), "model_sha256": work.model_sha256},
    }
    if mode == "trace":
        out["layers"] = layer_metrics(tracer, counts)
        out["trace_wall_s"] = tracer.uninstalled_at - tracer.installed_at
        out["trace_self_total_s"] = sum(r["self_s"] for r in tracer.summary().values())
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="one measured run of one workload")
    parser.add_argument("--spec", required=True, help="JSON: workload, paths, train config")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()
    result = run(json.loads(args.spec), args.mode, args.seconds, args.t0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
