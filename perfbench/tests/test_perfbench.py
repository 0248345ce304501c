"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests
"""

import inspect
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import inputs
import run as bench
import spanqa
import workload
from tracer import Tracer

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
REPEATABLE_COUNTS = ("diffmerge.lcs_diff.calls", "diffmerge.cells",
                     "classifier.adam_step.calls", "selftrain.refreshed")


def run_cli(*args, cwd=bench.ROOT, script=bench.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


@pytest.mark.parametrize("name", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(name, trace):
    proc = run_cli("--workload", name, "--seed", "3", "--seconds", "0.2",
                   "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(inputs.WORKLOADS) - {"predict-long"}
    assert bench.WORKLOADS is inputs.WORKLOADS
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(bench.END_TO_END_UNITS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = run_cli("--workload", "predict-dense", "--seed", "1", "--seconds", "1",
                   cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def snapshot():
    """Every attribute of every spanqa module and class, by identity."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key == "spanqa" or key.startswith("spanqa."):
            for attr, value in vars(module).items():
                seen[(key, attr)] = value
                if inspect.isclass(value):
                    for name, raw in vars(value).items():
                        seen[(key, attr, name)] = raw
    return seen


def traced_run(name, seed=5):
    spec = inputs.spec(name, seed, "tiny")
    return workload.run(spec, "trace", 0, time.monotonic())


def test_traced_run_restores_every_wrapped_function():
    before = snapshot()
    tracer = Tracer()
    wrapped = tracer.targets()
    assert len(wrapped) > 30
    traced_run("train-acceptance")
    after = snapshot()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    with tracer:
        assert spanqa.diffmerge.lcs_diff is not before[("spanqa.diffmerge", "lcs_diff")]
        # a name imported by value into another module is rebound too
        assert spanqa.selftrain.span_loss is spanqa.classifier.span_loss
    assert snapshot() == before


def test_self_times_are_nonnegative_and_fit_in_wall_time():
    dataset, truth = spanqa.generate_synthetic_corpus(spanqa.SynthesisConfig(n_reports=30, seed=2))
    with Tracer() as tracer:
        with tracer.span("root"):
            model, _ = spanqa.train(dataset, {}, spanqa.TrainConfig(epochs=2, dim=8, buckets=64))
            for pair in dataset:
                spanqa.classify_report(pair, model)
    summary = tracer.summary()
    assert summary["root"]["calls"] == 1
    assert all(row["self_s"] >= -1e-9 for row in summary.values())
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self <= tracer.uninstalled_at - tracer.installed_at
    assert total_self == pytest.approx(summary["root"]["s"], rel=1e-6)
    assert all(row["s"] <= summary["root"]["s"] for row in summary.values())


def test_busy_time_counts_nested_calls_of_one_name_once():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):          # 0 .. 5
        with tracer.span("a"):      # 1 .. 4
            with tracer.span("b"):  # 2 .. 3
                pass
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "s": 5, "self_s": 4}
    assert summary["b"] == {"calls": 1, "s": 1, "self_s": 1}


@pytest.mark.parametrize("name", ["train-acceptance", "predict-dense"])
def test_traced_counts_repeat_for_one_seed(name):
    first, second = traced_run(name), traced_run(name)
    assert first["failed"] == second["failed"] == 0
    for key in REPEATABLE_COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["diffmerge.lcs_diff.calls"] > 0


def test_check_prediction_rejects_bad_outputs():
    pair = spanqa.ReportPair("r", "左肺", "右肺")
    mixed = spanqa.merge_reports(pair)
    good = spanqa.aggregate.QAResult("r", [0.4], 0.4, 0, "average", 0.5)
    assert workload.check_prediction(spanqa, pair, good, mixed, None) is None
    bad = [
        spanqa.aggregate.QAResult("r", [0.4, 0.5], 0.45, 0, "average", 0.5),
        spanqa.aggregate.QAResult("r", [1.0], 1.0, 1, "average", 0.5),
        spanqa.aggregate.QAResult("r", [0.4], float("nan"), 0, "average", 0.5),
        spanqa.aggregate.QAResult("r", [0.4], 0.4, 2, "average", 0.5),
    ]
    for result in bad:
        assert workload.check_prediction(spanqa, pair, result, mixed, None)
    other = spanqa.merge_reports(spanqa.ReportPair("r", "左肺", "双肺"))
    assert "round-trip" in workload.check_prediction(spanqa, pair, good, other, None)
    assert workload.check_prediction(spanqa, pair, good, mixed, ([0.3], 0.3, 0))


def test_stale_cache_entry_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CACHE", tmp_path)
    paths = inputs.prepare("predict-dense", 4, "tiny")
    original = open(paths["pairs"], "rb").read()
    with open(paths["pairs"], "ab") as fh:
        fh.write(b"\n")
    assert inputs.prepare("predict-dense", 4, "tiny") == paths
    assert open(paths["pairs"], "rb").read() == original
    other = inputs.prepare("predict-dense", 5, "tiny")
    assert other["pairs"] != paths["pairs"] and other["model"] == paths["model"]
