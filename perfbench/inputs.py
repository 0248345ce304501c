"""Workload inputs, generated from the workload seed and cached on disk.

Generation is untimed and happens once per (workload, seed, size): the
generator merges every candidate pair, which takes tens of seconds for long
reports. Each cache entry is a directory under `perfbench/.cache` that holds
the input files and a manifest recording the key the entry was made for and
the SHA-256 of every file. The key covers the seed, the generator and
training configuration, and the SHA-256 of the `spanqa` sources, so an entry
made for other settings or other code is never used: it is rebuilt.

Run as a script, this prints the JSON spec a workload process takes:

    python3 perfbench/inputs.py --workload predict-long --seed 1

The program under test sees only these files: pairs, span labels and, for
the predict workloads, a model file. The gold span labels (`gold.jsonl`) are
read by the benchmark alone, to score its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
FORMAT = 1

# predict-long is not in BENCHMARK.json: a run scores each of its 1,000-
# character reports only once or twice, too few to be steady on a shared
# machine. It stays runnable for traced runs of long reports.
WORKLOADS = ("train-acceptance", "predict-long", "predict-dense")

# The acceptance-gate settings (criteria 6 and 7): 500 reports generated and
# split 80/20 with seed 42, the first 50 training reports carry manual span
# labels, and one 100-epoch train with gamma=0.1, lambda=1 and training seed
# 7. train-acceptance keeps this corpus fixed so its quality numbers are the
# gate's; the workload seed only orders the test reports. The predict
# workloads score with the model this corpus trains.
ACCEPTANCE_SEED = 42
TEST_FRACTION = 0.2
TRAIN = {"gamma": 0.1, "lam": 1.0, "seed": 7}

SIZES = {
    "full": {"acceptance_reports": 500, "manual": 50, "epochs": 100,
             "long_reports": 100, "long_length": 1000, "dense_reports": 100},
    # For the benchmark's own smoke tests only.
    "tiny": {"acceptance_reports": 60, "manual": 10, "epochs": 3,
             "long_reports": 4, "long_length": 300, "dense_reports": 12},
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spanqa").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def synthesis(spanqa, workload: str, seed: int, size: str):
    """The generator configuration of a workload's corpus."""
    sz = SIZES[size]
    if workload == "train-acceptance":
        return spanqa.SynthesisConfig(n_reports=sz["acceptance_reports"], seed=seed)
    if workload == "predict-long":
        # One section's templates cap a report near 150 characters, so long
        # reports repeat the template vocabulary.
        templates = spanqa.corpus.DEFAULT_TEMPLATES * 8
        return spanqa.SynthesisConfig(n_reports=sz["long_reports"], seed=seed,
                                      template_vocab=templates,
                                      avg_length=sz["long_length"], id_prefix="long")
    if workload == "predict-dense":
        return spanqa.SynthesisConfig(n_reports=sz["dense_reports"], seed=seed,
                                      benign_edit_rate=0.4, harmful_edit_rate=0.15,
                                      id_prefix="dense")
    raise ValueError(f"unknown workload {workload!r}")


def train_config(size: str) -> dict:
    return {**TRAIN, "epochs": SIZES[size]["epochs"]}


def _describe(config) -> dict:
    """A JSON-able form of a SynthesisConfig; templates enter by digest."""
    fields = asdict(config)
    vocab = repr(config.template_vocab).encode()
    fields["template_vocab"] = hashlib.sha256(vocab).hexdigest()
    return fields


def _valid(entry: Path, key: dict) -> bool:
    try:
        manifest = json.loads((entry / "manifest.json").read_text())
        return manifest["key"] == key and all(
            sha256_file(entry / name) == digest for name, digest in manifest["files"].items())
    except (OSError, ValueError, KeyError, TypeError):
        return False


def _entry(label: str, key: dict, build) -> Path:
    """The cache directory for `key`, built by `build(tmpdir)` if missing or stale."""
    key = {"format": FORMAT, **key}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    entry = CACHE / f"{label}-{digest[:16]}"
    if _valid(entry, key):
        return entry
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".build-", dir=CACHE))
    try:
        build(tmp)
        files = {p.name: sha256_file(p) for p in sorted(tmp.iterdir())}
        (tmp / "manifest.json").write_text(json.dumps({"key": key, "files": files}, indent=1))
        shutil.rmtree(entry, ignore_errors=True)
        os.rename(tmp, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for stale in CACHE.glob(f"{label}-*"):  # made for other settings or code
        if stale != entry:
            shutil.rmtree(stale, ignore_errors=True)
    return entry


def _acceptance_split(spanqa, size: str):
    """(train, test, manual span labels, gold span labels) of the acceptance corpus."""
    dataset, truth = spanqa.generate_synthetic_corpus(
        synthesis(spanqa, "train-acceptance", ACCEPTANCE_SEED, size))
    train, test = spanqa.split_dataset(dataset, TEST_FRACTION, seed=ACCEPTANCE_SEED)
    manual = {p.id: truth[p.id] for p in list(train)[:SIZES[size]["manual"]]}
    return train, test, manual, truth


def _acceptance_files(spanqa, out: Path, seed: int, size: str) -> None:
    train, test, manual, truth = _acceptance_split(spanqa, size)
    order = list(test)
    random.Random(seed).shuffle(order)
    spanqa.save_report_pairs(train, out / "train.jsonl")
    spanqa.save_report_pairs(spanqa.Dataset(order), out / "test.jsonl")
    spanqa.save_span_labels(manual, out / "spans.jsonl")
    spanqa.save_span_labels(truth, out / "gold.jsonl")


def _model_files(spanqa, out: Path, size: str) -> None:
    train, _, manual, _ = _acceptance_split(spanqa, size)
    model, _ = spanqa.train(train, manual, spanqa.TrainConfig(**train_config(size)))
    spanqa.save_model(model, out / "model.json")


def prepare(workload: str, seed: int, size: str = "full") -> dict[str, str]:
    """Paths of the workload's input files, generating them if needed."""
    import spanqa

    source = source_digest()
    if workload == "train-acceptance":
        key = {"workload": workload, "seed": seed, "size": size, "source": source,
               "synthesis": _describe(synthesis(spanqa, workload, ACCEPTANCE_SEED, size)),
               "test_fraction": TEST_FRACTION, "manual": SIZES[size]["manual"]}
        entry = _entry(f"{workload}-{size}-s{seed}", key,
                       lambda out: _acceptance_files(spanqa, out, seed, size))
        return {name: str(entry / f"{name}.jsonl") for name in ("train", "test", "spans", "gold")}

    model_key = {"workload": "predict-model", "size": size,
                 "source": source, "train": train_config(size),
                 "synthesis": _describe(synthesis(spanqa, "train-acceptance",
                                                  ACCEPTANCE_SEED, size)),
                 "test_fraction": TEST_FRACTION, "manual": SIZES[size]["manual"]}
    model_entry = _entry(f"predict-model-{size}", model_key,
                         lambda out: _model_files(spanqa, out, size))

    config = synthesis(spanqa, workload, seed, size)

    def build(out: Path) -> None:
        dataset, truth = spanqa.generate_synthetic_corpus(config)
        spanqa.save_report_pairs(dataset, out / "pairs.jsonl")
        spanqa.save_span_labels(truth, out / "gold.jsonl")

    key = {"workload": workload, "seed": seed, "size": size, "source": source,
           "synthesis": _describe(config)}
    entry = _entry(f"{workload}-{size}-s{seed}", key, build)
    return {"pairs": str(entry / "pairs.jsonl"), "gold": str(entry / "gold.jsonl"),
            "model": str(model_entry / "model.json")}


def spec(workload: str, seed: int, size: str) -> dict:
    """What a workload process needs: input paths (prepared now), training settings."""
    return {"workload": workload, "paths": prepare(workload, seed, size), "src": str(SRC),
            "train": train_config(size),
            "gate": workload == "train-acceptance" and size == "full"}


def main() -> None:
    parser = argparse.ArgumentParser(description="prepare a workload's inputs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    print(json.dumps(spec(args.workload, args.seed, args.size)))


if __name__ == "__main__":
    main()
