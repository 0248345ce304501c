"""Modules the pipeline must not load.

scipy is not a declared dependency, and numpy.ma costs about 1 MB of
resident memory for nothing spanqa uses. A fresh interpreter runs a small
train-and-score pass and reports which of them it loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import spanqa

SCRIPT = """
import sys

from spanqa import (SynthesisConfig, TrainConfig, classify_report,
                    generate_synthetic_corpus, split_dataset, train)

dataset, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=60, seed=5))
train_ds, test_ds = split_dataset(dataset, 0.2, 0)
model, _ = train(train_ds, {}, TrainConfig(epochs=3))
assert [classify_report(pair, model) for pair in test_ds]
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_train_and_score_load_neither_scipy_nor_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(Path(spanqa.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
