"""Modules the pipeline must not load, and imports no module uses.

scipy is not a declared dependency, and numpy.ma costs about 1 MB of
resident memory for nothing spanqa uses. A fresh interpreter runs a small
train-and-score pass and reports which of them it loaded. Scoring with a
saved model draws nothing at random, so a predict process loads no RNG:
numpy.random alone costs about 5 MB of resident memory.

Every name a spanqa module imports is used in it or listed in its __all__,
and every private module-level function or class is used somewhere in spanqa.
Every function, class and method spanqa defines, dunders aside, is referenced
from spanqa, the tests or perfbench outside its own definition.
Only fileio opens a file or parses JSON, so every input goes through
read_json or read_jsonl and its errors name the file, and the line.
Inside selftrain only init_pseudo_labels merges a report and embeds its
spans, so training merges and embeds in one pass. Every module-level
function of every spanqa module is called from spanqa outside its own body,
or from perfbench: a helper only the tests call is code no workload needs.
Likewise every public method or property of a spanqa class is reached as an
attribute from spanqa outside its own body, or from perfbench.
Only types, whose text rule is every report id's, and cli, for command-line
and --config strings, look for a lone surrogate.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import spanqa
from spanqa import HashedWindowEncoder, SpanClassifier, SpanScoringModel, save_model

MODULES = sorted(Path(spanqa.__file__).parent.glob("*.py"))

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


PREDICT_SCRIPT = """
import sys

import spanqa

model = spanqa.load_model(sys.argv[1])
assert spanqa.classify_report(spanqa.ReportPair("r", "左肺见片影", "右肺见片影"), model).span_scores
print(sorted(m for m in sys.modules if m in ("numpy.random", "fractions", "decimal")))
"""


def run_fresh(*args, **env) -> str:
    """The last line a fresh interpreter prints running args, with env added
    to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(spanqa.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_train_and_score_load_neither_scipy_nor_numpy_ma():
    assert run_fresh("-c", SCRIPT) == "[]"


def test_predict_loads_no_rng_and_no_rational_arithmetic(tmp_path):
    path = tmp_path / "model.json"
    save_model(SpanScoringModel(HashedWindowEncoder(8, 1, 64, seed=0),
                                SpanClassifier(8, 4, seed=1), 0.5, {}), path)
    assert run_fresh("-c", PREDICT_SCRIPT, str(path)) == "[]"


def imported_names(tree):
    """The names the module's import statements bind, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                for name in ast.literal_eval(node.value)}
    assert [name for name in imported_names(tree) if name not in used | exported] == []


def test_every_private_helper_is_used_in_the_package():
    # a helper whose last caller went stays importable, so only a search finds it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    used = ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})
    private = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert [name for name in private if name not in used] == []


def referenced_names(tree):
    """Every name the tree refers to: each ast.Name, ast.Attribute and import
    alias. Docstrings and comments refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]


def test_every_definition_is_referenced_outside_itself():
    # the private-helper test above misses a method, a nested function and a
    # public function whose last caller went; a test or perfbench is a caller
    here = Path(__file__).resolve().parent
    callers = sorted(here.rglob("*.py")) + sorted((here.parent / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    counts = Counter(name for tree in trees.values() for name in referenced_names(tree))
    counts.update(name for path in callers for name in
                  referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    definitions = [node for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert definitions
    unused = [node.name for node in definitions
              if counts[node.name] <= Counter(referenced_names(node))[node.name]]
    assert unused == []


def opens_or_parses(call: ast.Call) -> bool:
    """Whether the call is open(...), json.load(...) or json.loads(...)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name) and func.value.id == "json")


def test_only_fileio_opens_a_file_or_parses_json():
    callers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and opens_or_parses(node)}
    assert callers == {"fileio.py"}


def test_only_init_pseudo_labels_merges_and_embeds_in_selftrain():
    # every reference counts, not only a call: handing merge_reports on merges too
    tree = ast.parse((Path(spanqa.__file__).parent / "selftrain.py").read_text(encoding="utf-8"))
    init = next(fn for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "init_pseudo_labels")
    everywhere, inside = Counter(referenced_names(tree)), Counter(referenced_names(init))
    for name in ("merge_reports", "span_embeddings"):
        assert everywhere[name] == inside[name] > 0, name


def module_functions(path):
    """The module-level function definitions of the module at path."""
    return [node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)]


FUNCTION_MODULES = [path for path in MODULES if module_functions(path)]


@pytest.mark.parametrize("path", FUNCTION_MODULES, ids=[path.name for path in FUNCTION_MODULES])
def test_every_function_is_called_by_the_package_or_perfbench(path):
    # every reference counts, as in the merge guard above; the tests do not
    callers = MODULES + sorted((path.parents[2] / "perfbench").rglob("*.py"))
    counts = Counter(name for caller in callers
                     for name in referenced_names(ast.parse(caller.read_text(encoding="utf-8"))))
    functions = module_functions(path)
    uncalled = {fn.name for fn in functions
                if counts[fn.name] <= Counter(referenced_names(fn))[fn.name]}
    assert uncalled == set()


def attribute_counts(tree) -> Counter:
    """How many times the tree reads each attribute name, obj.name."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_method_is_referenced_by_the_package_or_perfbench():
    # the function guard above sees module-level functions only; a method is
    # reached as obj.name, so each ast.Attribute counts, and the tests do not
    callers = MODULES + sorted((Path(spanqa.__file__).parents[2] / "perfbench").glob("*.py"))
    counts = sum((attribute_counts(ast.parse(caller.read_text(encoding="utf-8")))
                  for caller in callers), Counter())
    methods = [(cls.name, fn) for path in MODULES
               for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    assert methods
    unreferenced = {f"{owner}.{fn.name}" for owner, fn in methods
                    if counts[fn.name] <= attribute_counts(fn)[fn.name]}
    assert unreferenced == set()


def test_only_types_and_cli_look_for_a_lone_surrogate():
    # a module that needs the text rule calls types._check_text, its one owner
    callers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "has_lone_surrogate"}
    assert callers == {"types.py", "cli.py"}
