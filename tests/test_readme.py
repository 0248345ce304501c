"""The README's file-format table lists, in order, the top-level keys of each
record the CLI writes, every command of its CLI walkthrough parses, and every
`spanqa.<name>` it mentions exists."""

import json
import re
import shlex
from pathlib import Path

import pytest

import spanqa
from spanqa.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def table_keys(name):
    """Top-level keys of the file-format table row `name`, in order."""
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(rf"\| {name} \| `\{{(.*)\}}` \|", line)
        if row:
            schema = row.group(1)
            nested = re.compile(r"[\[{][^\[\]{}]*[\]}]")
            while nested.search(schema):  # drop nested lists and objects, innermost first
                schema = nested.sub("", schema)
            return re.findall(r'"(\w+)"', schema)
    raise AssertionError(f"README has no file-format row {name!r}")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    paths = {name: d / f"{name}.jsonl" for name in ("pairs", "spans", "merged", "telemetry",
                                                    "predictions")}
    for argv in (
        ["gen-corpus", "--n", 20, "--seed", 7, "--benign-rate", 0.1, "--harmful-rate", 0.1,
         "--output", paths["pairs"], "--span-labels-out", paths["spans"]],
        ["merge", "--input", paths["pairs"], "--output", paths["merged"]],
        ["train", "--input", paths["pairs"], "--span-labels", paths["spans"],
         "--model-out", d / "model.json", "--telemetry", paths["telemetry"],
         "--epochs", 3, "--dim", 8, "--hidden", 4, "--buckets", 64],
        ["predict", "--input", paths["pairs"], "--model", d / "model.json",
         "--output", paths["predictions"]],
    ):
        assert main([str(a) for a in argv]) == 0
    return paths


@pytest.mark.parametrize("name", ["merged", "predictions", "telemetry"])
def test_written_records_have_the_table_keys_in_order(artifacts, name):
    keys = table_keys(name)
    with open(artifacts[name], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records
    assert [list(rec) for rec in records] == [keys] * len(records)


def walkthrough_commands():
    """The commands of the README's CLI walkthrough block, as argument lists."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI walkthrough\n\n```bash\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no CLI walkthrough block"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_walkthrough_commands_parse():
    commands = walkthrough_commands()
    assert [argv[:2] for argv in commands] == [
        ["spanqa", name] for name in ("gen-corpus", "merge", "train", "predict", "evaluate",
                                      "sweep")]
    parser, subcommands = build_parser()
    for p in (parser, *subcommands.values()):
        p.allow_abbrev = False  # the README spells each flag out in full
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README walkthrough command does not parse: {shlex.join(argv)}")


def test_every_spanqa_name_resolves():
    """Each spanqa.<name> the README mentions, and each name in spanqa.__all__,
    exists, so a removed name lingers neither in the docs nor in the exports."""
    mentioned = set(re.findall(r"\bspanqa((?:\.[A-Za-z_]\w*)+)",
                               README.read_text(encoding="utf-8")))
    assert mentioned
    missing = []
    for dotted in sorted(mentioned):
        obj = spanqa
        for name in dotted.split(".")[1:]:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append("spanqa" + dotted)
    missing += [f"__all__: {name}" for name in spanqa.__all__ if not hasattr(spanqa, name)]
    assert not missing
