"""One contract over the four JSON-Lines readers: pairs, span labels,
embeddings and predictions all go through fileio.read_jsonl, so each names
the file and line the same way and follows the same error rule.

A blank line, or one of whitespace and "\r\n" alone, loads as nothing but
still counts toward N. A line that holds JSON but not an object is a
ParseError "path:N: expected a JSON object"; a record line that lacks a key
is a ParseError "path:N: missing field 'k'"; a repeated report id is a
ValidationError "path:N: duplicate report id"; a value that breaks a rule is
a ValidationError "path:N: ...". A report id that is not a string, or holds a
lone surrogate, breaks the one report-id rule, types._check_text, and gets
its one message in every reader.
"""

import json
import re

import pytest

from spanqa import cli
from spanqa.corpus import load_report_pairs, load_span_labels
from spanqa.encoder import PrecomputedEncoder
from spanqa.types import ParseError, ValidationError

PAIRS = [{"id": "a", "junior": "左肺", "senior": "右肺", "label": 0},
         {"id": "b", "junior": "肺见结节", "senior": "肺未见结节", "label": 1}]


def write_lines(path, records) -> None:
    path.write_text("".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records),
                    encoding="utf-8")


def pair_file(tmp_path):
    path = tmp_path / "gold.jsonl"
    write_lines(path, PAIRS)
    return path


def evaluate(path, tmp_path):
    """cmd_evaluate on the predictions at path, its errors left to propagate."""
    parser, _ = cli.build_parser()
    args = parser.parse_args(["evaluate", "--input", str(pair_file(tmp_path)),
                              "--predictions", str(path),
                              "--output", str(tmp_path / "metrics.json")])
    return args.func(args)


# reader: (its lines, the keys a record line must have, a bad value, the load);
# the last line is the record line the contract edits
READERS = {
    "pairs": (PAIRS, ["id", "junior", "senior"], ("label", 2),
              lambda path, tmp_path: load_report_pairs(path)),
    "span labels": ([{"report_id": "a", "span_labels": [0]},
                     {"report_id": "b", "span_labels": [1]}],
                    ["report_id", "span_labels"], ("span_labels", [0, 1]),
                    lambda path, tmp_path: load_span_labels(
                        path, load_report_pairs(pair_file(tmp_path)))),
    "embeddings": ([{"dim": 2}, {"report_id": "a", "ranges": [[0, 1]], "rows": [[0.5, 1.0]]},
                    {"report_id": "b", "ranges": [[1, 3]], "rows": [[1.5, 2.0]]}],
                   ["report_id", "ranges", "rows"], ("rows", [[1.5]]),
                   lambda path, tmp_path: PrecomputedEncoder.from_file(path)),
    "predictions": ([{"report_id": "a", "verdict": 0}, {"report_id": "b", "verdict": 1}],
                    ["report_id", "verdict"], ("verdict", 2), evaluate),
}

CASES = [(name, key) for name, (_, keys, _, _) in READERS.items() for key in keys]


def where(path, lineno) -> str:
    return re.escape(f"{path}:{lineno}: ")


def loaded(result, tmp_path):
    """What a load made of its file, as values that compare equal."""
    if isinstance(result, PrecomputedEncoder):
        return result.dim, {rid: (ranges, rows.tolist())
                            for rid, (ranges, rows) in result.records.items()}
    if result == 0:  # evaluate returned its exit code: read the metrics it wrote
        return json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    return result


@pytest.mark.parametrize("blank", ["\n", "\r\n", " \t\r\n"], ids=["lf", "crlf", "spaces"])
@pytest.mark.parametrize("name", READERS)
def test_blank_lines_load_as_nothing_and_count(tmp_path, name, blank):
    lines, _, _, load = READERS[name]
    path = tmp_path / "input.jsonl"
    write_lines(path, lines)
    expected = loaded(load(path, tmp_path), tmp_path)
    text = "".join(blank + json.dumps(rec, ensure_ascii=False) + "\n" for rec in lines)
    path.write_bytes((text + blank * 2).encode("utf-8"))
    assert loaded(load(path, tmp_path), tmp_path) == expected
    # the repeated id after them is named by its own line number
    path.write_bytes((text + blank + json.dumps(lines[-1]) + "\n").encode("utf-8"))
    with pytest.raises(ValidationError,
                       match=f"^{where(path, 2 * len(lines) + 2)}duplicate report id 'b'$"):
        load(path, tmp_path)


@pytest.mark.parametrize("value", ["[1]", '"x"', "5", "null"])
@pytest.mark.parametrize("name", READERS)
def test_json_that_is_no_object_is_a_parse_error_naming_line(tmp_path, name, value):
    lines, _, _, load = READERS[name]
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in lines[:-1])
                    + value + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{where(path, len(lines))}expected a JSON object$"):
        load(path, tmp_path)


@pytest.mark.parametrize("name, key", CASES, ids=[f"{name}-{key}" for name, key in CASES])
def test_missing_key_is_a_parse_error_naming_line_and_key(tmp_path, name, key):
    lines, _, _, load = READERS[name]
    path = tmp_path / "input.jsonl"
    write_lines(path, [*lines[:-1], {k: v for k, v in lines[-1].items() if k != key}])
    with pytest.raises(ParseError, match=f"^{where(path, len(lines))}missing field '{key}'$"):
        load(path, tmp_path)


@pytest.mark.parametrize("name", READERS)
def test_repeated_id_is_a_validation_error_naming_line(tmp_path, name):
    # the error on the appended line shows that every line before it loads
    lines, _, _, load = READERS[name]
    path = tmp_path / "input.jsonl"
    write_lines(path, [*lines, lines[-1]])
    with pytest.raises(ValidationError,
                       match=f"^{where(path, len(lines) + 1)}duplicate report id 'b'$"):
        load(path, tmp_path)


@pytest.mark.parametrize("name", READERS)
def test_bad_value_is_a_validation_error_naming_line(tmp_path, name):
    lines, _, (key, value), load = READERS[name]
    path = tmp_path / "input.jsonl"
    write_lines(path, [*lines[:-1], {**lines[-1], key: value}])
    with pytest.raises(ValidationError, match=f"^{where(path, len(lines))}"):
        load(path, tmp_path)


@pytest.mark.parametrize("report_id, message", [
    (7, "must be a string, got 7"),
    ("\ud800", "holds a lone surrogate, which UTF-8 cannot encode"),
], ids=["non-string", "lone-surrogate"])
@pytest.mark.parametrize("name", READERS)
def test_bad_report_id_breaks_the_one_id_rule_naming_line(tmp_path, name, report_id, message):
    lines, keys, _, load = READERS[name]
    key = keys[0]  # the line's id key: "id" in a pair file, "report_id" elsewhere
    path = tmp_path / "input.jsonl"
    # json.dumps escapes the surrogate as \ud800, which a UTF-8 file can hold
    path.write_text("".join(json.dumps(rec) + "\n"
                            for rec in [*lines[:-1], {**lines[-1], key: report_id}]))
    with pytest.raises(ValidationError,
                       match=f"^{where(path, len(lines))}{re.escape(f'{key!r} {message}')}$"):
        load(path, tmp_path)
