import json
import random
import re

import numpy as np
import pytest

from spanqa import diffmerge
from spanqa.corpus import (
    SentenceTemplate,
    Slot,
    SynthesisConfig,
    generate_synthetic_corpus,
    load_report_pairs,
    load_span_labels,
    save_report_pairs,
    save_span_labels,
    split_dataset,
)
from spanqa.diffmerge import merge_reports
from spanqa.types import Dataset, ParseError, ReportPair, SpanLabelRecord, ValidationError


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


VALID = [
    {"id": "a", "junior": "肺左叶影", "senior": "肺双叶影", "label": 0, "section": "chest"},
    {"id": "b", "junior": "正常", "senior": "正常", "label": 1, "section": None},
    {"id": "c", "junior": "xy", "senior": "xz", "label": None, "section": "other"},
]
# Span-label ids a file may not hold: JSON's "\ud800" escape reads as a lone surrogate
BAD_REPORT_IDS = [5, None, 1.5, "a\ud800"]


def id_message(report_id) -> str:
    """The message of types._check_text, the one report-id rule, for a bad id."""
    if isinstance(report_id, str):
        return "'report_id' holds a lone surrogate, which UTF-8 cannot encode"
    return f"'report_id' must be a string, got {report_id!r}"


class TestLoadReportPairs:
    def test_loads_in_order(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, VALID)
        ds = load_report_pairs(path)
        assert [p.id for p in ds] == ["a", "b", "c"]
        assert ds.label_counts() == (1, 1, 1)

    def test_empty_file_is_valid(self, tmp_path, caplog):
        path = tmp_path / "pairs.jsonl"
        path.write_text("")
        with caplog.at_level("WARNING"):
            ds = load_report_pairs(path)
        assert len(ds) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_missing_senior_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [VALID[0], {"id": "x", "junior": "ab"}])
        with pytest.raises(ParseError, match=":2"):
            load_report_pairs(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"id": "a", "junior": "x", "senior": "y"}\n{oops\n')
        with pytest.raises(ParseError, match=":2"):
            load_report_pairs(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [VALID[0], VALID[0]])
        with pytest.raises(ValidationError, match="duplicate"):
            load_report_pairs(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{"id": "a", "junior": "x", "senior": "y", "label": 2}])
        with pytest.raises(ValidationError, match="label"):
            load_report_pairs(path)

    @pytest.mark.parametrize("field, value", [
        ("label", True), ("label", False), ("label", 1.0), ("label", 0.0), ("label", "1"),
        ("label", [1]), ("section", 3), ("section", ["chest"]), ("section", True),
        ("section", {"name": "chest"}),
    ])
    def test_off_schema_label_or_section_names_line(self, tmp_path, field, value):
        # the schema is "label": 0|1|null and "section": str|null; True == 1 and
        # 1.0 == 1 in Python, so a value check alone lets them through
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [VALID[0], {**VALID[1], field: value}])
        with pytest.raises(ValidationError, match=rf"pairs\.jsonl:2: '{field}' must be"):
            load_report_pairs(path)

    @pytest.mark.parametrize("field", ["id", "junior", "senior", "section"])
    def test_lone_surrogate_names_line_and_field(self, tmp_path, field):
        # JSON's "\ud800" escape decodes to a lone surrogate, which no UTF-8
        # write can encode, so the pair could never be merged or saved
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(VALID[0]) + "\n"
                        + json.dumps({**VALID[1], field: "\ud800正常"}) + "\n")
        with pytest.raises(ValidationError, match=rf"pairs\.jsonl:2: '{field}' holds a lone surrogate"):
            load_report_pairs(path)

    @pytest.mark.parametrize("field", ["junior", "senior"])
    def test_non_string_text_names_line_and_field(self, tmp_path, field):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{**VALID[0], field: 5}])
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:1: '{field}' must be "
                                             r"a string, got 5$"):
            load_report_pairs(path)

    def test_unknown_keys_are_ignored_and_not_saved(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{**VALID[0], "reviewer": "r-17"}])
        dataset = load_report_pairs(path)
        assert dataset.pairs == [ReportPair(**VALID[0])]
        out = tmp_path / "out.jsonl"
        save_report_pairs(dataset, out)
        assert [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()] \
            == [VALID[0]]

    def test_escaped_surrogate_pair_loads(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({**VALID[1], "junior": "正常😀"}) + "\n")  # "\ud83d\ude00"
        assert load_report_pairs(path).pairs[0].junior == "正常😀"

    def test_texts_load_nfc_normalized(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{"id": "a", "junior": "caf\u0065\u0301", "senior": "e\u0301te\u0301"}])
        pair = load_report_pairs(path).pairs[0]
        assert (pair.junior, pair.senior) == ("caf\u00e9", "\u00e9t\u00e9")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, VALID)
        ds = load_report_pairs(path)
        out = tmp_path / "out.jsonl"
        save_report_pairs(ds, out)
        assert load_report_pairs(out) == ds


class TestLoadSpanLabels:
    def test_cross_checks_span_count(self, tmp_path):
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影")])
        assert len(merge_reports(ds.pairs[0]).spans) == 1
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "a", "span_labels": [0]}])
        labels = load_span_labels(path, ds)
        assert labels["a"].span_labels == (0,)

    def test_unknown_keys_are_ignored_and_not_saved(self, tmp_path):
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影")])
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "a", "span_labels": [0], "annotator": "r-17"}])
        labels = load_span_labels(path, ds)
        assert labels == {"a": SpanLabelRecord((0,))}
        out = tmp_path / "out.jsonl"
        save_span_labels(labels, out)
        assert json.loads(out.read_text(encoding="utf-8")) == {"report_id": "a",
                                                               "span_labels": [0]}

    def test_count_mismatch_names_report(self, tmp_path):
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影")])
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "a", "span_labels": [0, 1]}])
        with pytest.raises(ValidationError, match="'a'"):
            load_span_labels(path, ds)

    def test_unknown_report_id(self, tmp_path):
        ds = Dataset([ReportPair("a", "x", "y")])
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "zzz", "span_labels": [1]}])
        with pytest.raises(ValidationError, match="zzz"):
            load_span_labels(path, ds)

    @pytest.mark.parametrize("report_id", BAD_REPORT_IDS)
    def test_bad_report_id_names_line(self, tmp_path, report_id):
        # a record holds no id, so the loader checks the line's id itself
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影")])
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({"report_id": "a", "span_labels": [0]}) + "\n"
                        + json.dumps({"report_id": report_id, "span_labels": [0]}) + "\n")
        with pytest.raises(ValidationError,
                           match=rf"labels\.jsonl:2: {re.escape(id_message(report_id))}$"):
            load_span_labels(path, ds)

    def test_duplicate_report_id_names_line(self, tmp_path):
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影")])
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "a", "span_labels": [0]},
                           {"report_id": "a", "span_labels": [1]}])
        with pytest.raises(ValidationError, match=r"labels\.jsonl:2: duplicate report id 'a'"):
            load_span_labels(path, ds)

    @pytest.mark.parametrize("values", [[True], [False], [0.0], [1.0], ["1"], [None], "0",
                                        {"0": 1}, 1])
    def test_off_schema_span_labels_name_line(self, tmp_path, values):
        ds = Dataset([ReportPair("a", "肺左叶影", "肺双叶影"), ReportPair("b", "x", "y")])
        path = tmp_path / "labels.jsonl"
        write_lines(path, [{"report_id": "b", "span_labels": [1]},
                           {"report_id": "a", "span_labels": values}])
        with pytest.raises(ValidationError,
                           match=r"labels\.jsonl:2: 'span_labels' must be a list of 0 and 1"):
            load_span_labels(path, ds)

    def test_empty_label_file(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text("")
        assert load_span_labels(path, Dataset([])) == {}

    @pytest.mark.parametrize("report_id", BAD_REPORT_IDS)
    def test_save_rejects_a_key_that_is_not_a_report_id(self, tmp_path, report_id):
        labels = {"a": SpanLabelRecord((0,)), report_id: SpanLabelRecord((1,))}
        path = tmp_path / "labels.jsonl"
        with pytest.raises(ValidationError, match=f"^{re.escape(id_message(report_id))}$"):
            save_span_labels(labels, path)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        cfg = SynthesisConfig(n_reports=30, seed=1)
        ds, labels = generate_synthetic_corpus(cfg)
        path = tmp_path / "labels.jsonl"
        save_span_labels(labels, path)
        assert load_span_labels(path, ds) == labels


# Each value below is one a pair or span-label file may not hold; the records
# reject it too, so spanqa never builds a record it cannot save and load back.
OFF_SCHEMA_PAIR_VALUES = [
    ("label", True), ("label", False), ("label", 1.0), ("label", 0.0), ("label", "1"),
    ("label", [1]), ("label", 2), ("label", np.int64(1)), ("section", 3),
    ("section", ["chest"]), ("section", True), ("section", {"name": "chest"}), ("id", 5),
    ("id", None), ("junior", 5), ("junior", ["x"]), ("senior", 5), ("senior", None),
]
# JSON's "\ud800" escape decodes to a lone surrogate, which no UTF-8 write can encode
LONE_SURROGATE_PAIR_VALUES = [("id", "a\ud800"), ("junior", "x\ud800"),
                              ("senior", "\udfffy"), ("section", "\ud800")]
OFF_SCHEMA_SPAN_LABELS = [(True,), (False,), (0.0,), (1.0,), ("1",), (None,), (2,),
                          (np.int64(1),), (0, 1.0)]


class TestRecordsCheckTheirFields:
    @pytest.mark.parametrize("field, value", OFF_SCHEMA_PAIR_VALUES)
    def test_off_schema_pair_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValidationError, match=f"^'{field}' must be"):
            ReportPair(**{**VALID[1], field: value})

    @pytest.mark.parametrize("field, value", LONE_SURROGATE_PAIR_VALUES)
    def test_lone_surrogate_pair_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValidationError, match=f"^'{field}' holds a lone surrogate"):
            ReportPair(**{**VALID[1], field: value})

    @pytest.mark.parametrize("field", ["junior", "senior"])
    def test_empty_text_rejected_at_construction(self, field):
        with pytest.raises(ValidationError,
                           match="^report 'b': junior and senior must be non-empty$"):
            ReportPair(**{**VALID[1], field: ""})

    def test_duplicate_id_rejected_in_memory(self):
        with pytest.raises(ValidationError, match="^duplicate report id 'a'$"):
            Dataset([ReportPair(**VALID[0]), ReportPair(**VALID[1]), ReportPair(**VALID[0])])

    @pytest.mark.parametrize("values", OFF_SCHEMA_SPAN_LABELS)
    def test_off_schema_span_labels_rejected_at_construction(self, values):
        with pytest.raises(ValidationError, match="^'span_labels' must be a list of 0 and 1"):
            SpanLabelRecord(values)

    @pytest.mark.parametrize("field, value", OFF_SCHEMA_PAIR_VALUES
                             + LONE_SURROGATE_PAIR_VALUES + [
        ("label", 0), ("label", 1), ("label", None), ("section", None), ("section", ""),
        ("section", "腹部"), ("id", ""), ("id", "报告-1"),
    ])
    def test_a_pair_that_constructs_saves_and_loads_back_equal(self, tmp_path, field, value):
        try:
            dataset = Dataset([ReportPair(**{**VALID[1], field: value})])
        except ValidationError:
            return
        path = tmp_path / "pairs.jsonl"
        save_report_pairs(dataset, path)
        assert load_report_pairs(path) == dataset

    @pytest.mark.parametrize("values", OFF_SCHEMA_SPAN_LABELS + [(0,), (1,), ()])
    def test_a_span_label_record_that_constructs_saves_and_loads_back_equal(self, tmp_path,
                                                                            values):
        try:
            labels = {"a": SpanLabelRecord(values)}
        except ValidationError:
            return
        dataset = Dataset([ReportPair("a", "肺左叶影", "肺双叶影") if values
                           else ReportPair("a", "正常", "正常")])
        path = tmp_path / "labels.jsonl"
        save_span_labels(labels, path)
        assert load_span_labels(path, dataset) == labels


def trivial_dataset(n_qualified, n_unqualified):
    pairs = [ReportPair(f"q{i}", "aa", "ab", label=1) for i in range(n_qualified)]
    pairs += [ReportPair(f"u{i}", "aa", "ab", label=0) for i in range(n_unqualified)]
    return Dataset(pairs)


class TestCorpusScale:
    def test_hospital_scale_load(self, tmp_path):
        # 12,013 records, 10,290 qualified / 1,723 unqualified
        path = tmp_path / "pairs.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(12013):
                rec = {"id": f"r{i}", "junior": "aa", "senior": "ab",
                       "label": 1 if i < 10290 else 0}
                fh.write(json.dumps(rec) + "\n")
        ds = load_report_pairs(path)
        assert len(ds) == 12013
        assert ds.label_counts() == (10290, 1723, 0)

    def test_99_manual_labels_across_sections(self, tmp_path):
        # 28 abdomen, 30 neurology, 41 chest manually labeled reports
        ds, truth = generate_synthetic_corpus(
            SynthesisConfig(n_reports=600, benign_edit_rate=0.2,
                            harmful_edit_rate=0.2, seed=13))
        wanted = {"abdomen": 28, "neurology": 30, "chest": 41}
        chosen = []
        for section, count in wanted.items():
            eligible = [p for p in ds
                        if p.section == section and truth[p.id].span_labels]
            assert len(eligible) >= count
            chosen += eligible[:count]
        path = tmp_path / "labels.jsonl"
        save_span_labels({p.id: truth[p.id] for p in chosen}, path)
        labels = load_span_labels(path, ds)
        assert len(labels) == 99


class TestSplitDataset:
    def test_paper_sized_split(self):
        ds = trivial_dataset(10290, 1723)
        train, test = split_dataset(ds, test_fraction=1202 / 12013, seed=0)
        assert (len(train), len(test)) == (10811, 1202)

    def test_deterministic(self):
        ds = trivial_dataset(40, 10)
        a = split_dataset(ds, 0.2, seed=7)
        b = split_dataset(ds, 0.2, seed=7)
        assert [p.id for p in a[0]] == [p.id for p in b[0]]
        assert [p.id for p in a[1]] == [p.id for p in b[1]]

    def test_exact_partition(self):
        ds = trivial_dataset(8, 2)
        train, test = split_dataset(ds, 0.2, seed=3)
        assert len(test) == 2
        ids = {p.id for p in train} | {p.id for p in test}
        assert ids == {p.id for p in ds}
        assert len(train) + len(test) == len(ds)

    def test_stratified_within_rounding_for_all_seeds(self):
        rng = random.Random(0)
        for _ in range(30):
            nq, nu = rng.randint(2, 60), rng.randint(2, 60)
            frac = rng.uniform(0.1, 0.5)
            seed = rng.randint(0, 10**6)
            train, test = split_dataset(trivial_dataset(nq, nu), frac, seed)
            tq = sum(1 for p in test if p.label == 1)
            tu = sum(1 for p in test if p.label == 0)
            assert tq == round(frac * nq)
            assert tu == round(frac * nu)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            split_dataset(Dataset([ReportPair("a", "x", "y")]), 0.5, 0)

    def test_bad_fraction(self):
        for fraction in (1.5, 0, -0.2, float("nan"), "0.2", True, None):
            with pytest.raises(ValidationError, match="^test_fraction must be"):
                split_dataset(trivial_dataset(2, 2), fraction, 0)

    @pytest.mark.parametrize("seed", [None, "7", 7.0, [7], True, -1])
    def test_seed_must_be_a_count(self, seed):
        # random.Random(None) seeds from the OS: the split would differ per call
        with pytest.raises(ValidationError, match="^seed must be"):
            split_dataset(trivial_dataset(2, 2), 0.5, seed)


class TestSyntheticCorpus:
    def test_deterministic(self):
        cfg = SynthesisConfig(n_reports=50, seed=7)
        a = generate_synthetic_corpus(cfg)
        b = generate_synthetic_corpus(cfg)
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=20, seed=1))
        b, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=20, seed=2))
        assert [p.junior for p in a] != [p.junior for p in b]

    def test_zero_harmful_rate_means_all_qualified(self):
        ds, labels = generate_synthetic_corpus(
            SynthesisConfig(n_reports=60, benign_edit_rate=0.3, harmful_edit_rate=0.0, seed=2))
        assert all(p.label == 1 for p in ds)
        assert all(l == 1 for rec in labels.values() for l in rec.span_labels)

    def test_report_label_is_min_of_span_labels(self):
        ds, labels = generate_synthetic_corpus(
            SynthesisConfig(n_reports=120, benign_edit_rate=0.1, harmful_edit_rate=0.1, seed=5))
        for p in ds:
            assert p.label == min(labels[p.id].span_labels, default=1)

    def test_span_labels_align_with_merge(self):
        ds, labels = generate_synthetic_corpus(
            SynthesisConfig(n_reports=80, benign_edit_rate=0.1, harmful_edit_rate=0.1, seed=9))
        for p in ds:
            assert len(merge_reports(p).spans) == len(labels[p.id].span_labels)

    def test_single_laterality_flip_unqualifies(self):
        # hunt for a pair whose only edit is a laterality revision
        ds, labels = generate_synthetic_corpus(
            SynthesisConfig(n_reports=300, benign_edit_rate=0.0, harmful_edit_rate=0.04, seed=11))
        hits = [p for p in ds
                if labels[p.id].span_labels == (0,)
                and merge_reports(p).spans[0].kind == "revision"
                and merge_reports(p).spans[0].deleted in ("左", "右", "双")]
        assert hits, "expected at least one single-flip report"
        for p in hits:
            assert p.label == 0

    @pytest.mark.parametrize("field, value", [
        ("n_reports", 0),
        ("n_reports", 2.5),
        ("n_reports", True),
        ("avg_length", 0),
        ("avg_length", -3),
        ("avg_length", 150.0),
        ("avg_length", "150"),
    ])
    def test_bad_size_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            SynthesisConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("benign_edit_rate", True),
        ("benign_edit_rate", -0.1),
        ("benign_edit_rate", float("nan")),
        ("harmful_edit_rate", "0.1"),
        ("harmful_edit_rate", 1.5),
        ("harmful_edit_rate", None),
    ])
    def test_bad_rate_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            SynthesisConfig(**{field: value})

    @pytest.mark.parametrize("seed", [None, "7", 7.0, [7], True, -1])
    def test_seed_must_be_a_count(self, seed):
        # random.Random(None) seeds from the OS: the corpus would differ per call
        with pytest.raises(ValidationError, match="^seed must be"):
            SynthesisConfig(seed=seed)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisConfig(n_reports=5, template_vocab=())

    @pytest.mark.parametrize("kind, choices, message", [
        ("swap", ("a", "b"), "unknown slot kind 'swap'"),
        ("style", ("a",), "style slot needs at least 2 alternatives"),
        ("risk", (), "risk slot needs at least 2 alternatives"),
        ("fn", (), "slot needs at least one choice"),
        # an edit would have no other alternative to draw
        ("style", ("甲", "甲"), "style slot alternatives must differ, got ('甲', '甲')"),
        ("risk", ("左", 3), "slot choices must be non-empty strings, got 3"),
        # omitting an empty word would be an edit that changes no character
        ("fn", ("",), "slot choices must be non-empty strings, got ''"),
        ("ins", ["均"], "slot choices must be a tuple, got ['均']"),
    ])
    def test_bad_slot_rejected(self, kind, choices, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Slot(kind, choices)

    @pytest.mark.parametrize("section, parts, message", [
        ("chest", ("两肺", 3), "'parts' must hold only strings and Slots, got 3"),
        ("chest", ["两肺"], "'parts' must be a tuple, got ['两肺']"),
        # sorting a vocabulary's sections would compare None with a string
        (None, ("两肺",), "'section' must be a string, got None"),
    ])
    def test_bad_template_rejected_naming_the_field(self, section, parts, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SentenceTemplate(section, parts)

    @pytest.mark.parametrize("vocab, message", [
        (("两肺纹理清晰",), "template_vocab must hold only SentenceTemplates, got '两肺纹理清晰'"),
        ((None,), "template_vocab must hold only SentenceTemplates, got None"),
        ([], "template_vocab must be a non-empty tuple, got []"),
    ])
    def test_bad_template_vocab_rejected_naming_the_field(self, vocab, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SynthesisConfig(template_vocab=vocab)

    def test_each_report_is_rendered_and_merged_once(self, monkeypatch):
        merged = []

        def counting_merge(pair):
            merged.append(pair.id)
            return merge_reports(pair)

        monkeypatch.setattr(diffmerge, "merge_reports", counting_merge)
        generate_synthetic_corpus(SynthesisConfig(n_reports=40, seed=5))
        assert merged == [f"syn-{i:05d}" for i in range(40)]

    def test_edits_that_fuse_into_one_span_fail_naming_the_report(self):
        # two adjacent style slots, both always edited, merge into one span
        # for two edit labels
        fused = SentenceTemplate("chest", (Slot("style", ("甲", "乙")),
                                           Slot("style", ("丙", "丁"))))
        cfg = SynthesisConfig(n_reports=1, benign_edit_rate=1.0, template_vocab=(fused,))
        with pytest.raises(ValidationError,
                           match="^report 'syn-00000' merges into 1 spans but has 2 span labels$"):
            generate_synthetic_corpus(cfg)

    def test_an_edit_that_splits_into_two_spans_fails_naming_the_report(self):
        # the alternatives share their middle character, which the merge keeps
        split = SentenceTemplate("chest", ("两肺", Slot("style", ("甲乙丙", "丁乙戊"))))
        cfg = SynthesisConfig(n_reports=3, benign_edit_rate=1.0, template_vocab=(split,))
        with pytest.raises(ValidationError,
                           match="^report 'syn-00000' merges into 2 spans but has 1 span labels$"):
            generate_synthetic_corpus(cfg)

    def test_avg_length_near_default(self):
        ds, _ = generate_synthetic_corpus(SynthesisConfig(n_reports=40, seed=4))
        mean = sum(len(p.senior) for p in ds) / len(ds)
        assert 100 <= mean <= 200
