"""Report-pair ingestion, dataset splitting, and synthetic corpus generation.

File formats (UTF-8 JSON-Lines, one object per line):
  pair file:       {"id": str, "junior": str, "senior": str,
                    "label": 0|1|null, "section": str|null}
  span-label file: {"report_id": str, "span_labels": [0|1, ...]}

The records check their fields' types and values, lone surrogates included.
Each loader gives fileio.read_jsonl its record rule, with the checks a file
needs (span_labels a list, types._check_text's id rule, a known id, the span
count); read_jsonl names file and line and rejects a missing key (ParseError)
and a repeated id (ValidationError). Other keys are ignored; a save drops them.

The synthetic generator builds a revised ("senior") report from sentence
templates, then derives the draft ("junior") by injecting benign edits
(stylistic swaps, function-word slips) and/or harmful edits (laterality
flips, negation flips, dropped findings). Every injected edit's span label
is recorded as ground truth. Each report is rendered once, and one whose
edits do not merge into one span each is refused, naming the report.
"""

from __future__ import annotations

import logging
import random
import unicodedata
from dataclasses import dataclass

from . import diffmerge
from .fileio import read_jsonl, write_jsonl
from .types import (Dataset, ReportPair, SpanLabelRecord, SpanLabelSet, ValidationError,
                    _check_text, check_count, check_fraction, check_number)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# JSON-Lines IO


def _nfc(text):
    """NFC form of a string; any other value is left for ReportPair to reject."""
    return unicodedata.normalize("NFC", text) if isinstance(text, str) else text


def load_report_pairs(path) -> Dataset:
    """Load a pair file, preserving input order. NFC-normalizes all text."""
    def build(rec):
        pair = ReportPair(id=rec["id"], junior=_nfc(rec["junior"]), senior=_nfc(rec["senior"]),
                          label=rec.get("label"), section=rec.get("section"))
        return pair.id, pair

    dataset = Dataset(list(read_jsonl(path, build).values()))
    if not dataset.pairs:
        log.warning("loaded empty dataset from %s", path)
    q, u, n = dataset.label_counts()
    log.info("loaded %d report pairs (%d qualified, %d unqualified, %d unlabeled)",
             len(dataset), q, u, n)
    return dataset


def save_report_pairs(dataset: Dataset, path) -> None:
    write_jsonl(path, ({"id": p.id, "junior": p.junior, "senior": p.senior,
                        "label": p.label, "section": p.section} for p in dataset))


def load_span_labels(path, dataset: Dataset) -> SpanLabelSet:
    """Load per-span labels and cross-check counts against the merger."""
    known = {p.id: p for p in dataset}

    def build(rec):
        values = rec["span_labels"]
        if not isinstance(values, list):
            raise ValidationError(f"'span_labels' must be a list of 0 and 1, got {values!r}")
        report_id = _check_text("report_id", rec["report_id"])
        record = SpanLabelRecord(tuple(values))
        pair = known.get(report_id)
        if pair is None:
            raise ValidationError(f"unknown report id {report_id!r}")
        record.check_span_count(report_id, len(diffmerge.merge_reports(pair).spans))
        return report_id, record

    labels = read_jsonl(path, build)
    if not labels:
        log.warning("loaded empty span-label set from %s", path)
    return labels


def save_span_labels(labels: SpanLabelSet, path) -> None:
    write_jsonl(path, ({"report_id": _check_text("report_id", report_id),
                        "span_labels": list(record.span_labels)}
                       for report_id, record in labels.items()))


# ---------------------------------------------------------------------------
# Splitting


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class test counts are round(fraction * n_class)."""
    check_number("test_fraction", test_fraction)
    check_count("seed", seed, 0)
    if not 0 < test_fraction < 1:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(dataset) < 2:
        raise ValidationError("cannot split a dataset with fewer than 2 reports")

    by_class: dict[object, list[str]] = {}
    for p in dataset:
        by_class.setdefault(p.label, []).append(p.id)

    rng = random.Random(seed)
    test_ids = set()
    for label in sorted(by_class, key=repr):
        ids = by_class[label]
        rng.shuffle(ids)
        test_ids.update(ids[: round(test_fraction * len(ids))])

    train = Dataset([p for p in dataset if p.id not in test_ids])
    test = Dataset([p for p in dataset if p.id in test_ids])
    return train, test


# ---------------------------------------------------------------------------
# Synthetic corpus


@dataclass(frozen=True)
class Slot:
    """One edit opportunity inside a sentence template.

    kind:
      style - benign: draft uses a different synonymous alternative
      fn    - benign: draft omits this function word
      ins   - benign: draft inserts an extra function word here
      risk  - harmful: draft uses a meaning-flipping alternative
      find  - harmful: draft omits this finding entirely
    """

    kind: str
    choices: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("style", "fn", "ins", "risk", "find"):
            raise ValidationError(f"unknown slot kind {self.kind!r}")
        if not isinstance(self.choices, tuple):
            raise ValidationError(f"slot choices must be a tuple, got {self.choices!r}")
        for choice in self.choices:  # an empty choice would inject an edit that changes nothing
            if not isinstance(choice, str) or not choice:
                raise ValidationError(f"slot choices must be non-empty strings, got {choice!r}")
        if self.kind in ("style", "risk") and len(self.choices) < 2:
            raise ValidationError(f"{self.kind} slot needs at least 2 alternatives")
        if self.kind in ("style", "risk") and len(set(self.choices)) < len(self.choices):
            raise ValidationError(
                f"{self.kind} slot alternatives must differ, got {self.choices!r}")
        if not self.choices:
            raise ValidationError("slot needs at least one choice")

    @property
    def benign(self) -> bool:
        return self.kind in ("style", "fn", "ins")


@dataclass(frozen=True)
class SentenceTemplate:
    section: str
    parts: tuple  # str literals interleaved with Slots

    def __post_init__(self):
        _check_text("section", self.section)
        if not isinstance(self.parts, tuple):
            raise ValidationError(f"'parts' must be a tuple, got {self.parts!r}")
        for part in self.parts:
            if not isinstance(part, (str, Slot)):
                raise ValidationError(f"'parts' must hold only strings and Slots, got {part!r}")


def _t(section, *parts):
    return SentenceTemplate(section, tuple(parts))


# Benign slots draw on stylistic/function characters, harmful slots on
# laterality/negation/measurement characters; the two vocabularies are kept
# character-disjoint so span embeddings of the two classes stay separable.
DEFAULT_TEMPLATES: tuple[SentenceTemplate, ...] = (
    _t("chest", "两肺纹理", Slot("style", ("清晰", "增多")), "，",
       Slot("ins", ("均", "稍")), "无实变影"),
    _t("chest", "心影大小", Slot("style", ("正常", "如常")), "，主动脉迂曲"),
    _t("chest", Slot("risk", ("左", "右", "双")), "肺门影", Slot("fn", ("稍",)), "浓"),
    _t("chest", "胸廓对称，肋骨走行", Slot("style", ("自然", "规整"))),
    _t("chest", "气管居中，纵隔", Slot("fn", ("均",)), "不宽"),
    _t("chest", Slot("find", ("肺野外带斑点状淡薄影",)), "，余实质尚好"),
    _t("chest", "膈面光滑，肋膈角", Slot("risk", ("锐利", "变钝"))),
    _t("chest", "胸膜腔未见积液征象"),
    _t("chest", "两肺野透亮度好，血管束走行可"),
    _t("chest", "主动脉结宽度可，心胸比例在范围内"),
    _t("abdomen", "肝脏形态", Slot("style", ("正常", "如常")), "，实质密度均匀"),
    _t("abdomen", "胆囊", Slot("style", ("不大", "如常")), "，壁厚薄均匀"),
    _t("abdomen", Slot("risk", ("左", "右", "双")), "肾盂", Slot("fn", ("稍",)), "扩张"),
    _t("abdomen", "脾脏大小密度", Slot("style", ("正常", "如常")), "，轮廓光整"),
    _t("abdomen", "胰腺走行自然，周围脂肪间隙", Slot("risk", ("存在", "模糊"))),
    _t("abdomen", Slot("find", ("肾盏内点状致密影，考虑小结石",)), "，余未残留阳性影"),
    _t("abdomen", "腹腔", Slot("ins", ("均", "的")), "无游离气体"),
    _t("abdomen", "胃肠道充盈好，未见梗阻征象"),
    _t("abdomen", "腹主动脉旁淋巴结无肿胀"),
    _t("abdomen", "膀胱充盈可，壁光滑连续"),
    _t("neurology", "脑实质密度", Slot("style", ("正常", "如常")), "，灰白质界限楚"),
    _t("neurology", Slot("risk", ("左", "右", "双")), "侧基底节区小点状低密度灶"),
    _t("neurology", "脑室系统形态", Slot("style", ("规整", "正常")), "，中线居中"),
    _t("neurology", "颅骨骨质", Slot("fn", ("均",)), "连续完好"),
    _t("neurology", "脑沟脑裂", Slot("style", ("清晰", "如常")), "，",
       Slot("ins", ("稍", "均")), "无加宽"),
    _t("neurology", Slot("find", ("额顶部硬膜下少量积液",)), "，余结构对称"),
    _t("neurology", "鞍区结构", Slot("risk", ("完好", "欠完好"))),
    _t("neurology", "垂体形态大小在范围内"),
    _t("neurology", "桥小脑角区未见占位灶"),
    _t("neurology", "颈内动脉虹吸段钙化斑点"),
)


@dataclass
class SynthesisConfig:
    n_reports: int = 500
    benign_edit_rate: float = 0.05
    harmful_edit_rate: float = 0.05
    template_vocab: tuple[SentenceTemplate, ...] = DEFAULT_TEMPLATES
    seed: int = 0
    # a cap, not a target: a report stops adding sentences once the revised
    # text has this many characters, and renders each of its section's
    # templates at most once, so longer reports need more templates
    avg_length: int = 150
    id_prefix: str = "syn"

    def __post_init__(self):
        for name, minimum in (("n_reports", 1), ("avg_length", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        for name in ("benign_edit_rate", "harmful_edit_rate"):
            check_fraction(name, getattr(self, name))
        if not isinstance(self.template_vocab, tuple) or not self.template_vocab:
            raise ValidationError(f"template_vocab must be a non-empty tuple, "
                                  f"got {self.template_vocab!r}")
        for tpl in self.template_vocab:
            if not isinstance(tpl, SentenceTemplate):
                raise ValidationError(f"template_vocab must hold only SentenceTemplates, "
                                      f"got {tpl!r}")


def _render_report(templates, rng, cfg):
    """Returns (junior, senior, edit labels in rendering order)."""
    order = list(templates)
    rng.shuffle(order)
    junior = senior = ""
    edit_labels: list[int] = []
    for tpl in order:
        if len(senior) >= cfg.avg_length:
            break
        for part in tpl.parts:
            if isinstance(part, str):
                junior += part
                senior += part
                continue
            slot = part
            rate = cfg.benign_edit_rate if slot.benign else cfg.harmful_edit_rate
            edited = rng.random() < rate
            if slot.kind in ("style", "risk"):
                senior_choice = rng.choice(slot.choices)
                junior_choice = senior_choice
                if edited:
                    junior_choice = rng.choice([c for c in slot.choices if c != senior_choice])
                senior += senior_choice
                junior += junior_choice
            elif slot.kind in ("fn", "find"):
                text = rng.choice(slot.choices)
                senior += text
                if not edited:
                    junior += text
            else:  # ins
                word = rng.choice(slot.choices)
                if edited:
                    junior += word
            if edited:
                edit_labels.append(1 if slot.benign else 0)
        junior += "。"
        senior += "。"
    return junior, senior, edit_labels


def generate_synthetic_corpus(config: SynthesisConfig) -> tuple[Dataset, SpanLabelSet]:
    """Deterministic synthetic corpus with span-level ground truth.

    Report label is 1 iff no harmful edit was injected; span labels are 1
    for benign edits and 0 for harmful ones, in mixed-report span order.
    Each report is rendered once; one whose edits do not merge into one span
    each (slots that split or fuse with their context) is refused, naming it.
    """
    rng = random.Random(config.seed)
    by_section: dict[str, list[SentenceTemplate]] = {}
    for tpl in config.template_vocab:
        by_section.setdefault(tpl.section, []).append(tpl)
    sections = sorted(by_section)

    pairs = []
    labels: SpanLabelSet = {}
    for i in range(config.n_reports):
        report_id = f"{config.id_prefix}-{i:05d}"
        section = rng.choice(sections)
        junior, senior, edit_labels = _render_report(by_section[section], rng, config)
        pair = ReportPair(report_id, junior, senior,
                          label=min(edit_labels, default=1), section=section)
        record = SpanLabelRecord(tuple(edit_labels))
        record.check_span_count(report_id, len(diffmerge.merge_reports(pair).spans))
        pairs.append(pair)
        labels[report_id] = record
    return Dataset(pairs), labels
