"""Report-pair ingestion, dataset splitting, and synthetic corpus generation.

File formats (UTF-8 JSON-Lines, one object per line):
  pair file:       {"id": str, "junior": str, "senior": str,
                    "label": 0|1|null, "section": str|null}
  span-label file: {"report_id": str, "span_labels": [0|1, ...]}

The records check their fields' types and values; the loaders check only
what a file can get wrong (missing keys, span_labels not a list, lone
surrogates, duplicate and unknown ids, span counts), naming file and line.

The synthetic generator builds a revised ("senior") report from sentence
templates, then derives the draft ("junior") by injecting benign edits
(stylistic swaps, function-word slips) and/or harmful edits (laterality
flips, negation flips, dropped findings). Every injected edit's span label
is recorded as ground truth, and each generated pair is checked against the
merger so that span labels line up one-to-one with merged spans.
"""

from __future__ import annotations

import logging
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from . import diffmerge
from .fileio import has_lone_surrogate, read_jsonl, write_jsonl
from .types import (Dataset, ParseError, ReportPair, SpanLabelRecord, SpanLabelSet,
                    ValidationError, check_count, check_number)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# JSON-Lines IO


def load_report_pairs(path) -> Dataset:
    """Load a pair file, preserving input order. NFC-normalizes all text."""
    pairs = []
    seen = set()
    for lineno, rec in read_jsonl(path):
        try:
            for key in ("id", "junior", "senior", "section"):
                if isinstance(rec.get(key), str) and has_lone_surrogate(rec[key]):
                    raise ValidationError(f"{key!r} holds a lone surrogate, "
                                          "which UTF-8 cannot encode")
            pair = ReportPair(
                id=rec["id"],
                junior=unicodedata.normalize("NFC", rec["junior"]),
                senior=unicodedata.normalize("NFC", rec["senior"]),
                label=rec.get("label"),
                section=rec.get("section"),
            )
        except KeyError as err:
            raise ParseError(f"{path}:{lineno}: missing field {err}") from None
        except (ValidationError, TypeError) as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
        if pair.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate report id {pair.id!r}")
        seen.add(pair.id)
        pairs.append(pair)
    if not pairs:
        log.warning("loaded empty dataset from %s", path)
    dataset = Dataset(pairs)
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
    labels: SpanLabelSet = {}
    for lineno, rec in read_jsonl(path):
        try:
            values = rec["span_labels"]
            if not isinstance(values, list):
                raise ValidationError(f"'span_labels' must be a list of 0 and 1, got {values!r}")
            record = SpanLabelRecord(rec["report_id"], tuple(values))
        except KeyError as err:
            raise ParseError(f"{path}:{lineno}: missing field {err}") from None
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        pair = known.get(record.report_id)
        if pair is None:
            raise ValidationError(
                f"{path}:{lineno}: unknown report id {record.report_id!r}")
        if record.report_id in labels:
            raise ValidationError(
                f"{path}:{lineno}: duplicate report id {record.report_id!r}")
        n_spans = len(diffmerge.merge_reports(pair).spans)
        if n_spans != len(record.span_labels):
            raise ValidationError(
                f"{path}:{lineno}: report {record.report_id!r} merges into "
                f"{n_spans} spans but has {len(record.span_labels)} labels")
        labels[record.report_id] = record
    if not labels:
        log.warning("loaded empty span-label set from %s", path)
    return labels


def save_span_labels(labels: SpanLabelSet, path) -> None:
    write_jsonl(path, ({"report_id": record.report_id, "span_labels": list(record.span_labels)}
                       for record in labels.values()))


# ---------------------------------------------------------------------------
# Splitting


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class test counts are round(fraction * n_class)."""
    check_number("test_fraction", test_fraction)
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
        if self.kind in ("style", "risk") and len(self.choices) < 2:
            raise ValidationError(f"{self.kind} slot needs at least 2 alternatives")
        if not self.choices:
            raise ValidationError("slot needs at least one choice")

    @property
    def benign(self) -> bool:
        return self.kind in ("style", "fn", "ins")


@dataclass(frozen=True)
class SentenceTemplate:
    section: str
    parts: tuple  # str literals interleaved with Slots


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
    avg_length: int = 150  # target characters per revised report
    id_prefix: str = "syn"

    def __post_init__(self):
        for name in ("n_reports", "avg_length"):
            check_count(name, getattr(self, name), 1)
        for name in ("benign_edit_rate", "harmful_edit_rate"):
            rate = getattr(self, name)
            check_number(name, rate)
            if not 0 <= rate <= 1:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if not self.template_vocab:
            raise ValidationError("template_vocab must not be empty")


def _render_report(templates, rng, cfg):
    """One attempt: returns (junior, senior, edit labels in rendering order)."""
    order = list(templates)
    rng.shuffle(order)
    junior_parts: list[str] = []
    senior_parts: list[str] = []
    edit_labels: list[int] = []
    senior_len = 0
    for tpl in order:
        if senior_len >= cfg.avg_length:
            break
        for part in tpl.parts:
            if isinstance(part, str):
                junior_parts.append(part)
                senior_parts.append(part)
                continue
            slot = part
            rate = cfg.benign_edit_rate if slot.benign else cfg.harmful_edit_rate
            edited = rng.random() < rate
            if slot.kind in ("style", "risk"):
                senior_choice = rng.choice(slot.choices)
                junior_choice = senior_choice
                if edited:
                    junior_choice = rng.choice([c for c in slot.choices if c != senior_choice])
                senior_parts.append(senior_choice)
                junior_parts.append(junior_choice)
            elif slot.kind in ("fn", "find"):
                text = rng.choice(slot.choices)
                senior_parts.append(text)
                if not edited:
                    junior_parts.append(text)
            else:  # ins
                word = rng.choice(slot.choices)
                if edited:
                    junior_parts.append(word)
            if edited:
                edit_labels.append(1 if slot.benign else 0)
        junior_parts.append("。")
        senior_parts.append("。")
        senior_len = sum(len(s) for s in senior_parts)
    return "".join(junior_parts), "".join(senior_parts), edit_labels


def generate_synthetic_corpus(config: SynthesisConfig) -> tuple[Dataset, SpanLabelSet]:
    """Deterministic synthetic corpus with span-level ground truth.

    Report label is 1 iff no harmful edit was injected; span labels are 1
    for benign edits and 0 for harmful ones, in mixed-report span order.
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
        for _ in range(50):
            section = rng.choice(sections)
            junior, senior, edit_labels = _render_report(by_section[section], rng, config)
            pair = ReportPair(report_id, junior, senior,
                              label=min(edit_labels, default=1), section=section)
            # Accept only when every injected edit maps to exactly one span;
            # char-level alignment can occasionally split or fuse edits.
            if len(diffmerge.merge_reports(pair).spans) == len(edit_labels):
                break
        else:
            raise ValidationError(
                f"could not render {report_id} with clean span alignment; "
                "check template_vocab for slots that collide with their context")
        pairs.append(pair)
        labels[report_id] = SpanLabelRecord(report_id, tuple(edit_labels))
    return Dataset(pairs), labels
