"""Shared domain records: report pairs, datasets, and span-label files."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field


class ValidationError(ValueError):
    """Input violates a documented invariant (bad label, duplicate id, ...)."""


class ParseError(ValueError):
    """A line of an input file could not be decoded into a record."""


@dataclass(frozen=True)
class ReportPair:
    """A draft report and its revised version, plus an optional QA label.

    `label` is 1 for qualified, 0 for unqualified, None when unreviewed.
    Texts are NFC-normalized character sequences.
    """

    id: str
    junior: str
    senior: str
    label: int | None = None
    section: str | None = None

    def __post_init__(self):
        if not self.junior or not self.senior:
            raise ValidationError(f"report {self.id!r}: junior and senior must be non-empty")
        if self.label is not None and self.label not in (0, 1):
            raise ValidationError(f"report {self.id!r}: label must be 0 or 1, got {self.label!r}")

    @staticmethod
    def normalized(id, junior, senior, label=None, section=None) -> "ReportPair":
        return ReportPair(
            id=id,
            junior=unicodedata.normalize("NFC", junior),
            senior=unicodedata.normalize("NFC", senior),
            label=label,
            section=section,
        )


@dataclass
class Dataset:
    """An ordered collection of report pairs with unique ids."""

    pairs: list[ReportPair] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for p in self.pairs:
            if p.id in seen:
                raise ValidationError(f"duplicate report id {p.id!r}")
            seen.add(p.id)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def label_counts(self) -> tuple[int, int, int]:
        """(qualified, unqualified, unlabeled) counts."""
        q = sum(1 for p in self.pairs if p.label == 1)
        u = sum(1 for p in self.pairs if p.label == 0)
        return q, u, len(self.pairs) - q - u


@dataclass(frozen=True)
class SpanLabelRecord:
    """Manual per-span labels for one report, in mixed-report span order."""

    report_id: str
    span_labels: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.span_labels):
            raise ValidationError(f"report {self.report_id!r}: span labels must be 0 or 1")


SpanLabelSet = dict[str, SpanLabelRecord]
