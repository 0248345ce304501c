"""Shared domain records: report pairs, datasets, and span-label files, and
the number check that the configuration records share."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field


class ValidationError(ValueError):
    """Input violates a documented invariant (bad label, duplicate id, ...)."""


class ParseError(ValueError):
    """A line of an input file could not be decoded into a record."""


def check_number(name: str, value, allow_inf: bool = False) -> None:
    """value must be a real number >= 0: finite, or +inf when allow_inf."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or value < 0 or (math.isinf(value) and not allow_inf):
        bound = "a number >= 0" if allow_inf else "a finite number >= 0"
        raise ValidationError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class ReportPair:
    """A draft report and its revised version, plus an optional QA label.

    `label` is 1 for qualified, 0 for unqualified, None when unreviewed.
    `load_report_pairs` NFC-normalizes the texts it loads; the record itself
    stores them as given.
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
