"""Shared domain records: report pairs, datasets, and span-label files, and
the number and count checks that the configuration records share. A record's
fields obey the same type and value rules as the files the loaders read."""

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


def check_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """value must be an integer (never a bool) in [minimum, maximum]; returns it."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value!r}")
    return value


def _is_bit(value) -> bool:  # exactly the int 0 or 1: no bool, float or numpy int
    return type(value) is int and value in (0, 1)


@dataclass(frozen=True)
class ReportPair:
    """A draft report and its revised version, plus an optional QA label.

    `label` is 1 for qualified, 0 for unqualified, None when unreviewed.
    `load_report_pairs` NFC-normalizes the texts it loads and rejects lone
    surrogates; the record itself stores the texts as given.
    """

    id: str
    junior: str
    senior: str
    label: int | None = None
    section: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValidationError(f"'id' must be a string, got {self.id!r}")
        if not self.junior or not self.senior:
            raise ValidationError(f"report {self.id!r}: junior and senior must be non-empty")
        if self.label is not None and not _is_bit(self.label):
            raise ValidationError(f"'label' must be 0, 1 or null, got {self.label!r}")
        if self.section is not None and not isinstance(self.section, str):
            raise ValidationError(f"'section' must be a string or null, got {self.section!r}")


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
        if not isinstance(self.report_id, str):
            raise ValidationError(f"'report_id' must be a string, got {self.report_id!r}")
        if not all(_is_bit(v) for v in self.span_labels):
            raise ValidationError(f"'span_labels' must be a list of 0 and 1, got "
                                  f"{list(self.span_labels)!r} (report {self.report_id!r})")


SpanLabelSet = dict[str, SpanLabelRecord]
