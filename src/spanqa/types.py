"""Shared domain records (report pairs, datasets, span-label files) and the
checks that records, configurations and models share: a number, a count, an
array size, a number in [0, 1], an array of bounded finite reals, and a lone
surrogate. A record's fields obey the same type and value rules as the files
the loaders read. A span-label record owns its two rules, for the loader and
the trainer alike: 0/1 labels, and one label per span of its report's merge.
_check_text owns the report-id rule of all four JSON-Lines files, and
_is_bit the 0/1 rule of a label, a span label and a prediction's verdict."""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented invariant (bad label, duplicate id, ...)."""


class ParseError(ValueError):
    """A line of an input file could not be decoded into a record."""


def check_number(name: str, value, allow_inf: bool = False) -> None:
    """value must be a real number >= 0: finite and in the float range, or +inf when allow_inf."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not (0 <= value <= sys.float_info.max or (allow_inf and value == math.inf)):
        bound = "a finite number >= 0 or inf" if allow_inf else "a finite number >= 0"
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


# Most values a parameter array may hold: 2**27 float64 values take 1 GiB.
MAX_ARRAY_VALUES = 2**27

# Largest magnitude an array value may have. Scoring multiplies span
# embeddings S by w1.T: with |S| and |w1| at most 1e150 and dim at most
# MAX_ARRAY_VALUES, each product sums at most 2**27 * 1e300 ~ 1.3e308, below
# the float64 maximum (~1.8e308), so it cannot overflow. Pooled embeddings are
# means of table or matrix rows, so they stay within the bound too.
MAX_ARRAY_MAGNITUDE = 1e150


def check_size(name: str, rows: int, cols: int) -> None:
    """A rows x cols array must hold at most MAX_ARRAY_VALUES values."""
    if rows * cols > MAX_ARRAY_VALUES:
        raise ValidationError(f"{name} of {rows} x {cols} values is above the cap of "
                              f"{MAX_ARRAY_VALUES} (1 GiB of float64)")


def check_fraction(name: str, value) -> float:
    """value must be a real number in [0, 1], so never a bool or NaN; returns it as a float."""
    if type(value) is float and 0.0 <= value <= 1.0:  # the common case skips the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise ValidationError(f"{name} must be a number in [0, 1], got {value!r}")
    return float(value)


def check_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float64 array of finite reals (no bool or complex) at most
    MAX_ARRAY_MAGNITUDE in magnitude, exactly `shape`; a float64 array is
    returned uncopied."""
    try:
        arr = np.asarray(value)
    except ValueError:  # nested lists of unequal lengths
        raise ValidationError(f"{name} is ragged, expected shape {list(shape)}") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} has dtype {arr.dtype}, expected real numbers")
    if arr.shape != shape:
        raise ValidationError(f"{name} has shape {list(arr.shape)}, expected {list(shape)}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} holds non-finite values")
    if arr.size and max(arr.max(), -arr.min()) > MAX_ARRAY_MAGNITUDE:  # no copy of arr
        raise ValidationError(f"{name} holds values above {MAX_ARRAY_MAGNITUDE:g} in magnitude")
    return arr


_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(text: str) -> bool:
    """Whether text holds a lone surrogate: JSON's \\ud800 escapes let a read
    produce one, and no UTF-8 write can encode it."""
    return _SURROGATE.search(text) is not None


def _check_text(name: str, value, kind: str = "a string") -> str:
    """value, which must be a str that a UTF-8 file can hold: no lone surrogate."""
    if not isinstance(value, str):
        raise ValidationError(f"{name!r} must be {kind}, got {value!r}")
    if has_lone_surrogate(value):
        raise ValidationError(f"{name!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _is_bit(value) -> bool:  # exactly the int 0 or 1: no bool, float or numpy int
    return type(value) is int and value in (0, 1)


@dataclass(frozen=True)
class ReportPair:
    """A draft report and its revised version, plus an optional QA label.

    `label` is 1 for qualified, 0 for unqualified, None when unreviewed.
    `load_report_pairs` NFC-normalizes the texts it loads; the record itself
    stores the texts as given.
    """

    id: str
    junior: str
    senior: str
    label: int | None = None
    section: str | None = None

    def __post_init__(self):
        _check_text("id", self.id)
        _check_text("junior", self.junior)
        _check_text("senior", self.senior)
        if not self.junior or not self.senior:
            raise ValidationError(f"report {self.id!r}: junior and senior must be non-empty")
        if self.label is not None and not _is_bit(self.label):
            raise ValidationError(f"'label' must be 0, 1 or null, got {self.label!r}")
        if self.section is not None:
            _check_text("section", self.section, "a string or null")


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

    span_labels: tuple[int, ...]

    def __post_init__(self):
        if not all(_is_bit(v) for v in self.span_labels):
            raise ValidationError(f"'span_labels' must be a list of 0 and 1, got "
                                  f"{list(self.span_labels)!r}")

    def check_span_count(self, report_id: str, n_spans: int) -> None:
        """The record must hold one label per span of its report's merge."""
        if len(self.span_labels) != n_spans:
            raise ValidationError(f"report {report_id!r} merges into {n_spans} spans but has "
                                  f"{len(self.span_labels)} span labels")


SpanLabelSet = dict[str, SpanLabelRecord]  # by report id, which the records do not repeat
