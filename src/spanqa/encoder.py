"""Span embeddings for mixed reports, through one call for every caller.

Training, the pseudo-label refresh, the threshold fit and classify_report all
turn spans into embeddings with the same call,

    S = backend.span_embeddings(mixed)     # one row per span of mixed.spans

so the scores a threshold is fitted on are, bit for bit, the scores it is
applied to. Both backends are frozen: training updates only the classifier,
and the hashed backend's table is read-only.

  HashedWindowEncoder - the baseline. A seeded random embedding table
      addressed by hashed character identity; each character's embedding is
      the mean of the table rows in a symmetric context window around it.
      Window and span pooling are both means, so the spans' embeddings are
      D @ table[rows], with rows the sorted table rows the spans read and D a
      dense n_spans x len(rows) weight matrix. D is summed in plain Python,
      which for a few short spans costs less than numpy's per-call overhead:
      each span's window characters are mapped to table rows once, and every
      character of the span adds its weight over a slice of that list. One
      np.array call then lays the per-span sums out as D.

  PrecomputedEncoder - one row per merged span, loaded from a JSON-Lines
      file, for plugging in contextual embeddings computed elsewhere. It
      pools nothing: the embedder pools each span as its model wants.
      fileio.read_jsonl reads the file and names file and line in each error;
      a bad header {"dim": d} is a ParseError, a bad record a ValidationError.

The hashed backend's pooling is tested against `tests/reference.py::pool_span`,
the mean over a span, of the matrix of `tests/reference.py::reference_encode`.
"""

from __future__ import annotations

import os

import numpy as np

from .diffmerge import MixedReport
from .fileio import read_jsonl
from .types import ParseError, ValidationError, _check_text, check_array, check_count, check_size


# Widest context window radius. A character's window spans 2 * window + 1
# characters, so 64 already covers most of an average (~150-character) report,
# and pooling a span makes one dict update per character per window slot,
# n_span_chars x (2 * window + 1) in all.
MAX_WINDOW = 64


class HashedWindowEncoder:
    name = "hashed-window"

    def __init__(self, dim: int = 64, window: int = 2, buckets: int = 4096, seed: int = 0,
                 table: np.ndarray | None = None):
        """The table is drawn from `seed` unless a buckets x dim `table` is given;
        the encoder, being frozen, holds a read-only view of it, and a given
        float64 array is neither copied nor made read-only. A table above
        MAX_ARRAY_VALUES values is refused before anything is sized."""
        self.dim = check_count("dim", dim, 1)
        self.window = check_count("window", window, 0, MAX_WINDOW)
        self.buckets = check_count("buckets", buckets, 1)
        check_size("buckets x dim table", buckets, dim)
        if table is None:
            table = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(buckets, dim))
        self.table = check_array("table", table, (buckets, dim)).view()
        self.table.flags.writeable = False

    def _span_design(self, mixed: MixedReport) -> tuple[np.ndarray, np.ndarray]:
        """Pooling structure of mixed.spans: (rows, D) with span embeddings
        equal to D @ table[rows].

        rows holds the sorted, unique table rows that the spans' context
        windows read; D is the n_spans x len(rows) matrix of pooling weights.
        Each character i of a span contributes 1 / (window size * span
        length) to every row in its clipped window. The characters a span's
        windows cover are mapped to table rows once, and the weights are
        summed in one dict per span (table row -> weight) span by span,
        character by character, window slot by window slot: np.bincount's
        order, so D equals the tests' vectorised construction bit for bit.
        """
        chars = mixed.chars
        m = len(chars)
        window, buckets = self.window, self.buckets
        coeffs = []
        for span in mixed.spans:
            start, end = span.start, span.end
            if not 0 <= start < end <= m:
                raise ValidationError(f"span range [{start}, {end}) out of bounds")
            length = end - start
            # table rows of the characters the span's windows cover, from `first` on
            first = start - window if start > window else 0
            ids = [ord(ch) % buckets for ch in chars[first:end + window]]
            coeff: dict[int, float] = {}
            get = coeff.get
            for i in range(start, end):
                lo = i - window if i > window else 0
                hi = i + window if i + window < m else m - 1
                weight = 1.0 / ((hi - lo + 1) * length)
                for row in ids[lo - first:hi - first + 1]:
                    coeff[row] = get(row, 0.0) + weight
            coeffs.append(coeff)
        rows = sorted(set().union(*coeffs))
        D = np.array([[coeff.get(row, 0.0) for row in rows] for coeff in coeffs])
        return np.array(rows, dtype=np.int64), D.reshape(len(coeffs), len(rows))

    def span_embeddings(self, mixed: MixedReport) -> np.ndarray:
        """n_spans x dim: the mean over each span of its characters' window
        means, computed as D @ table[rows] without the per-character matrix."""
        rows, D = self._span_design(mixed)
        return D @ self.table[rows]


class PrecomputedEncoder:
    """Span embeddings computed elsewhere, keyed by report id; it pools nothing.

    File format: JSON-Lines, first line {"dim": d}, then one {"report_id": ...,
    "ranges": [[start, end], ...], "rows": [[...], ...]} record per report: the
    ranges of its merged spans, as `spanqa merge` writes them, and one row per
    span. `source_path` is the absolute path of the file the records came from
    ("" when built in memory); a saved model records it so that it reloads,
    from any working directory, without naming the file again.
    """

    name = "precomputed"

    def __init__(self, dim: int, records: dict[str, tuple], source_path: str = ""):
        """records maps each report id to its (ranges, rows), checked by _record."""
        self.dim = check_count("dim", dim, 1)
        self.source_path = source_path
        self.records = {rid: self._record(rid, *record) for rid, record in records.items()}

    def _record(self, rid, ranges, rows) -> tuple[list[tuple[int, int]], np.ndarray]:
        """rid obeys the report-id rule; ranges is a list of [start, end] int
        pairs, each with previous end <= start < end; rows is a float64 matrix
        of finite reals, one row of `dim` per range."""
        _check_text("report_id", rid)
        checked, previous_end = [], 0
        for pair in ranges if isinstance(ranges, (list, tuple)) else [ranges]:
            # type(v) is int: no bool, float or numpy integer
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(v) is int for v in pair) and previous_end <= pair[0] < pair[1]):
                raise ValidationError(f"report {rid!r} range {pair!r} is not a [start, end] "
                                      f"pair of integers with {previous_end} <= start < end")
            checked.append((pair[0], pair[1]))
            previous_end = pair[1]
        if not checked and isinstance(rows, list) and not rows:  # a spanless report
            rows = np.empty((0, self.dim))
        return checked, check_array(f"report {rid!r} matrix", rows, (len(checked), self.dim))

    @classmethod
    def from_file(cls, path) -> "PrecomputedEncoder":
        """The encoder of an embeddings file: its first record is the header."""
        enc = None

        def build(rec):
            nonlocal enc
            if enc is None:
                try:
                    enc = cls(rec.get("dim"), {}, os.path.abspath(path))
                except ValidationError as err:
                    raise ParseError(f"header record: {err}") from None
                return None
            return rec["report_id"], enc._record(rec["report_id"], rec["ranges"], rec["rows"])

        records = read_jsonl(path, build)
        if enc is None:
            raise ParseError(f"{path}: empty embeddings file (no header record)")
        enc.records = records
        return enc

    def span_embeddings(self, mixed: MixedReport) -> np.ndarray:
        """The rows of mixed's report, whose ranges must equal mixed.spans'."""
        rid, source = mixed.report_id, self.source_path or "the in-memory embeddings"
        if rid not in self.records:
            raise ValidationError(f"no precomputed embeddings for report {rid!r} in {source}")
        ranges, rows = self.records[rid]
        merged = [span.range for span in mixed.spans]
        if ranges != merged:
            raise ValidationError(f"report {rid!r}: span ranges {ranges} in {source} differ "
                                  f"from the merge's {merged}")
        return rows
