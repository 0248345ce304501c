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

  PrecomputedEncoder - matrices loaded from a JSON-Lines file, for plugging
      in contextual embeddings computed elsewhere; spans are pooled from them.
      fileio.read_jsonl reads the file and names file and line in each error;
      a bad header {"dim": d} is a ParseError, a bad row a ValidationError.

The precomputed backend pools with `encode`, its per-character matrix, and
`pool_span`, the mean over a span. The hashed backend's pooling is tested
against `pool_span` over the matrix of `tests/reference.py::reference_encode`.
"""

from __future__ import annotations

import os

import numpy as np

from .diffmerge import MixedReport
from .fileio import read_jsonl
from .types import ParseError, ValidationError, _check_text, check_array, check_count, check_size


def pool_span(H: np.ndarray, span_range: tuple[int, int]) -> np.ndarray:
    """Arithmetic mean of the embedding rows in [start, end)."""
    start, end = span_range
    if not 0 <= start < end <= H.shape[0]:
        raise ValidationError(f"span range [{start}, {end}) out of bounds for {H.shape[0]} rows")
    return H[start:end].mean(axis=0)


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
    """Per-report embedding matrices keyed by report id.

    File format: JSON-Lines, first line {"dim": d}, then one
    {"report_id": ..., "rows": [[...], ...]} record per report. `source_path`
    is the absolute path of the file the matrices came from ("" when built in
    memory); a saved model records it so that it reloads, from any working
    directory, without naming the file again.
    """

    name = "precomputed"

    def __init__(self, dim: int, matrices: dict[str, np.ndarray], source_path: str = ""):
        """Each matrix holds finite real numbers, one row of `dim` per character."""
        self.dim = check_count("dim", dim, 1)
        self.source_path = source_path
        self.matrices = {rid: self._matrix(rid, rows) for rid, rows in matrices.items()}

    def _matrix(self, rid, rows) -> np.ndarray:
        """Report rid's rows, checked, as a float64 matrix; rid obeys the report-id rule."""
        _check_text("report_id", rid)
        try:
            matrix = np.asarray(rows)
        except ValueError:  # rows of unequal lengths
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValidationError(f"report {rid!r} rows are not {self.dim}-dimensional")
        return check_array(f"report {rid!r} matrix", matrix, matrix.shape)

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
            return rec["report_id"], enc._matrix(rec["report_id"], rec["rows"])

        matrices = read_jsonl(path, build)
        if enc is None:
            raise ParseError(f"{path}: empty embeddings file (no header record)")
        enc.matrices = matrices
        return enc

    def encode(self, mixed: MixedReport) -> np.ndarray:
        matrix = self.matrices.get(mixed.report_id)
        if matrix is None:
            raise ValidationError(f"no precomputed embeddings for report {mixed.report_id!r}")
        if matrix.shape[0] != len(mixed.chars):
            raise ValidationError(
                f"report {mixed.report_id!r}: {matrix.shape[0]} embedding rows "
                f"for {len(mixed.chars)} characters")
        return matrix

    def span_embeddings(self, mixed: MixedReport) -> np.ndarray:
        H = self.encode(mixed)
        return np.array([pool_span(H, span.range) for span in mixed.spans]).reshape(
            len(mixed.spans), self.dim)
