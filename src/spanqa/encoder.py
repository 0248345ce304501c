"""Span embeddings for mixed reports, through one call for every caller.

Training, the pseudo-label refresh, the threshold fit and classify_report all
turn spans into embeddings with the same call,

    S = backend.span_embeddings(mixed, ranges)     # n_spans x dim

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

`encode` and `pool_span` give the per-character matrix and the mean over a
span; the precomputed backend pools with them, and they are the reference the
hashed backend's pooling is tested against.
"""

from __future__ import annotations

import os

import numpy as np

from .diffmerge import MixedReport
from .fileio import read_jsonl
from .types import ParseError, ValidationError, check_count


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
        """The table is drawn from `seed` unless a buckets x dim `table` is
        given; the encoder, being frozen, holds a read-only view of it, and
        a given float64 array is neither copied nor made read-only."""
        check_count("dim", dim, 1)
        check_count("window", window, 0, MAX_WINDOW)
        check_count("buckets", buckets, 1)
        if table is None:
            table = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(buckets, dim))
        self.table = np.asarray(table, dtype=np.float64).view()
        if self.table.shape != (buckets, dim):
            raise ValidationError(
                f"table has shape {list(self.table.shape)}, expected {[buckets, dim]}")
        self.table.flags.writeable = False
        self.dim = dim
        self.window = window
        self.buckets = buckets

    def bucket(self, ch: str) -> int:
        return ord(ch) % self.buckets

    def encode(self, mixed: MixedReport) -> np.ndarray:
        """m x dim matrix; row i averages the table rows of the characters
        in [i-window, i+window], clipped to the report bounds."""
        m = len(mixed.chars)
        if m == 0:
            raise ValidationError(f"report {mixed.report_id!r}: cannot encode empty report")
        rows = self.table[[self.bucket(ch) for ch in mixed.chars]]
        if self.window == 0:
            return rows
        csum = np.vstack([np.zeros((1, self.dim)), np.cumsum(rows, axis=0)])
        pos = np.arange(m)
        lo = np.maximum(pos - self.window, 0)
        hi = np.minimum(pos + self.window, m - 1)
        return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]

    def _span_design(self, mixed: MixedReport, ranges) -> tuple[np.ndarray, np.ndarray]:
        """Pooling structure of the spans: (rows, D) with span embeddings
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
        for start, end in ranges:
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

    def span_embeddings(self, mixed: MixedReport, ranges) -> np.ndarray:
        """n_spans x dim: the mean over each span of its characters' window
        means, computed as D @ table[rows] without the per-character matrix."""
        rows, D = self._span_design(mixed, ranges)
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
        self.dim = dim
        self.matrices = matrices
        self.source_path = source_path

    @classmethod
    def from_file(cls, path) -> "PrecomputedEncoder":
        matrices: dict[str, np.ndarray] = {}
        dim = None
        for lineno, rec in read_jsonl(path):
            if dim is None:
                dim = rec.get("dim")
                if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                    raise ParseError(
                        f"{path}:{lineno}: header record needs an integer 'dim' >= 1")
                continue
            try:
                rid, rows = rec["report_id"], rec["rows"]
            except KeyError as err:
                raise ParseError(f"{path}:{lineno}: missing field {err}") from None
            if not isinstance(rid, str):
                raise ParseError(f"{path}:{lineno}: report_id must be a string")
            if rid in matrices:
                raise ValidationError(f"{path}:{lineno}: duplicate report id {rid!r}")
            try:
                matrix = np.asarray(rows, dtype=np.float64)
            except (TypeError, ValueError):
                matrix = None
            if matrix is None or matrix.ndim != 2 or matrix.shape[1] != dim:
                raise ValidationError(
                    f"{path}:{lineno}: report {rid!r} rows are not {dim}-dimensional")
            if not np.isfinite(matrix).all():
                raise ValidationError(
                    f"{path}:{lineno}: report {rid!r} rows hold non-finite values")
            matrices[rid] = matrix
        if dim is None:
            raise ParseError(f"{path}: empty embeddings file (no header record)")
        return cls(dim, matrices, os.path.abspath(path))

    def encode(self, mixed: MixedReport) -> np.ndarray:
        matrix = self.matrices.get(mixed.report_id)
        if matrix is None:
            raise ValidationError(f"no precomputed embeddings for report {mixed.report_id!r}")
        if matrix.shape[0] != len(mixed.chars):
            raise ValidationError(
                f"report {mixed.report_id!r}: {matrix.shape[0]} embedding rows "
                f"for {len(mixed.chars)} characters")
        return matrix

    def span_embeddings(self, mixed: MixedReport, ranges) -> np.ndarray:
        H = self.encode(mixed)
        pooled = [pool_span(H, r) for r in ranges]
        return np.stack(pooled) if pooled else np.zeros((0, self.dim))


def external_backend(path) -> PrecomputedEncoder:
    return PrecomputedEncoder.from_file(path)
