"""Span embeddings for mixed reports, through one path for every caller.

Training, the pseudo-label refresh, the threshold fit and classify_report all
turn spans into embeddings with the same two calls,

    design = backend.span_design(mixed, ranges)
    S = backend.span_embeddings(design)     # n_spans x dim

so the scores a threshold is fitted on are, bit for bit, the scores it is
applied to. Two backends provide them:

  HashedWindowEncoder - trainable baseline. An embedding table addressed by
      hashed character identity; each character's embedding is the mean of
      the table rows in a symmetric context window around it. Window and span
      pooling are both means, so the design is (rows, D): the sorted table
      rows the spans read and a dense n_spans x len(rows) weight matrix, with
      S = D @ table[rows] and dLoss/dtable[rows] = D.T @ dLoss/dS.

  PrecomputedEncoder - frozen matrices loaded from a JSON-Lines file, for
      plugging in contextual embeddings computed elsewhere. Its design is the
      pooled span matrix itself.

`encode` and `pool_span` give the per-character matrix and the mean over a
span; the precomputed backend pools with them, and they are the reference the
hashed backend's design is tested against.
"""

from __future__ import annotations

import json

import numpy as np

from .diffmerge import MixedReport
from .types import ParseError, ValidationError


def pool_span(H: np.ndarray, span_range: tuple[int, int]) -> np.ndarray:
    """Arithmetic mean of the embedding rows in [start, end)."""
    start, end = span_range
    if not 0 <= start < end <= H.shape[0]:
        raise ValidationError(f"span range [{start}, {end}) out of bounds for {H.shape[0]} rows")
    return H[start:end].mean(axis=0)


class HashedWindowEncoder:
    name = "hashed-window"
    trainable = True

    def __init__(self, dim: int = 64, window: int = 2, buckets: int = 4096, seed: int = 0):
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        if window < 0 or buckets < 1:
            raise ValidationError("window must be >= 0 and buckets >= 1")
        self.dim = dim
        self.window = window
        self.buckets = buckets
        rng = np.random.default_rng(seed)
        self.table = rng.uniform(-0.1, 0.1, size=(buckets, dim))

    def bucket(self, ch: str) -> int:
        return ord(ch) % self.buckets

    def _bucket_ids(self, chars: str) -> np.ndarray:
        return np.fromiter((ord(c) % self.buckets for c in chars), dtype=np.int64,
                           count=len(chars))

    def encode(self, mixed: MixedReport) -> np.ndarray:
        """m x dim matrix; row i averages the table rows of the characters
        in [i-window, i+window], clipped to the report bounds."""
        m = len(mixed.chars)
        if m == 0:
            raise ValidationError(f"report {mixed.report_id!r}: cannot encode empty report")
        rows = self.table[self._bucket_ids(mixed.chars)]
        if self.window == 0:
            return rows.copy()
        csum = np.vstack([np.zeros((1, self.dim)), np.cumsum(rows, axis=0)])
        pos = np.arange(m)
        lo = np.maximum(pos - self.window, 0)
        hi = np.minimum(pos + self.window, m - 1)
        return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]

    def span_design(self, mixed: MixedReport, ranges) -> tuple[np.ndarray, np.ndarray]:
        """Pooling structure of the spans: (rows, D) with span embeddings
        equal to D @ table[rows].

        rows holds the sorted, unique table rows that the spans' context
        windows read; D is the n_spans x len(rows) matrix of pooling weights.
        Each character i of a span contributes 1 / (window size * span
        length) to every row in its clipped window, added span by span,
        character by character, window slot by window slot (np.add.at adds
        in that fixed order, so D is reproducible bit for bit).
        """
        m = len(mixed.chars)
        bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        for start, end in bounds.tolist():
            if not 0 <= start < end <= m:
                raise ValidationError(f"span range [{start}, {end}) out of bounds")
        starts, ends = bounds[:, 0], bounds[:, 1]
        lengths = ends - starts
        span_of = np.repeat(np.arange(len(bounds)), lengths)
        pos = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        pos += starts[span_of]
        lo = np.maximum(pos - self.window, 0)
        hi = np.minimum(pos + self.window, m - 1)
        weight = 1.0 / ((hi - lo + 1) * lengths[span_of])
        k = pos[:, None] + np.arange(-self.window, self.window + 1)
        inside = (k >= lo[:, None]) & (k <= hi[:, None])
        ids = self._bucket_ids(mixed.chars)[k[inside]]
        rows, cols = np.unique(ids, return_inverse=True)
        n_slots = inside.sum(axis=1)
        D = np.zeros((len(bounds), len(rows)))
        np.add.at(D, (np.repeat(span_of, n_slots), cols), np.repeat(weight, n_slots))
        return rows, D

    def span_embeddings(self, design) -> np.ndarray:
        rows, D = design
        return D @ self.table[rows]

    def params(self) -> dict[str, np.ndarray]:
        return {"table": self.table}


class PrecomputedEncoder:
    """Frozen per-report embedding matrices keyed by report id.

    File format: JSON-Lines, first line {"dim": d}, then one
    {"report_id": ..., "rows": [[...], ...]} record per report.
    """

    name = "precomputed"
    trainable = False

    def __init__(self, dim: int, matrices: dict[str, np.ndarray]):
        self.dim = dim
        self.matrices = matrices

    @classmethod
    def from_file(cls, path) -> "PrecomputedEncoder":
        matrices: dict[str, np.ndarray] = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ParseError(f"{path}:{lineno}: invalid JSON ({err})") from None
                if dim is None:
                    if "dim" not in rec:
                        raise ParseError(f"{path}:1: missing header record with 'dim'")
                    dim = int(rec["dim"])
                    if dim < 1:
                        raise ParseError(f"{path}:1: dim must be >= 1")
                    continue
                try:
                    rid, rows = rec["report_id"], rec["rows"]
                except KeyError as err:
                    raise ParseError(f"{path}:{lineno}: missing field {err}") from None
                matrix = np.asarray(rows, dtype=np.float64)
                if matrix.ndim != 2 or matrix.shape[1] != dim:
                    raise ValidationError(
                        f"{path}:{lineno}: report {rid!r} rows are not {dim}-dimensional")
                matrices[rid] = matrix
        if dim is None:
            raise ParseError(f"{path}: empty embeddings file (no header record)")
        return cls(dim, matrices)

    def encode(self, mixed: MixedReport) -> np.ndarray:
        matrix = self.matrices.get(mixed.report_id)
        if matrix is None:
            raise ValidationError(f"no precomputed embeddings for report {mixed.report_id!r}")
        if matrix.shape[0] != len(mixed.chars):
            raise ValidationError(
                f"report {mixed.report_id!r}: {matrix.shape[0]} embedding rows "
                f"for {len(mixed.chars)} characters")
        return matrix

    def span_design(self, mixed: MixedReport, ranges) -> np.ndarray:
        """The pooled span embeddings themselves: the matrices are frozen."""
        H = self.encode(mixed)
        return np.stack([pool_span(H, r) for r in ranges])

    def span_embeddings(self, design) -> np.ndarray:
        return design

    def params(self) -> dict[str, np.ndarray]:
        return {}


def baseline_backend(dim: int = 64, window: int = 2, seed: int = 0,
                     buckets: int = 4096) -> HashedWindowEncoder:
    return HashedWindowEncoder(dim=dim, window=window, buckets=buckets, seed=seed)


def external_backend(path) -> PrecomputedEncoder:
    return PrecomputedEncoder.from_file(path)
