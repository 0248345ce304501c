"""Reference implementations shared by the tests.

They restate the arithmetic the program replaced in its plainest form, so a
test can compare the program against code it does not share. The gradient
check is shared too: criterion 4 and the selftrain tests both run it.
pool_span and CharacterRowEncoder pool per-character rows into span rows, the
arithmetic an embedder may use to write a span-row embeddings file.
"""

import base64
from fractions import Fraction

import numpy as np

from spanqa.classifier import Adam
from spanqa.encoder import PrecomputedEncoder
from spanqa.selftrain import TrainConfig, train_epoch
from spanqa.types import ValidationError


def reference_array_doc(arr):
    """A model file's {"shape", "data"} for arr, its base64 built whole."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    blob = arr.astype("<f8", copy=False).tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(blob).decode("ascii")}


def pool_span(H: np.ndarray, span_range: tuple[int, int]) -> np.ndarray:
    """Arithmetic mean of the embedding rows in [start, end)."""
    start, end = span_range
    if not 0 <= start < end <= H.shape[0]:
        raise ValidationError(f"span range [{start}, {end}) out of bounds for {H.shape[0]} rows")
    return H[start:end].mean(axis=0)


class CharacterRowEncoder(PrecomputedEncoder):
    """A precomputed backend on per-character rows: one matrix per report, a
    row per mixed-report character, each span pooled by pool_span. It saves
    as any precomputed model does, by dim and source_path."""

    def __init__(self, dim, matrices, source_path=""):
        super().__init__(dim, {}, source_path)
        self.matrices = matrices

    def span_embeddings(self, mixed):
        H = self.matrices[mixed.report_id]
        if H.shape[0] != len(mixed.chars):
            raise ValidationError(f"report {mixed.report_id!r}: {H.shape[0]} embedding rows "
                                  f"for {len(mixed.chars)} characters")
        return np.array([pool_span(H, span.range) for span in mixed.spans]).reshape(
            len(mixed.spans), self.dim)


def reference_encode(enc, mixed):
    """The hashed encoder `enc`'s m x dim per-character matrix of `mixed`; row
    i averages the table rows of the characters in [i-window, i+window],
    clipped to the report bounds. Pooled with pool_span, it gives the span
    embeddings the encoder computes as D @ table[rows]."""
    m = len(mixed.chars)
    rows = enc.table[[ord(ch) % enc.buckets for ch in mixed.chars]]
    if enc.window == 0:
        return rows
    csum = np.vstack([np.zeros((1, enc.dim)), np.cumsum(rows, axis=0)])
    pos = np.arange(m)
    lo = np.maximum(pos - enc.window, 0)
    hi = np.minimum(pos + enc.window, m - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]


def reference_forward(clf, S):
    """The classifier's scores and hidden activations for the rows of S."""
    a1 = np.tanh(S @ clf.w1.T + clf.b1)
    p = 1.0 / (1.0 + np.exp(-(a1 @ clf.w2 + clf.b2[0])))
    return p, a1


def reference_backward(clf, S, a1, d_logit):
    """Parameter gradients given d loss / d logit per row, by name."""
    dz1 = (d_logit[:, None] * clf.w2) * (1.0 - a1 * a1)
    return {
        "w2": a1.T @ d_logit,
        "b2": np.array([d_logit.sum()]),
        "w1": dz1.T @ S,
        "b1": dz1.sum(axis=0),
    }


class ReferenceAdam:
    """Reference: Adam stepped array by array, with moments kept per name."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            p = params[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_otsu_threshold(scores, bins=256):
    """Otsu's threshold by exhaustive search over every bin cut k/bins, with
    the between-class variance in Fractions; the lowest k wins a tie. Raises
    ValueError when no cut separates the histogram (one occupied bin)."""
    counts = [0] * bins
    for s in scores:
        counts[min(int(s * bins), bins - 1)] += 1
    n = len(scores)
    best = None
    best_var = Fraction(0)
    for k in range(1, bins):
        left = [(i, c) for i, c in enumerate(counts[:k]) if c]
        right = [(i, c) for i, c in enumerate(counts) if i >= k and c]
        n0 = sum(c for _, c in left)
        n1 = sum(c for _, c in right)
        if n0 == 0 or n1 == 0:
            continue
        mu0 = Fraction(sum(i * c for i, c in left), n0)
        mu1 = Fraction(sum(i * c for i, c in right), n1)
        var = Fraction(n0, n) * Fraction(n1, n) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var = var
            best = k
    if best is None:
        raise ValueError("no separating cut")
    return best / bins


def epoch_gradient_error(clf, pack, lam, eps=1e-6):
    """The largest relative error, over the flat parameter vector, between the
    gradient train_epoch leaves in clf.grad and central differences of the
    l_all it reports. Each epoch is one batch holding the whole pack, stepped
    by Adam(0.0) so theta stays put, with a fresh default_rng(0), so every
    epoch sums in one order."""
    config = TrainConfig(lam=lam, batch_size=len(pack.report_ids))

    def l_all():
        return train_epoch(clf, Adam(0.0), pack, config, np.random.default_rng(0))["l_all"]

    l_all()
    analytic = clf.grad.copy()
    worst = 0.0
    for idx in range(clf.theta.size):
        orig = clf.theta[idx]
        clf.theta[idx] = orig + eps
        lp = l_all()
        clf.theta[idx] = orig - eps
        lm = l_all()
        clf.theta[idx] = orig
        fd = (lp - lm) / (2 * eps)
        scale = max(abs(fd), abs(analytic[idx]), 1e-8)
        worst = max(worst, abs(fd - analytic[idx]) / scale)
    return worst
