"""Span scoring head: a one-hidden-layer MLP with sigmoid output, binary
cross-entropy with soft targets, Adam updates, and Otsu threshold fitting.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .types import ValidationError

LOSS_CLIP = 1e-7  # scores are clipped to [LOSS_CLIP, 1-LOSS_CLIP] inside the loss
OTSU_BINS = 256


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class SpanClassifier:
    """dim -> hidden (tanh) -> 1 -> sigmoid. Scores land in the open (0,1)."""

    def __init__(self, dim: int, hidden: int = 32, seed: int = 0):
        if dim < 1 or hidden < 1:
            raise ValidationError("dim and hidden must be >= 1")
        self.dim = dim
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        self.w1 = rng.uniform(-1, 1, size=(hidden, dim)) / np.sqrt(dim)
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-1, 1, size=hidden) / np.sqrt(hidden)
        self.b2 = np.zeros(1)

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, S: np.ndarray):
        """Scores plus the hidden activations needed for backprop."""
        S = np.atleast_2d(S)
        if S.shape[1] != self.dim:
            raise ValidationError(f"expected {self.dim}-dim span embeddings, got {S.shape[1]}")
        a1 = np.tanh(S @ self.w1.T + self.b1)
        p = sigmoid(a1 @ self.w2 + self.b2[0])
        return p, a1

    def scores(self, S: np.ndarray) -> np.ndarray:
        return self.forward(S)[0]

    def backward(self, S, a1, d_logit) -> dict[str, np.ndarray]:
        """Parameter gradients of a scalar loss given d loss / d logit per span."""
        S = np.atleast_2d(S)
        dz1 = (d_logit[:, None] * self.w2) * (1.0 - a1 * a1)
        return {
            "w2": a1.T @ d_logit,
            "b2": np.array([d_logit.sum()]),
            "w1": dz1.T @ S,
            "b1": dz1.sum(axis=0),
        }


def span_loss(score, label) -> np.ndarray | float:
    """Binary cross-entropy with soft targets; scores clipped away from {0,1}.

    The clip only guards the log; gradients elsewhere treat the loss as the
    plain unclipped cross-entropy.
    """
    p = np.clip(score, LOSS_CLIP, 1.0 - LOSS_CLIP)
    y = np.asarray(label, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(out) if np.isscalar(score) else out


class Adam:
    """Standard Adam (betas 0.9/0.999) over a named-parameter dict.

    The moments of all parameters are one flat vector, laid out in the order
    of the gradient dict, so a step is one flat update however many
    parameters there are; only subtracting it is done parameter by parameter.
    Every operation is elementwise, so the result equals per-array Adam bit
    for bit.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        if self.lr == 0.0:
            return
        self.t += 1
        g = np.concatenate([grad.reshape(-1) for grad in grads.values()])
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * (g * g)
        m_hat = m / (1 - self.beta1 ** self.t)
        v_hat = v / (1 - self.beta2 ** self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        pos = 0
        for name in grads:
            p = params[name]
            p -= update[pos:pos + p.size].reshape(p.shape)
            pos += p.size


def otsu_threshold(scores) -> float:
    """Threshold maximizing between-class variance over a 256-bin histogram.

    Candidate thresholds are the interior bin boundaries k/256; ties break
    toward the lower one. The comparison runs in exact rational arithmetic,
    so the winner never depends on float rounding. Scores that all fall into
    a single bin are indistinguishable at histogram resolution and raise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise ValidationError("otsu_threshold needs at least 2 scores")
    if np.any((scores <= 0.0) | (scores >= 1.0)):
        raise ValidationError("scores must lie in the open interval (0, 1)")
    bins = np.minimum((scores * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    counts = np.bincount(bins, minlength=OTSU_BINS)

    total = int(counts.sum())
    total_weighted = int((counts * np.arange(OTSU_BINS)).sum())
    best_k = None
    best_var = Fraction(0)
    n0 = s0 = 0
    for k in range(1, OTSU_BINS):
        n0 += int(counts[k - 1])
        s0 += (k - 1) * int(counts[k - 1])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s1 = total_weighted - s0
        # between-class variance, up to the constant 1/total^2
        var = Fraction((s0 * n1 - s1 * n0) ** 2, n0 * n1)
        if var > best_var:
            best_var = var
            best_k = k
    if best_k is None or best_var == 0:
        raise ValidationError(
            "no separating threshold: scores are identical at histogram resolution")
    return best_k / OTSU_BINS
