"""Span scoring head: a one-hidden-layer MLP with sigmoid output, binary
cross-entropy with soft targets, Adam updates, and Otsu threshold fitting.

The classifier's parameters are views of one flat vector and its gradients
views of another, so a training step writes the gradient in place and Adam
updates every parameter as one array.
"""

from __future__ import annotations

import numpy as np

from .types import ValidationError, check_count

LOSS_CLIP = 1e-7  # scores are clipped to [LOSS_CLIP, 1-LOSS_CLIP] inside the loss
OTSU_BINS = 256


def sigmoid(z, out=None):
    """1 / (1 + exp(-z)), written into `out` when it is given."""
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class SpanClassifier:
    """dim -> hidden (tanh) -> 1 -> sigmoid. Scores land in the open (0,1).

    w1, b1, w2 and b2 are views of the flat vector `theta`, in that order
    (w1 first, so it keeps theta's alignment), and backward() writes their
    gradients into the same views of the flat vector `grad`. Set a parameter
    in place (`clf.w1[...] = ...`); rebinding the attribute would detach it
    from theta.
    """

    def __init__(self, dim: int, hidden: int = 32, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        """w1 and w2 are drawn from `seed`, and b1 and b2 are zero, unless
        `params` gives all four arrays by name, in their exact shapes."""
        check_count("dim", dim, 1)
        check_count("hidden", hidden, 1)
        self.dim = dim
        self.hidden = hidden
        size = hidden * dim + 2 * hidden + 1
        self.theta = np.zeros(size)
        self.grad = np.zeros(size)
        self.w1, self.b1, self.w2, self.b2 = self._views(self.theta)
        self._grads = self._views(self.grad)
        if params is None:
            rng = np.random.default_rng(seed)
            self.w1[...] = rng.uniform(-1, 1, size=(hidden, dim)) / np.sqrt(dim)
            self.w2[...] = rng.uniform(-1, 1, size=hidden) / np.sqrt(hidden)
        else:
            for name, param in self.params().items():
                if np.shape(params[name]) != param.shape:
                    raise ValidationError(f"{name} has shape {list(np.shape(params[name]))}, "
                                          f"expected {list(param.shape)}")
                param[...] = params[name]

    def _views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """(w1, b1, w2, b2) shaped views of a flat parameter-sized vector."""
        n1 = self.hidden * self.dim
        n2 = n1 + self.hidden
        n3 = n2 + self.hidden
        return flat[:n1].reshape(self.hidden, self.dim), flat[n1:n2], flat[n2:n3], flat[n3:]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def grads(self) -> dict[str, np.ndarray]:
        """The gradient views by parameter name; the last backward() wrote them."""
        return dict(zip(("w1", "b1", "w2", "b2"), self._grads))

    def forward(self, S: np.ndarray, out: np.ndarray | None = None):
        """Scores plus the hidden activations needed for backprop; the
        scores are written into `out` when it is given."""
        if S.ndim != 2:
            S = np.atleast_2d(S)
        if S.shape[1] != self.dim:
            raise ValidationError(f"expected {self.dim}-dim span embeddings, got {S.shape[1]}")
        a1 = S @ self.w1.T
        a1 += self.b1
        np.tanh(a1, out=a1)
        z = a1 @ self.w2
        z += self.b2[0]
        return sigmoid(z, out=out), a1

    def scores(self, S: np.ndarray) -> np.ndarray:
        return self.forward(S)[0]

    def backward(self, S, a1, d_logit) -> None:
        """Write into `grad` the parameter gradients of a scalar loss, given
        the n_spans x dim embeddings S, the activations forward() returned
        for them and d loss / d logit per span."""
        gw1, gb1, gw2, gb2 = self._grads
        slope = a1 * a1
        np.subtract(1.0, slope, out=slope)
        dz1 = d_logit[:, None] * self.w2
        dz1 *= slope
        np.matmul(a1.T, d_logit, out=gw2)
        gb2[0] = np.add.reduce(d_logit)
        gw1[...] = dz1.T @ S
        np.add.reduce(dz1, axis=0, out=gb1)


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
    """Standard Adam (betas 0.9/0.999), stepped in place.

    `step(params, grads)` takes dicts of arrays keyed by name; each name
    keeps its own moments and two scratch arrays, allocated when the name is
    first seen, so a step allocates nothing. The trainer passes one name, the
    classifier's flat `theta` with its flat `grad`. Every operation is
    elementwise, so stepping the flat vector equals stepping each parameter
    array on its own, bit for bit.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.state: dict[str, tuple[np.ndarray, ...]] = {}  # name -> (m, v, scratch, scratch)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1 - self.BETA1 ** self.t
        bias2 = 1 - self.BETA2 ** self.t
        for name, g in grads.items():
            p = params[name]
            if name not in self.state:
                self.state[name] = tuple(np.zeros_like(p) for _ in range(4))
            m, v, update, denom = self.state[name]
            # lr * (m / bias1) / (sqrt(v / bias2) + eps), in that operation order
            m *= self.BETA1
            np.multiply(g, 1 - self.BETA1, out=update)
            m += update
            v *= self.BETA2
            np.multiply(g, g, out=update)
            update *= 1 - self.BETA2
            v += update
            np.divide(m, bias1, out=update)
            update *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            update /= denom
            p -= update


def otsu_threshold(scores) -> float:
    """Threshold maximizing between-class variance over a 256-bin histogram.

    Candidate thresholds are the interior bin boundaries k/256; ties break
    toward the lower one. Each candidate's variance is a ratio of integers,
    and two are compared exactly by cross-multiplying, so the winner never
    depends on float rounding. Scores that all fall into a single bin are
    indistinguishable at histogram resolution and raise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise ValidationError("otsu_threshold needs at least 2 scores")
    if not np.all((scores > 0.0) & (scores < 1.0)):  # also rejects NaN
        raise ValidationError("scores must lie in the open interval (0, 1)")
    bins = np.minimum((scores * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    counts = np.bincount(bins, minlength=OTSU_BINS)

    total = int(counts.sum())
    total_weighted = int((counts * np.arange(OTSU_BINS)).sum())
    best_k = None
    best_num, best_den = 0, 1  # the best variance so far, best_num / best_den
    n0 = s0 = 0
    for k in range(1, OTSU_BINS):
        n0 += int(counts[k - 1])
        s0 += (k - 1) * int(counts[k - 1])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s1 = total_weighted - s0
        # between-class variance, up to the constant 1/total^2, is num / den
        num, den = (s0 * n1 - s1 * n0) ** 2, n0 * n1
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_k = k
    if best_k is None:
        raise ValidationError(
            "no separating threshold: scores are identical at histogram resolution")
    return best_k / OTSU_BINS
