"""Span scoring head: a one-hidden-layer MLP with sigmoid output, binary
cross-entropy with soft targets, Adam updates, and Otsu threshold fitting.

The classifier's parameters are views of one flat vector and its gradients
views of another, so a training step writes the gradient in place and Adam
updates every parameter as one array.
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from .types import ValidationError, check_array, check_count, check_size

LOSS_CLIP = 1e-7  # scores are clipped to [LOSS_CLIP, 1-LOSS_CLIP] inside the loss
OTSU_BINS = 256


class SpanClassifier:
    """dim -> hidden (tanh) -> 1 -> sigmoid. Scores lie in (0, 1]: a logit above ~36.7 is 1.0.

    w1, b1, w2 and b2 are views of the flat vector `theta`, in that order
    (w1 first, so it keeps theta's alignment), and backward() writes their
    gradients into the same views of the flat vector `grad`, so the gradient
    is read through `grad`, laid out as `params()`. Set a parameter
    in place (`clf.w1[...] = ...`); rebinding the attribute would detach it
    from theta.
    """

    def __init__(self, dim: int, hidden: int = 32, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        """w1 and w2 are drawn from `seed`, and b1 and b2 are zero, unless
        `params` gives all four arrays by name, checked before anything is sized,
        as is the cap of MAX_ARRAY_VALUES values on w1."""
        self.dim = check_count("dim", dim, 1)
        self.hidden = check_count("hidden", hidden, 1)
        if params is not None:
            params = [check_array(name, params.get(name), shape) for name, shape in
                      (("w1", (hidden, dim)), ("b1", (hidden,)), ("w2", (hidden,)), ("b2", (1,)))]
        check_size("hidden x dim layer", hidden, dim)
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
            self.theta[...] = np.concatenate([param.ravel() for param in params])

    def _views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """(w1, b1, w2, b2) shaped views of a flat parameter-sized vector."""
        n1 = self.hidden * self.dim
        n2 = n1 + self.hidden
        n3 = n2 + self.hidden
        return flat[:n1].reshape(self.hidden, self.dim), flat[n1:n2], flat[n2:n3], flat[n3:]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, S: np.ndarray, out: np.ndarray | None = None):
        """Scores and the hidden activations for backprop, the scores written into
        `out` if given. S is n x dim, or a k x n x dim stack scored item by item."""
        if S.ndim not in (2, 3) or S.shape[-1] != self.dim:
            raise ValidationError(f"span embeddings have shape {list(S.shape)}, "
                                  f"expected [n, {self.dim}] or [k, n, {self.dim}]")
        a1 = S @ self.w1.T
        a1 += self.b1
        np.tanh(a1, out=a1)
        # sigmoid of z = a1 @ w2 + b2: -z = -b2 - a1 @ w2 rounds as z does, and is
        # clamped at 700 so exp never overflows (the lowest score is ~1e-304, not 0)
        p = np.subtract(-self.b2[0], a1 @ self.w2, out=out)
        np.minimum(p, 700.0, out=p)
        np.exp(p, out=p)
        p += 1.0
        return np.divide(1.0, p, out=p), a1

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
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


class Adam:
    """Standard Adam (betas 0.9/0.999), stepped in place.

    `step(params, grads)` takes one-entry dicts, `{"theta": clf.theta}` and
    `{"theta": clf.grad}`, the call shape perfbench's hooks read. The
    optimizer keeps one state, `(m, v, scratch, scratch)`, allocated at the
    first step, so a later step allocates nothing. Every operation is
    elementwise, so stepping the flat vector equals stepping each parameter
    array on its own, bit for bit.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.state: tuple[np.ndarray, ...] = ()  # (m, v, scratch, scratch) once stepped

    def finite(self) -> bool:
        """Whether v is finite: an overflowed v stays inf, freezing its weight."""
        return not self.state or bool(np.isfinite(self.state[1]).all())

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        (p,), (g,) = params.values(), grads.values()
        self.t += 1
        bias1 = 1 - self.BETA1 ** self.t
        bias2 = 1 - self.BETA2 ** self.t
        if not self.state:
            self.state = tuple(np.zeros_like(p) for _ in range(4))
        m, v, update, denom = self.state
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

    Scores must lie in (0, 1], the range SpanClassifier gives; a saturated
    1.0 falls into the last bin, with the scores just below it. Candidate
    thresholds are the interior bin boundaries k/256; ties break toward the
    lower one. Each candidate's variance, up to the constant 1/total^2, is a
    ratio of Python ints, and the winner is the first maximum over the cuts in
    ascending order, with ratios compared exactly by cross-multiplying, so it
    never depends on float rounding. Scores that all fall into a single bin
    are indistinguishable at histogram resolution and raise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise ValidationError("otsu_threshold needs at least 2 scores")
    if not np.all((scores > 0.0) & (scores <= 1.0)):  # also rejects NaN
        raise ValidationError("scores must lie in the interval (0, 1]")
    bins = np.minimum((scores * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    counts = np.bincount(bins, minlength=OTSU_BINS)

    # n0[k], s0[k]: the count and bin-index sum of the bins below cut k+1, as
    # Python ints, since the squared numerators below can pass 2^63
    n0 = np.cumsum(counts).tolist()
    s0 = np.cumsum(counts * np.arange(OTSU_BINS)).tolist()
    total, total_weighted = n0[-1], s0[-1]
    cuts = [(k, (s * (total - n) - (total_weighted - s) * n) ** 2, n * (total - n))
            for k, (n, s) in enumerate(zip(n0, s0), start=1) if 0 < n < total]
    if not cuts:
        raise ValidationError(
            "no separating threshold: scores are identical at histogram resolution")
    best, _, _ = max(cuts, key=cmp_to_key(lambda a, b: a[1] * b[2] - b[1] * a[2]))
    return best / OTSU_BINS
