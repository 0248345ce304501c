"""Weakly supervised training loop.

Span targets come from two places: a small manually span-labeled set, and a
pseudo-labeled set whose spans inherit the report-level label. Each epoch
minimizes  L_all = L_manual + lambda * L_pseudo  over mixed mini-batches,
then refreshes pseudo-labels: a span whose last loss fell below the gate
gamma gets its label replaced by the current model score (kept soft).
The decision threshold is fitted once, by Otsu, on the training span scores
after the final epoch.

The span encoder is frozen: only the classifier is trained, so each training
report's span embeddings are computed once and reused in every epoch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import diffmerge
from .classifier import Adam, SpanClassifier, otsu_threshold, span_loss
from .encoder import HashedWindowEncoder
from .model import SpanScoringModel
from .types import Dataset, SpanLabelSet, ValidationError

log = logging.getLogger(__name__)

MANUAL, PSEUDO = "manual", "pseudo"


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or empty training signal)."""


@dataclass
class TrainConfig:
    gamma: float = 0.10          # pseudo-label refresh gate
    lam: float = 1.0             # weight of the pseudo loss
    epochs: int = 100
    batch_size: int = 8
    lr_classifier: float = 1e-3
    seed: int = 0
    dim: int = 64
    window: int = 2
    buckets: int = 4096
    hidden: int = 32

    def __post_init__(self):
        if self.gamma < 0 or self.lam < 0:
            raise ValidationError("gamma and lam must be >= 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("epochs must be >= 0 and batch_size >= 1")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReportItem:
    """One training report: its merge, span embeddings, and targets."""

    report_id: str
    mixed: diffmerge.MixedReport
    ranges: list[tuple[int, int]]
    targets: np.ndarray  # float64 per span: y* (manual) or current pseudo-label
    group: str           # MANUAL | PSEUDO
    embeddings: np.ndarray | None = None  # n_spans x dim, set by the trainer


@dataclass
class PseudoLabelState:
    """Current pseudo-labels and each span's most recent epoch loss."""

    items: list[ReportItem] = field(default_factory=list)
    losses: dict[str, np.ndarray] = field(default_factory=dict)
    epoch: int = 0

    @property
    def labels(self) -> dict[str, np.ndarray]:
        return {it.report_id: it.targets for it in self.items}


def init_pseudo_labels(train: Dataset, span_labels: SpanLabelSet,
                       ) -> tuple[list[ReportItem], PseudoLabelState]:
    """Split a training set into manual items and pseudo-labeled state.

    Reports with manual span labels keep them; every other labeled report
    gets all spans initialized to its report-level label. Unlabeled reports
    (no manual spans, no report label) and spanless reports are skipped.
    """
    manual: list[ReportItem] = []
    state = PseudoLabelState()
    skipped_unlabeled = skipped_spanless = 0
    for pair in train:
        mixed = diffmerge.merge_reports(pair)
        ranges = [s.range for s in mixed.spans]
        record = span_labels.get(pair.id)
        if record is not None:
            if len(record.span_labels) != len(ranges):
                raise ValidationError(
                    f"report {pair.id!r} merges into {len(ranges)} spans but has "
                    f"{len(record.span_labels)} manual labels")
            if not ranges:
                skipped_spanless += 1
                continue
            targets = np.asarray(record.span_labels, dtype=np.float64)
            manual.append(ReportItem(pair.id, mixed, ranges, targets, MANUAL))
        elif pair.label is None:
            skipped_unlabeled += 1
        elif not ranges:
            skipped_spanless += 1
        else:
            targets = np.full(len(ranges), float(pair.label))
            item = ReportItem(pair.id, mixed, ranges, targets, PSEUDO)
            state.items.append(item)
            state.losses[pair.id] = np.zeros(len(ranges))
    if skipped_unlabeled:
        log.warning("skipped %d reports without any label", skipped_unlabeled)
    if skipped_spanless:
        log.info("skipped %d spanless reports (no training signal)", skipped_spanless)
    return manual, state


class SpanModelTrainer:
    """Adam training of the span classifier over a frozen backend.

    An item's span embeddings are computed on first use, by the same
    backend.span_embeddings call classify_report makes, and kept on the item.
    """

    def __init__(self, clf: SpanClassifier, backend, lr_classifier: float = 1e-3):
        self.clf = clf
        self.backend = backend
        self.opt = Adam(lr_classifier)

    def embed(self, item: ReportItem) -> np.ndarray:
        if item.embeddings is None:
            item.embeddings = self.backend.span_embeddings(item.mixed, item.ranges)
        return item.embeddings

    def item_scores(self, item: ReportItem) -> np.ndarray:
        return self.clf.scores(self.embed(item))

    def loss_and_grads(self, groups):
        """Forward/backward over weighted item groups.

        groups: list of (items, weight). The batch objective is
        sum_g weight_g * mean_item mean_span bce. Returns
        (loss, per-item raw span losses, classifier grads).
        """
        all_items = [it for items, _ in groups for it in items]
        coeffs = []
        targets = []
        for items, weight in groups:
            for item in items:
                n_spans = len(item.ranges)
                coeffs.append(np.full(n_spans, weight / (len(items) * n_spans)))
                targets.append(item.targets)
        S = np.vstack([self.embed(it) for it in all_items])
        coeff = np.concatenate(coeffs)
        y = np.concatenate(targets)

        p, a1 = self.clf.forward(S)
        raw = span_loss(p, y)
        if not np.all(np.isfinite(raw)):
            bad = [it.report_id for it, r in zip(all_items, _split(raw, all_items))
                   if not np.all(np.isfinite(r))]
            raise TrainingError(f"non-finite loss for reports {bad}")
        loss = float(coeff @ raw)
        grads = self.clf.backward(S, a1, coeff * (p - y))
        return loss, _split(raw, all_items), grads

    def step(self, groups):
        """One Adam update over a grouped batch; returns (loss, raw losses)."""
        loss, raw, grads = self.loss_and_grads(groups)
        self.opt.step(self.clf.params(), grads)
        return loss, raw


def _split(flat: np.ndarray, items) -> list[np.ndarray]:
    out = []
    pos = 0
    for item in items:
        n = len(item.ranges)
        out.append(flat[pos:pos + n])
        pos += n
    return out


def train_epoch(trainer: SpanModelTrainer, manual: list[ReportItem],
                state: PseudoLabelState, config: TrainConfig, rng) -> dict:
    """One full pass in shuffled mixed batches; records per-span pseudo losses."""
    items = manual + state.items
    if not items:
        raise TrainingError("no spans to train on in the training set")
    order = rng.permutation(len(items))
    sum_manual = sum_pseudo = 0.0
    for lo in range(0, len(order), config.batch_size):
        batch = [items[k] for k in order[lo:lo + config.batch_size]]
        man = [it for it in batch if it.group == MANUAL]
        pse = [it for it in batch if it.group == PSEUDO]
        groups = []
        if man:
            groups.append((man, 1.0))
        if pse:
            groups.append((pse, config.lam))
        _, raw = trainer.step(groups)
        ordered = man + pse
        for item, r in zip(ordered, raw):
            if item.group == PSEUDO:
                state.losses[item.report_id][:] = r
            loss = float(r.mean())
            if item.group == MANUAL:
                sum_manual += loss
            else:
                sum_pseudo += loss
    l_manual = sum_manual / len(manual) if manual else 0.0
    l_pseudo = sum_pseudo / len(state.items) if state.items else 0.0
    return {
        "l_manual": l_manual,
        "l_pseudo": l_pseudo,
        "l_all": l_manual + config.lam * l_pseudo,
    }


def refresh_pseudo_labels(trainer: SpanModelTrainer, state: PseudoLabelState,
                          gamma: float) -> int:
    """Re-predict pseudo spans and replace labels the gate lets through.

    A label is replaced when the span's last loss was strictly below gamma
    (gamma=0 therefore never replaces; gamma=inf replaces everything).
    """
    replaced = 0
    for item in state.items:
        gate = state.losses[item.report_id] < gamma
        if not gate.any():
            continue
        scores = trainer.item_scores(item)
        item.targets[gate] = scores[gate]
        replaced += int(gate.sum())
    state.epoch += 1
    return replaced


def train(train_ds: Dataset, span_labels: SpanLabelSet, config: TrainConfig,
          backend=None) -> tuple[SpanScoringModel, list[dict]]:
    """Full self-training run; returns the fitted model and per-epoch telemetry."""
    ss = np.random.SeedSequence(config.seed)
    s_backend, s_clf, s_shuffle = ss.spawn(3)
    if backend is None:
        backend = HashedWindowEncoder(config.dim, config.window, config.buckets,
                                      seed=s_backend)
    clf = SpanClassifier(backend.dim, config.hidden, seed=s_clf)
    trainer = SpanModelTrainer(clf, backend, config.lr_classifier)

    manual, state = init_pseudo_labels(train_ds, span_labels)
    if config.lam == 0.0 and state.items:
        # zero-weighted pseudo terms contribute nothing; dropping them keeps
        # the trajectory identical to training on the manual set alone
        log.info("lambda=0: training on the %d manually labeled reports only", len(manual))
        state = PseudoLabelState()
    log.info("training on %d manual and %d pseudo-labeled reports",
             len(manual), len(state.items))

    rng = np.random.default_rng(s_shuffle)
    telemetry = []
    for epoch in range(1, config.epochs + 1):
        stats = train_epoch(trainer, manual, state, config, rng)
        refreshed = refresh_pseudo_labels(trainer, state, config.gamma)
        row = {"epoch": epoch, **{k: round(v, 6) for k, v in stats.items()},
               "refreshed": refreshed}
        telemetry.append(row)
        if epoch == 1 or epoch % 10 == 0 or epoch == config.epochs:
            log.info("epoch %d: l_all=%.4f (manual %.4f, pseudo %.4f), refreshed %d",
                     epoch, stats["l_all"], stats["l_manual"], stats["l_pseudo"], refreshed)

    scores = np.concatenate([trainer.item_scores(it) for it in manual + state.items])
    try:
        tau = otsu_threshold(scores)
    except ValidationError as err:
        log.warning("threshold fit failed (%s); falling back to 0.5", err)
        tau = 0.5
    if math.isinf(config.gamma):
        cfg = {**config.as_dict(), "gamma": "inf"}
    else:
        cfg = config.as_dict()
    model = SpanScoringModel(backend=backend, classifier=clf, threshold=tau,
                             train_config=cfg)
    return model, telemetry
