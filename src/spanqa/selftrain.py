"""Weakly supervised training loop.

Span targets come from two places: a small manually span-labeled set, and a
pseudo-labeled set whose spans inherit the report-level label. Each epoch
minimizes  L_all = L_manual + lambda * L_pseudo  over mixed mini-batches,
then refreshes pseudo-labels: a span whose last loss fell below the gate
gamma gets its label replaced by the current model score (kept soft).
The decision threshold is fitted once, by Otsu, on the training span scores
after the final epoch.

The span encoder is frozen: only the classifier is trained, so each training
report's span embeddings are computed once and reused in every epoch. They,
the targets and the last losses are packed into flat arrays once, so an epoch
is one gather followed by forward/backward/Adam steps on contiguous slices.
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
    targets: np.ndarray  # float64 per span: y* (manual) or current pseudo-label;
                         # a view of the packed targets once training packs it
    group: str           # MANUAL | PSEUDO
    embeddings: np.ndarray | None = None  # n_spans x dim, set by the trainer


@dataclass
class PackedItems:
    """Every training item's spans in flat arrays, manual items first.

    Item k owns the rows starts[k] : starts[k] + counts[k] of `embeddings`,
    `targets` and `losses`. Each item's `targets` and each pseudo item's
    `state.losses[id]` are views of its rows, so a refresh writes through to
    the packed targets and the losses an epoch scatters show per item.
    """

    items: list[ReportItem]
    embeddings: np.ndarray  # n_spans x dim
    targets: np.ndarray     # per span
    losses: np.ndarray      # per span: its loss at the last step that visited it
    starts: np.ndarray      # per item
    counts: np.ndarray      # per item
    pseudo: np.ndarray      # per item: True for a pseudo-labeled item
    by_count: list[tuple[np.ndarray, np.ndarray]]  # (items, their row matrix) per span count

    def item_means(self) -> np.ndarray:
        """Mean loss per item, equal bit for bit to losses[rows].mean() item
        by item: items with the same span count are reduced row by row."""
        means = np.empty(len(self.items))
        for idx, rows in self.by_count:
            means[idx] = self.losses[rows].mean(axis=1)
        return means


@dataclass
class PseudoLabelState:
    """Current pseudo-labels and each span's most recent epoch loss, and,
    once the first epoch packs them, the flat arrays both are views of."""

    items: list[ReportItem] = field(default_factory=list)
    losses: dict[str, np.ndarray] = field(default_factory=dict)
    epoch: int = 0
    packed: PackedItems | None = None  # set by the first train_epoch

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

    def forward_backward(self, S, y, coeff, name_reports):
        """The step kernel: forward, loss and backward over one batch's rows.

        The batch objective is coeff @ span losses. Returns (raw span losses,
        classifier grads). A non-finite loss raises TrainingError naming the
        reports name_reports(mask) returns for the mask of offending rows.
        """
        p, a1 = self.clf.forward(S)
        raw = span_loss(p, y)
        if not np.isfinite(raw).all():
            raise TrainingError(
                f"non-finite loss for reports {name_reports(~np.isfinite(raw))}")
        return raw, self.clf.backward(S, a1, coeff * (p - y))

    def loss_and_grads(self, groups):
        """Forward/backward over weighted item groups, through the step kernel.

        groups: list of (items, weight). The batch objective is
        sum_g weight_g * mean_item mean_span bce. Returns
        (loss, per-item raw span losses, classifier grads).
        """
        all_items = [it for items, _ in groups for it in items]
        counts = np.array([len(it.ranges) for it in all_items], dtype=np.int64)
        ends = np.cumsum(counts)
        coeff = _span_coefficients(
            np.array([weight for items, weight in groups for _ in items], dtype=np.float64),
            np.array([len(items) for items, _ in groups for _ in items], dtype=np.int64),
            counts)
        S = np.vstack([self.embed(it) for it in all_items])
        y = np.concatenate([it.targets for it in all_items])
        raw, grads = self.forward_backward(
            S, y, coeff,
            lambda bad: _owners(all_items, ends, np.flatnonzero(bad)))
        return float(coeff @ raw), np.split(raw, ends[:-1]), grads

    def step(self, groups):
        """One Adam update over a grouped batch; returns (loss, raw losses)."""
        loss, raw, grads = self.loss_and_grads(groups)
        self.opt.step(self.clf.params(), grads)
        return loss, raw


def _span_coefficients(weight, group_size, counts) -> np.ndarray:
    """Per-span objective weights: an item in a group of group_size items
    spreads weight / group_size evenly over its counts spans."""
    return np.repeat(weight / (group_size * counts), counts)


def _owners(items, ends, rows) -> list[str]:
    """Report ids, in row order and once each, of the items owning `rows`;
    items[k] owns the rows below ends[k] and at or above ends[k - 1]."""
    owners = np.searchsorted(ends, rows, side="right")
    return list(dict.fromkeys(items[k].report_id for k in owners.tolist()))


def _sequential_sum(values: np.ndarray) -> float:
    """Plain left-to-right float sum (as a Python loop would add them)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def pack_items(trainer: SpanModelTrainer, manual: list[ReportItem],
               state: PseudoLabelState) -> PackedItems:
    """Embed every item and pack its spans; see PackedItems."""
    items = manual + state.items
    counts = np.array([len(it.ranges) for it in items], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    targets = np.concatenate([it.targets for it in items])
    losses = np.zeros(len(targets))
    for item, lo, n in zip(items, starts.tolist(), counts.tolist()):
        item.targets = targets[lo:lo + n]
        if item.group == PSEUDO:
            losses[lo:lo + n] = state.losses[item.report_id]
            state.losses[item.report_id] = losses[lo:lo + n]
    by_count = []
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        by_count.append((idx, starts[idx, None] + np.arange(n)))
    return PackedItems(
        items=items,
        embeddings=np.vstack([trainer.embed(it) for it in items]),
        targets=targets,
        losses=losses,
        starts=starts,
        counts=counts,
        pseudo=np.array([it.group == PSEUDO for it in items], dtype=bool),
        by_count=by_count,
    )


def train_epoch(trainer: SpanModelTrainer, manual: list[ReportItem],
                state: PseudoLabelState, config: TrainConfig, rng) -> dict:
    """One full pass in shuffled mixed batches; records per-span pseudo losses.

    The items are shuffled and cut into batches of batch_size; a batch visits
    its manual items, then its pseudo items, each in shuffled order, and
    weighs them as groups (1 and lambda). The first call packs the items
    (state.packed); the whole visit order is then built in one vectorised
    pass, a step is the step kernel and an Adam update on contiguous slices
    of one gathered epoch, and the losses are scattered back once.
    """
    if not manual and not state.items:
        raise TrainingError("no spans to train on in the training set")
    if state.packed is None:
        state.packed = pack_items(trainer, manual, state)
    pack = state.packed
    n_items = len(pack.items)
    order = rng.permutation(n_items)
    # a stable sort on (batch, group) puts each batch's manual items first
    key = np.arange(n_items) // config.batch_size * 2 + pack.pseudo[order]
    by_key = np.argsort(key, kind="stable")
    visit = order[by_key]
    key = key[by_key]
    counts = pack.counts[visit]
    pseudo = pack.pseudo[visit]
    group_size = np.bincount(key)[key]  # items of the same batch and group
    coeff = _span_coefficients(np.where(pseudo, config.lam, 1.0), group_size, counts)
    ends = np.cumsum(counts)
    firsts = ends - counts
    rows = np.repeat(pack.starts[visit] - firsts, counts) + np.arange(ends[-1])
    S = pack.embeddings[rows]
    y = pack.targets[rows]
    raw = np.empty(len(rows))
    bounds = firsts[::config.batch_size].tolist() + [int(ends[-1])]
    params = trainer.clf.params()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        raw[lo:hi], grads = trainer.forward_backward(
            S[lo:hi], y[lo:hi], coeff[lo:hi],
            lambda bad, lo=lo: _owners([pack.items[k] for k in visit.tolist()], ends,
                                       lo + np.flatnonzero(bad)))
        trainer.opt.step(params, grads)
    pack.losses[rows] = raw
    means = pack.item_means()[visit]
    l_manual = _sequential_sum(means[~pseudo]) / len(manual) if manual else 0.0
    l_pseudo = _sequential_sum(means[pseudo]) / len(state.items) if state.items else 0.0
    return {
        "l_manual": l_manual,
        "l_pseudo": l_pseudo,
        "l_all": l_manual + config.lam * l_pseudo,
    }


def refresh_pseudo_labels(trainer: SpanModelTrainer, state: PseudoLabelState,
                          gamma: float) -> int:
    """Re-predict pseudo spans and replace labels the gate lets through.

    A label is replaced when the span's last loss was strictly below gamma
    (gamma=0 therefore never replaces; gamma=inf replaces everything). The
    gate is one comparison over all pseudo spans; only items it lets a span
    of through are scored, one item at a time, as classify_report scores.
    """
    losses = [state.losses[item.report_id] for item in state.items]
    state.epoch += 1
    if not losses:
        return 0
    gate = np.concatenate(losses) < gamma
    ends = np.cumsum([len(item_losses) for item_losses in losses])
    passed = np.flatnonzero(gate)
    for k in dict.fromkeys(np.searchsorted(ends, passed, side="right").tolist()):
        item = state.items[k]
        item_gate = gate[ends[k] - len(losses[k]):ends[k]]
        item.targets[item_gate] = trainer.item_scores(item)[item_gate]
    return len(passed)


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
