"""Weakly supervised training loop.

Span targets come from two places: a small manually span-labeled set, and a
pseudo-labeled set whose spans inherit the report-level label. Each epoch
minimizes  L_all = L_manual + lambda * L_pseudo  over mixed mini-batches,
then refreshes pseudo-labels: a span whose last loss fell below the gate
gamma gets its label replaced by the current model score (kept soft).
The decision threshold is fitted once, by Otsu, on the training span scores
after the final epoch.

The span encoder is frozen: only the classifier is trained, so each training
report's spans are embedded once, before the first epoch, straight into flat
arrays that also hold the targets and the last losses (`pack_items`). They
are the only copy of the training set: an epoch is one gather followed by
steps on contiguous slices, and the refresh and the threshold fit score an
item's rows of the packed embeddings. A step writes its scores into one
epoch-wide buffer and the gradient into the classifier's flat `grad`, which
one in-place Adam update applies to its flat `theta`; the span losses are
computed once per epoch, from all the step scores at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import diffmerge
from .classifier import Adam, SpanClassifier, otsu_threshold, span_loss
from .encoder import MAX_WINDOW, HashedWindowEncoder
from .fileio import plain
from .model import SpanScoringModel
from .types import Dataset, SpanLabelSet, ValidationError, check_count, check_number

log = logging.getLogger(__name__)

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
        # gamma = inf is the gate that replaces every label; NaN gates nothing
        check_number("gamma", self.gamma, allow_inf=True)
        check_number("lam", self.lam)
        check_number("lr_classifier", self.lr_classifier)
        for name, minimum in (("epochs", 0), ("batch_size", 1), ("seed", 0), ("dim", 1),
                              ("window", 0), ("buckets", 1), ("hidden", 1)):
            check_count(name, getattr(self, name), minimum,
                        MAX_WINDOW if name == "window" else None)


@dataclass
class ReportItem:
    """One training report: its merge and its span targets."""

    report_id: str
    mixed: diffmerge.MixedReport
    targets: np.ndarray  # float64 per span: y* (manual) or the initial pseudo-label


@dataclass
class PackedItems:
    """Every training item's spans in flat arrays, manual items first: the
    one copy of the training embeddings, targets and last losses.

    Item k, named report_ids[k], owns the rows starts[k] : starts[k] +
    counts[k] of `embeddings`, `targets` and `losses`; the pseudo items'
    rows start at first_pseudo.
    """

    report_ids: list[str]
    embeddings: np.ndarray  # n_spans x dim
    targets: np.ndarray     # per span
    losses: np.ndarray      # per span: its loss at the last step that visited it
    starts: np.ndarray      # per item
    counts: np.ndarray      # per item
    pseudo: np.ndarray      # per item: True for a pseudo-labeled item
    first_pseudo: int       # the first pseudo-labeled row
    by_count: list[tuple[np.ndarray, np.ndarray]]  # (items, their row matrix) per span count

    def item_means(self) -> np.ndarray:
        """Mean loss per item, equal bit for bit to losses[rows].mean() item
        by item: items with the same span count are reduced row by row."""
        means = np.empty(len(self.report_ids))
        for idx, rows in self.by_count:
            means[idx] = self.losses[rows].mean(axis=1)
        return means

    def owners(self, rows) -> list[str]:
        """Report ids, in the order of `rows` and once each, of the items
        owning those rows."""
        owners = np.searchsorted(self.starts + self.counts, rows, side="right")
        return list(dict.fromkeys(self.report_ids[k] for k in owners.tolist()))


def init_pseudo_labels(train: Dataset, span_labels: SpanLabelSet,
                       ) -> tuple[list[ReportItem], list[ReportItem]]:
    """Split a training set into manual and pseudo-labeled items.

    Reports with manual span labels keep them; every other labeled report
    gets all spans initialized to its report-level label. Unlabeled reports
    (no manual spans, no report label) and spanless reports are skipped.
    """
    manual: list[ReportItem] = []
    pseudo: list[ReportItem] = []
    skipped_unlabeled = skipped_spanless = 0
    for pair in train:
        mixed = diffmerge.merge_reports(pair)
        n_spans = len(mixed.spans)
        record = span_labels.get(pair.id)
        if record is not None:
            if len(record.span_labels) != n_spans:
                raise ValidationError(
                    f"report {pair.id!r} merges into {n_spans} spans but has "
                    f"{len(record.span_labels)} manual labels")
            if not n_spans:
                skipped_spanless += 1
                continue
            targets = np.asarray(record.span_labels, dtype=np.float64)
            manual.append(ReportItem(pair.id, mixed, targets))
        elif pair.label is None:
            skipped_unlabeled += 1
        elif not n_spans:
            skipped_spanless += 1
        else:
            pseudo.append(ReportItem(pair.id, mixed, np.full(n_spans, float(pair.label))))
    if skipped_unlabeled:
        log.warning("skipped %d reports without any label", skipped_unlabeled)
    if skipped_spanless:
        log.info("skipped %d spanless reports (no training signal)", skipped_spanless)
    return manual, pseudo


def pack_items(backend, manual: list[ReportItem], pseudo: list[ReportItem]) -> PackedItems:
    """Embed every item's spans straight into a pack, by the same
    backend.span_embeddings call classify_report makes, and copy its targets;
    the losses start at zero. See PackedItems."""
    items = manual + pseudo
    if not items:
        raise TrainingError("no spans to train on in the training set")
    counts = np.array([len(it.mixed.spans) for it in items], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    embeddings = np.empty((int(counts.sum()), backend.dim))
    for item, lo, n in zip(items, starts.tolist(), counts.tolist()):
        embeddings[lo:lo + n] = backend.span_embeddings(
            item.mixed, [s.range for s in item.mixed.spans])
    by_count = []
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        by_count.append((idx, starts[idx, None] + np.arange(n)))
    return PackedItems(
        report_ids=[it.report_id for it in items],
        embeddings=embeddings,
        targets=np.concatenate([it.targets for it in items]),
        losses=np.zeros(len(embeddings)),
        starts=starts,
        counts=counts,
        pseudo=np.arange(len(items)) >= len(manual),
        first_pseudo=int(counts[:len(manual)].sum()),
        by_count=by_count,
    )


def _span_coefficients(weight, group_size, counts) -> np.ndarray:
    """Per-span objective weights: an item in a group of group_size items
    spreads weight / group_size evenly over its counts spans."""
    return np.repeat(weight / (group_size * counts), counts)


def forward_backward(clf: SpanClassifier, S, y, coeff, p, name_reports) -> None:
    """The step kernel: forward and backward over one batch's rows.

    The batch objective is coeff @ span_loss(p, y). Writes the scores into p
    and the gradient into clf.grad; returns nothing. With coeff finite, the
    logit gradient coeff * (p - y) is non-finite on exactly the rows whose
    span loss is, so a non-finite one raises TrainingError naming the reports
    name_reports(mask) returns for those rows.
    """
    a1 = clf.forward(S, out=p)[1]
    d_logit = p - y
    d_logit *= coeff
    if not np.isfinite(d_logit).all():
        raise TrainingError(
            f"non-finite loss for reports {name_reports(~np.isfinite(d_logit))}")
    clf.backward(S, a1, d_logit)


def loss_and_grads(clf: SpanClassifier, pack: PackedItems, lam: float):
    """L_all of one batch that holds the whole pack, through the step kernel.

    The manual items form one group of weight 1 and the pseudo items one of
    weight lam; the objective is sum_group weight * mean_item mean_span bce.
    Returns (loss, a copy of the classifier grads by name).
    """
    n_pseudo = int(pack.pseudo.sum())
    group_size = np.where(pack.pseudo, n_pseudo, len(pack.report_ids) - n_pseudo)
    coeff = _span_coefficients(np.where(pack.pseudo, lam, 1.0), group_size, pack.counts)
    p = np.empty(len(pack.targets))
    forward_backward(clf, pack.embeddings, pack.targets, coeff, p,
                     lambda bad: pack.owners(np.flatnonzero(bad)))
    return (float(coeff @ span_loss(p, pack.targets)),
            {name: g.copy() for name, g in clf.grads().items()})


def _mean(values: np.ndarray) -> float:
    """Plain left-to-right float sum over the count (0.0 for no values)."""
    return float(np.cumsum(values)[-1]) / len(values) if len(values) else 0.0


def train_epoch(clf: SpanClassifier, opt: Adam, pack: PackedItems, config: TrainConfig,
                rng) -> dict:
    """One full pass in shuffled mixed batches; records per-span losses.

    The items are shuffled and cut into batches of batch_size; a batch visits
    its manual items, then its pseudo items, each in shuffled order, and
    weighs them as groups (1 and lambda). The whole visit order is built in
    one vectorised pass, and a step is the step kernel and an Adam update on
    contiguous slices of one gathered epoch. The span losses are computed
    from the epoch's scores once, elementwise, so they equal per-step losses
    bit for bit, and are scattered back once.
    """
    n_items = len(pack.report_ids)
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
    p = np.empty(len(rows))
    params, grads = {"theta": clf.theta}, {"theta": clf.grad}
    bounds = firsts[::config.batch_size].tolist() + [int(ends[-1])]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        forward_backward(clf, S[lo:hi], y[lo:hi], coeff[lo:hi], p[lo:hi],
                         lambda bad, lo=lo: pack.owners(rows[lo + np.flatnonzero(bad)]))
        opt.step(params, grads)
    pack.losses[rows] = span_loss(p, y)
    means = pack.item_means()[visit]
    l_manual = _mean(means[~pseudo])
    l_pseudo = _mean(means[pseudo])
    return {
        "l_manual": l_manual,
        "l_pseudo": l_pseudo,
        "l_all": l_manual + config.lam * l_pseudo,
    }


def refresh_pseudo_labels(clf: SpanClassifier, pack: PackedItems, gamma: float) -> int:
    """Re-predict pseudo spans and replace labels the gate lets through.

    A label is replaced when the span's last loss was strictly below gamma
    (gamma=0 therefore never replaces; gamma=inf replaces everything). The
    gate is one comparison over the pseudo rows' losses; only items it lets
    a span of through are scored from their packed embeddings, one item at
    a time, as classify_report scores.
    """
    gate = pack.losses < gamma
    passed = pack.first_pseudo + np.flatnonzero(gate[pack.first_pseudo:])
    ends = pack.starts + pack.counts
    for k in dict.fromkeys(np.searchsorted(ends, passed, side="right").tolist()):
        lo, hi = pack.starts[k], ends[k]
        item_gate = gate[lo:hi]
        pack.targets[lo:hi][item_gate] = clf.scores(pack.embeddings[lo:hi])[item_gate]
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
    opt = Adam(config.lr_classifier)

    manual, pseudo = init_pseudo_labels(train_ds, span_labels)
    if config.lam == 0.0:
        if not manual:
            raise TrainingError(
                "lambda=0 trains on the manual span labels alone, but no training "
                "report has manual span labels")
        if pseudo:
            # zero-weighted pseudo terms contribute nothing; dropping them keeps
            # the trajectory identical to training on the manual set alone
            log.info("lambda=0: training on the %d manually labeled reports only", len(manual))
            pseudo = []
    log.info("training on %d manual and %d pseudo-labeled reports", len(manual), len(pseudo))
    pack = pack_items(backend, manual, pseudo)

    rng = np.random.default_rng(s_shuffle)
    telemetry = []
    for epoch in range(1, config.epochs + 1):
        stats = train_epoch(clf, opt, pack, config, rng)
        refreshed = refresh_pseudo_labels(clf, pack, config.gamma)
        row = {"epoch": epoch, **{k: round(v, 6) for k, v in stats.items()},
               "refreshed": refreshed}
        telemetry.append(row)
        if epoch == 1 or epoch % 10 == 0 or epoch == config.epochs:
            log.info("epoch %d: l_all=%.4f (manual %.4f, pseudo %.4f), refreshed %d",
                     epoch, stats["l_all"], stats["l_manual"], stats["l_pseudo"], refreshed)

    # one item at a time, as classify_report scores
    scores = np.concatenate([clf.scores(pack.embeddings[lo:lo + n])
                             for lo, n in zip(pack.starts.tolist(), pack.counts.tolist())])
    try:
        tau = otsu_threshold(scores)
    except ValidationError as err:
        log.warning("threshold fit failed (%s); falling back to 0.5", err)
        tau = 0.5
    model = SpanScoringModel(backend=backend, classifier=clf, threshold=tau,
                             train_config=plain(asdict(config)))
    return model, telemetry
