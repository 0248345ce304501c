"""Weakly supervised training loop.

Span targets come from two places: a small manually span-labeled set, and a
pseudo-labeled set whose spans inherit the report-level label. Each epoch
minimizes  L_all = L_manual + lambda * L_pseudo  over mixed mini-batches,
then refreshes pseudo-labels: a span whose last loss fell below the gate
gamma gets its label replaced by the current model score (kept soft).
The decision threshold is fitted once, by Otsu, on the training span scores
after the final epoch. lambda = 0 trains on the manual spans alone, so train()
merges only reports with a span-label record, and none unless has_manual_span.

The span encoder is frozen: only the classifier is trained, so one pass over
the training set, before the first epoch, merges each report and embeds its
spans at once into flat arrays that also hold the targets and the last losses
(`init_pseudo_labels`). They are the only copy of the training set: an epoch
is one gather followed by steps on contiguous slices, and the refresh and the
threshold fit both score the whole pack by span-count group (`pack_scores`).
`train_epoch` is the one place L_all and its gradient are built: a step runs
the classifier forward into one epoch-wide score buffer and backward into its
flat `grad`, which one in-place Adam update applies to its flat `theta`; the
span losses are computed once per epoch, from all the step scores at once.
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
    """Training aborted (non-finite loss, Adam overflow or empty training signal)."""


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
class PackedItems:
    """Every training item's spans in flat arrays, manual items first, as
    init_pseudo_labels lays them out in its one pass over the training set:
    the one copy of the training embeddings, targets and last losses.

    Item k, named report_ids[k], owns the rows starts[k] : starts[k] +
    counts[k] of `embeddings`, `targets` and `losses`; item k is
    pseudo-labeled exactly when starts[k] >= first_pseudo.
    """

    report_ids: list[str]
    embeddings: np.ndarray  # n_spans x dim
    targets: np.ndarray     # per span
    losses: np.ndarray      # per span: its loss at the last step that visited it
    starts: np.ndarray      # per item
    counts: np.ndarray      # per item
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


def has_manual_span(train: Dataset, span_labels: SpanLabelSet) -> bool:
    """Whether a training report has a manual label on a span, which lambda = 0
    needs: a spanless report's empty record trains on nothing."""
    return any(span_labels[p.id].span_labels for p in train if p.id in span_labels)


def init_pseudo_labels(backend, train: Dataset, span_labels: SpanLabelSet) -> PackedItems:
    """Pack a training set: manual items first, then pseudo-labeled ones.

    Reports with manual span labels keep them; every other labeled report
    gets all spans initialized to its report-level label. A report with no
    record and no report label is skipped unmerged, a spanless one after its
    merge. Each other report is merged, and its spans embedded by the same
    backend.span_embeddings call classify_report makes, before the next is
    merged: training merges and embeds a report nowhere else. The losses
    start at zero. See PackedItems.
    """
    manual, pseudo = [], []  # (report id, span embeddings, span targets) per item
    skipped_unlabeled = skipped_spanless = 0
    for pair in train:
        record = span_labels.get(pair.id)
        if record is None and pair.label is None:
            skipped_unlabeled += 1
            continue
        mixed = diffmerge.merge_reports(pair)
        n_spans = len(mixed.spans)
        if record is not None:
            record.check_span_count(pair.id, n_spans)
        if not n_spans:
            skipped_spanless += 1
        elif record is not None:
            manual.append((pair.id, backend.span_embeddings(mixed),
                           np.asarray(record.span_labels, dtype=np.float64)))
        else:
            pseudo.append((pair.id, backend.span_embeddings(mixed),
                           np.full(n_spans, float(pair.label))))
    if skipped_unlabeled:
        log.warning("skipped %d reports without any label", skipped_unlabeled)
    if skipped_spanless:
        log.info("skipped %d spanless reports (no training signal)", skipped_spanless)
    if not (manual or pseudo):
        raise TrainingError("no spans to train on in the training set")
    log.info("training on %d manual and %d pseudo-labeled reports", len(manual), len(pseudo))
    report_ids, embeddings, targets = zip(*manual, *pseudo)
    counts = np.array([len(t) for t in targets], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    by_count = []
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        by_count.append((idx, starts[idx, None] + np.arange(n)))
    return PackedItems(
        report_ids=list(report_ids),
        embeddings=np.concatenate(embeddings),
        targets=np.concatenate(targets),
        losses=np.zeros(int(counts.sum())),
        starts=starts,
        counts=counts,
        first_pseudo=int(counts[:len(manual)].sum()),
        by_count=by_count,
    )


def _mean(values: np.ndarray) -> float:
    """Sum added left to right, over the count (0.0 for no values): the rule
    `aggregate`'s `average` follows."""
    return float(np.cumsum(values)[-1]) / len(values) if len(values) else 0.0


def train_epoch(clf: SpanClassifier, opt: Adam, pack: PackedItems, config: TrainConfig,
                rng) -> dict:
    """One full pass in shuffled mixed batches; records per-span losses.

    The items are shuffled and cut into batches of batch_size; a batch visits
    its manual items, then its pseudo items, each in shuffled order, and
    weighs them as groups (1 and lambda). The whole visit order is built in
    one vectorised pass. A step runs on contiguous slices of one gathered
    epoch: forward, the logit gradient of its share of L_all, backward into
    clf.grad and an Adam update; a non-finite loss raises TrainingError naming
    the reports that own it. The span losses are computed from the epoch's
    scores once, elementwise, so they equal per-step losses bit for bit, and
    are scattered back once.
    """
    n_items = len(pack.report_ids)
    batch_size = min(config.batch_size, n_items)  # also keeps a huge int out of numpy
    order = rng.permutation(n_items)
    # a stable sort on (batch, group) puts each batch's manual items first
    key = np.arange(n_items) // batch_size * 2 + (pack.starts[order] >= pack.first_pseudo)
    by_key = np.argsort(key, kind="stable")
    visit = order[by_key]
    key = key[by_key]
    counts = pack.counts[visit]
    pseudo = key % 2 == 1  # the group half of the key
    # the one group-weight rule: the items with one key form a group of weight
    # lambda if pseudo, 1 if manual, spread evenly over its items and their spans
    coeff = np.repeat(np.where(pseudo, config.lam, 1.0) / (np.bincount(key)[key] * counts),
                      counts)
    ends = np.cumsum(counts)
    firsts = ends - counts
    rows = np.repeat(pack.starts[visit] - firsts, counts) + np.arange(ends[-1])
    S = pack.embeddings[rows]
    y = pack.targets[rows]
    p = np.empty(len(rows))
    params, grads = {"theta": clf.theta}, {"theta": clf.grad}
    bounds = firsts[::batch_size].tolist() + [int(ends[-1])]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        S_b, p_b = S[lo:hi], p[lo:hi]
        a1 = clf.forward(S_b, out=p_b)[1]
        d_logit = p_b - y[lo:hi]
        d_logit *= coeff[lo:hi]
        # coeff is finite, so d_logit is non-finite on exactly the rows whose
        # span loss is: checking it names the reports that own them
        if not np.isfinite(d_logit).all():
            raise TrainingError(
                f"non-finite loss for reports {pack.owners(rows[lo:hi][~np.isfinite(d_logit)])}")
        clf.backward(S_b, a1, d_logit)
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


def pack_scores(clf: SpanClassifier, pack: PackedItems) -> np.ndarray:
    """Packed span scores, by one clf.scores call on the stack of each span-count
    group: bit for bit the scores classify_report gives each item."""
    scores = np.empty(len(pack.targets))
    for _, rows in pack.by_count:
        scores[rows] = clf.scores(pack.embeddings[rows])
    return scores


def refresh_pseudo_labels(clf: SpanClassifier, pack: PackedItems, gamma: float) -> int:
    """Re-predict pseudo spans and replace the labels of those whose last loss
    was strictly below gamma (so gamma=0 never replaces and gamma=inf replaces
    everything), scoring the whole pack by pack_scores if any pass.

    The loss is H(y) + KL(y||p) >= H(y), so the gate has three regimes. Below
    ln 2 a hard label passes only within 1 - exp(-gamma) < 0.5 of its score
    and a soft one only if H(y) < gamma, so a refresh keeps every label on its
    side of 0.5, apart from the score's drift within one epoch; near ln 2 that
    drift moves some labels across; above ln 2 the labels follow the model.
    On acceptance, training refreshes 127 labels at gamma = 0.69, 12,727 at 0.7.
    """
    gate = pack.losses < gamma
    gate[:pack.first_pseudo] = False
    if gate.any():
        pack.targets[gate] = pack_scores(clf, pack)[gate]
    return int(np.count_nonzero(gate))


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

    if config.lam == 0.0:
        if not has_manual_span(train_ds, span_labels):
            raise TrainingError("lambda=0 trains on the manual span labels alone, but no "
                                "training report has manual span labels")
        # zero-weighted pseudo terms contribute nothing; leaving their reports
        # out keeps the trajectory identical to training on the manual set alone
        train_ds = Dataset([p for p in train_ds if p.id in span_labels])
    pack = init_pseudo_labels(backend, train_ds, span_labels)

    rng = np.random.default_rng(s_shuffle)
    telemetry = []
    for epoch in range(1, config.epochs + 1):
        stats = train_epoch(clf, opt, pack, config, rng)
        if not opt.finite():
            raise TrainingError(f"epoch {epoch}: a gradient's square overflowed Adam's "
                                f"second moment (lam={config.lam:g})")
        refreshed = refresh_pseudo_labels(clf, pack, config.gamma)
        row = {"epoch": epoch, **{k: round(v, 6) for k, v in stats.items()},
               "refreshed": refreshed}
        telemetry.append(row)
        if epoch == 1 or epoch % 10 == 0 or epoch == config.epochs:
            log.info("epoch %d: l_all=%.4f (manual %.4f, pseudo %.4f), refreshed %d",
                     epoch, stats["l_all"], stats["l_manual"], stats["l_pseudo"], refreshed)

    try:
        tau = otsu_threshold(pack_scores(clf, pack))
    except ValidationError as err:
        log.warning("threshold fit failed (%s); falling back to 0.5", err)
        tau = 0.5
    model = SpanScoringModel(backend=backend, classifier=clf, threshold=tau,
                             train_config=plain(asdict(config)))
    return model, telemetry
