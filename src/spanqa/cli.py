"""Command-line pipeline: gen-corpus, merge, train, predict, evaluate, sweep.

Every JSON-Lines artifact gets a `<name>.meta.json` sidecar carrying the
resolved configuration and a format version; single-object JSON artifacts
embed them inline. All file writes are atomic (temp file + rename), so a
failing run never leaves a partial artifact at its final path.

A JSON config file (--config) may supply any flag of the chosen subcommand
by its destination name; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

from . import __version__, diffmerge
from .aggregate import AGGREGATORS, classify_report
from .corpus import (
    SynthesisConfig,
    generate_synthetic_corpus,
    load_report_pairs,
    load_span_labels,
    save_report_pairs,
    save_span_labels,
    split_dataset,
)
from .encoder import external_backend
from .fileio import atomic_write, read_jsonl
from .metrics import confusion, macro_metrics
from .model import FORMAT_VERSION, load_model, save_model
from .selftrain import TrainConfig, TrainingError, train
from .types import ParseError, ValidationError

log = logging.getLogger("spanqa")


def _jsonl(records) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def _run_config(args) -> dict:
    skip = {"func", "command", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, float) and math.isinf(value):
            value = "inf"
        out[key] = value
    return out


def _write_meta(path, args) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "tool": f"spanqa {__version__}",
        "command": args.command,
        "config": _run_config(args),
    }
    atomic_write(str(path) + ".meta.json",
                 json.dumps(meta, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        gamma=args.gamma, lam=args.lam, epochs=args.epochs, batch_size=args.batch_size,
        lr_classifier=args.lr_classifier, seed=args.seed,
        dim=args.dim, window=args.window, buckets=args.buckets, hidden=args.hidden)


def _resolve_backend(args):
    if args.backend == "external":
        if not args.embeddings:
            raise ValidationError("--backend external requires --embeddings")
        return external_backend(args.embeddings)
    return None  # hashed baseline, built inside train()


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_corpus(args) -> int:
    cfg = SynthesisConfig(
        n_reports=args.n, benign_edit_rate=args.benign_rate,
        harmful_edit_rate=args.harmful_rate, seed=args.seed,
        avg_length=args.avg_length)
    dataset, labels = generate_synthetic_corpus(cfg)
    save_report_pairs(dataset, args.output)
    _write_meta(args.output, args)
    q, u, _ = dataset.label_counts()
    if args.span_labels_out:
        save_span_labels(labels, args.span_labels_out)
        _write_meta(args.span_labels_out, args)
    print(f"wrote {len(dataset)} pairs ({q} qualified, {u} unqualified) to {args.output}")
    return 0


def cmd_merge(args) -> int:
    dataset = load_report_pairs(args.input)
    records = []
    for pair in dataset:
        mixed = diffmerge.merge_reports(pair)
        records.append({
            "id": mixed.report_id,
            "chars": mixed.chars,
            "tags": mixed.tags,
            "spans": [{"range": [s.start, s.end], "kind": s.kind,
                       "deleted": s.deleted, "inserted": s.inserted}
                      for s in mixed.spans],
        })
    atomic_write(args.output, _jsonl(records))
    _write_meta(args.output, args)
    n_spans = sum(len(r["spans"]) for r in records)
    print(f"merged {len(records)} pairs ({n_spans} revised spans) to {args.output}")
    return 0


def cmd_train(args) -> int:
    dataset = load_report_pairs(args.input)
    span_labels = load_span_labels(args.span_labels, dataset) if args.span_labels else {}
    model, telemetry = train(dataset, span_labels, _train_config(args),
                             backend=_resolve_backend(args))
    save_model(model, args.model_out)
    _write_meta(args.model_out, args)
    if args.telemetry:
        atomic_write(args.telemetry, _jsonl(telemetry))
        _write_meta(args.telemetry, args)
    print(f"trained on {len(dataset)} reports; threshold {model.threshold:.4f}; "
          f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    dataset = load_report_pairs(args.input)
    model = load_model(args.model, embeddings_path=args.embeddings)
    records = []
    for pair in dataset:
        result = classify_report(pair, model, args.aggregator)
        records.append({
            "report_id": result.report_id,
            "verdict": result.verdict,
            "aggregate_score": result.aggregate_score,
            "span_scores": result.span_scores,
            "aggregator": result.aggregator,
            "threshold": result.threshold,
        })
    atomic_write(args.output, _jsonl(records))
    _write_meta(args.output, args)
    flagged = sum(1 for r in records if r["verdict"] == 0)
    print(f"predicted {len(records)} reports ({flagged} unqualified) to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = load_report_pairs(args.input)
    predictions = {}
    for lineno, rec in read_jsonl(args.predictions):
        where = f"{args.predictions}:{lineno}"
        if "report_id" not in rec or "verdict" not in rec:
            raise ParseError(f"{where}: not a prediction record")
        if not isinstance(rec["report_id"], str):
            raise ValidationError(f"{where}: 'report_id' must be a string, "
                                  f"got {type(rec['report_id']).__name__}")
        if type(rec["verdict"]) is not int or rec["verdict"] not in (0, 1):
            raise ValidationError(f"{where}: 'verdict' must be 0 or 1, got {rec['verdict']!r}")
        if rec["report_id"] in predictions:
            raise ValidationError(f"{where}: duplicate report id {rec['report_id']!r}")
        predictions[rec["report_id"]] = rec

    rows = []
    for pair in dataset:
        if pair.label is None:
            log.warning("report %s has no gold label; skipped", pair.id)
            continue
        rec = predictions.get(pair.id)
        if rec is None:
            raise ValidationError(f"no prediction for labeled report {pair.id!r}")
        rows.append({"report_id": pair.id, "gold": pair.label,
                     "verdict": rec["verdict"], "correct": rec["verdict"] == pair.label})
    if not rows:
        raise ValidationError("no labeled reports to evaluate")
    metrics = macro_metrics(confusion([r["verdict"] for r in rows],
                                      [r["gold"] for r in rows]))
    doc = {
        "format_version": FORMAT_VERSION,
        "config": _run_config(args),
        "n_reports": len(rows),
        "metrics": {k: round(v, 2) for k, v in metrics.items()},
        "zero_division": "undefined per-class precision/recall counted as 0",
    }
    atomic_write(args.output, json.dumps(doc, ensure_ascii=False, sort_keys=True,
                                         indent=2) + "\n")
    if args.verdicts:
        atomic_write(args.verdicts, _jsonl(rows))
        _write_meta(args.verdicts, args)
    print("macro metrics: " + ", ".join(f"{k}={v:.2f}" for k, v in metrics.items()))
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad grid {text!r}; expected comma-separated numbers") from None
    if not values:
        raise ValidationError(f"empty grid {text!r}")
    return values


def cmd_sweep(args) -> int:
    dataset = load_report_pairs(args.input)
    span_labels = load_span_labels(args.span_labels, dataset) if args.span_labels else {}
    gammas = _parse_grid(args.gamma_grid)
    lams = _parse_grid(args.lambda_grid)
    train_ds, test_ds = split_dataset(dataset, args.test_fraction, args.seed)
    train_ids = {p.id for p in train_ds}
    train_labels = {rid: rec for rid, rec in span_labels.items() if rid in train_ids}
    backend = _resolve_backend(args)  # frozen: every cell only reads it

    rows = []
    cell = 0
    for gamma in gammas:
        for lam in lams:
            cell_seed = args.seed + cell
            cfg = _train_config(args)
            cfg.gamma, cfg.lam, cfg.seed = gamma, lam, cell_seed
            model, _ = train(train_ds, train_labels, cfg, backend=backend)
            preds = [classify_report(p, model, args.aggregator).verdict for p in test_ds]
            golds = [p.label for p in test_ds]
            metrics = macro_metrics(confusion(preds, golds))
            rows.append({"gamma": gamma, "lambda": lam, "seed": cell_seed,
                         **{k: round(v, 2) for k, v in metrics.items()}})
            log.info("sweep cell gamma=%s lambda=%s: f1=%.2f", gamma, lam, rows[-1]["f1"])
            cell += 1

    best = max(rows, key=lambda r: r["f1"])
    doc = {"format_version": FORMAT_VERSION, "config": _run_config(args),
           "rows": rows, "best": best}
    atomic_write(args.output, json.dumps(doc, ensure_ascii=False, sort_keys=True,
                                         indent=2) + "\n")
    lines = [f"{'gamma':>8} {'lambda':>8} {'acc':>7} {'pre':>7} {'rec':>7} {'f1':>7}"]
    for r in rows:
        lines.append(f"{r['gamma']:>8} {r['lambda']:>8} {r['acc']:>7.2f} "
                     f"{r['pre']:>7.2f} {r['rec']:>7.2f} {r['f1']:>7.2f}")
    lines.append(f"best cell: gamma={best['gamma']} lambda={best['lambda']} "
                 f"(f1={best['f1']:.2f}, aggregator={args.aggregator})")
    summary = "\n".join(lines) + "\n"
    if args.summary:
        atomic_write(args.summary, summary)
    print(summary, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_train_flags(sub):
    sub.add_argument("--gamma", type=float, default=0.10,
                     help="pseudo-label refresh loss gate (default 0.10)")
    sub.add_argument("--lam", type=float, default=1.0,
                     help="pseudo loss weight (default 1.0)")
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--batch-size", type=int, default=8)
    sub.add_argument("--lr-classifier", type=float, default=1e-3)
    sub.add_argument("--dim", type=int, default=64, help="embedding dimension")
    sub.add_argument("--window", type=int, default=2, help="context window radius")
    sub.add_argument("--buckets", type=int, default=4096, help="hash buckets")
    sub.add_argument("--hidden", type=int, default=32, help="classifier hidden units")
    sub.add_argument("--backend", choices=["baseline", "external"], default="baseline")
    sub.add_argument("--embeddings", help="precomputed embeddings file (external backend)")
    sub.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spanqa",
        description="Span-level quality assurance for draft/revised report pairs.")
    parser.add_argument("--version", action="version", version=f"spanqa {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name, func, **kw):
        p = subs.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file supplying flag defaults")
        registry[name] = p
        return p

    p = sub("gen-corpus", cmd_gen_corpus, help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, default=500, help="number of report pairs")
    p.add_argument("--benign-rate", type=float, default=0.05)
    p.add_argument("--harmful-rate", type=float, default=0.05)
    p.add_argument("--avg-length", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="pair file to write")
    p.add_argument("--span-labels-out", help="ground-truth span-label file to write")

    p = sub("merge", cmd_merge, help="diff and merge pairs into tagged mixed reports")
    p.add_argument("--input", required=True, help="pair file")
    p.add_argument("--output", required=True, help="merged JSON-Lines to write")

    p = sub("train", cmd_train, help="self-train a span scorer from report labels")
    p.add_argument("--input", required=True, help="pair file (training set)")
    p.add_argument("--span-labels", help="manual span-label file (optional)")
    p.add_argument("--model-out", required=True)
    p.add_argument("--telemetry", help="per-epoch JSON-Lines telemetry file")
    _add_train_flags(p)

    p = sub("predict", cmd_predict, help="score pairs with a trained model")
    p.add_argument("--input", required=True, help="pair file")
    p.add_argument("--model", required=True)
    p.add_argument("--aggregator", choices=list(AGGREGATORS), default="average")
    p.add_argument("--embeddings", help="embeddings file override for external backend")
    p.add_argument("--output", required=True, help="prediction JSON-Lines to write")

    p = sub("evaluate", cmd_evaluate, help="macro metrics of predictions vs gold labels")
    p.add_argument("--input", required=True, help="pair file with gold labels")
    p.add_argument("--predictions", required=True, help="prediction JSON-Lines")
    p.add_argument("--output", required=True, help="metrics JSON to write")
    p.add_argument("--verdicts", help="per-report verdict JSON-Lines to write")

    p = sub("sweep", cmd_sweep, help="retrain per (gamma, lambda) grid cell and tabulate")
    p.add_argument("--input", required=True, help="pair file")
    p.add_argument("--span-labels", help="manual span-label file (optional)")
    p.add_argument("--gamma-grid", default="0.0,0.05,0.1,0.15,0.2")
    p.add_argument("--lambda-grid", default="0.0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--aggregator", choices=list(AGGREGATORS), default="average")
    p.add_argument("--output", required=True, help="sweep table JSON to write")
    p.add_argument("--summary", help="plain-text summary file to write")
    _add_train_flags(p)

    return parser, registry


def _apply_config_file(parser, registry, argv):
    probe, _ = parser.parse_known_args(argv)
    config_path = getattr(probe, "config", None)
    if not config_path:
        return
    with open(config_path, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValidationError(f"{config_path}: config file must hold a JSON object")
    sub = registry[probe.command]
    known = {action.dest for action in sub._actions}
    unknown = set(values) - known
    if unknown:
        raise ValidationError(
            f"{config_path}: unknown option(s) for {probe.command}: {sorted(unknown)}")
    sub.set_defaults(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        _apply_config_file(parser, registry, argv)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ValidationError, ParseError, TrainingError, OSError, json.JSONDecodeError) as err:
        print(f"spanqa: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
