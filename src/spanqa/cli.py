"""Command-line pipeline: gen-corpus, merge, train, predict, evaluate, sweep.

Every JSON-Lines artifact gets a `<name>.meta.json` sidecar carrying the
resolved configuration and a format version, and so does the model file
(`model.json.meta.json`); the other single-object JSON artifacts, evaluate's
metrics and sweep's table, embed them inline. All file writes are atomic
(temp file + rename), so a failing run never leaves a partial artifact at its
final path, and every JSON artifact is strict JSON, with infinities written
as "inf".

A JSON config file (--config) may supply any flag of the chosen subcommand,
required ones included, by its destination name; explicit command-line flags
win.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
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
from .fileio import (atomic_write, has_lone_surrogate, read_json, read_jsonl, write_json,
                     write_jsonl)
from .metrics import confusion, macro_metrics
from .model import FORMAT_VERSION, load_model, save_model
from .selftrain import TrainConfig, TrainingError, train
from .types import ParseError, ValidationError

log = logging.getLogger("spanqa")


def _run_config(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}
    if args.command in ("train", "sweep"):  # record which backend --embeddings selected
        config["backend"] = "external" if args.embeddings else "baseline"
    return config


def _write_meta(path, args) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "tool": f"spanqa {__version__}",
        "command": args.command,
        "config": _run_config(args),
    }
    write_json(str(path) + ".meta.json", meta)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})


def _resolve_backend(args):
    """The precomputed backend when --embeddings names a file; otherwise None,
    and train() builds the hashed baseline."""
    return external_backend(args.embeddings) if args.embeddings else None


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
    write_jsonl(args.output, records)
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
        write_jsonl(args.telemetry, telemetry)
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
    write_jsonl(args.output, records)
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
    write_json(args.output, doc)
    if args.verdicts:
        write_jsonl(args.verdicts, rows)
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
    scored = []  # the labeled test reports, as evaluate scores them
    for pair in test_ds:
        if pair.label is None:
            log.warning("report %s has no gold label; skipped", pair.id)
        else:
            scored.append(pair)
    if not scored:
        raise ValidationError(
            f"--test-fraction {args.test_fraction} leaves no labeled test report "
            f"({len(train_ds)} train and {len(test_ds)} test reports, none labeled)")
    if not train_ds:
        raise ValidationError(
            f"--test-fraction {args.test_fraction} leaves no training report "
            f"({len(train_ds)} train and {len(test_ds)} test reports)")
    train_ids = {p.id for p in train_ds}
    train_labels = {rid: rec for rid, rec in span_labels.items() if rid in train_ids}
    if 0.0 in lams and not train_labels:
        raise ValidationError(
            "--lambda-grid holds 0, which trains on manual span labels alone, but "
            "no training report has one; give --span-labels or drop 0 from the grid")
    backend = _resolve_backend(args)  # frozen: every cell only reads it

    # every cell's config is built, and so validated, before the first train
    base = _train_config(args)
    # every cell shares --seed: the same table, initialisation and shuffles,
    # so cells differ in gamma and lambda alone
    cells = [dataclasses.replace(base, gamma=gamma, lam=lam)
             for gamma, lam in itertools.product(gammas, lams)]
    rows = []
    for cfg in cells:
        model, _ = train(train_ds, train_labels, cfg, backend=backend)
        preds = [classify_report(p, model, args.aggregator).verdict for p in scored]
        golds = [p.label for p in scored]
        metrics = macro_metrics(confusion(preds, golds))
        rows.append({"gamma": cfg.gamma, "lambda": cfg.lam, "seed": cfg.seed,
                     **{k: round(v, 2) for k, v in metrics.items()}})
        log.info("sweep cell gamma=%s lambda=%s: f1=%.2f", cfg.gamma, cfg.lam, rows[-1]["f1"])

    best_f1 = max(r["f1"] for r in rows)
    ties = [r for r in rows if r["f1"] == best_f1]  # in grid order
    doc = {"format_version": FORMAT_VERSION, "config": _run_config(args),
           "rows": rows, "best": ties[0]}
    write_json(args.output, doc)
    lines = [f"{'gamma':>8} {'lambda':>8} {'acc':>7} {'pre':>7} {'rec':>7} {'f1':>7}"]
    for r in rows:
        lines.append(f"{r['gamma']:>8} {r['lambda']:>8} {r['acc']:>7.2f} "
                     f"{r['pre']:>7.2f} {r['rec']:>7.2f} {r['f1']:>7.2f}")
    cells_text = ", ".join(f"gamma={r['gamma']} lambda={r['lambda']}" for r in ties)
    tie_text = f"{len(ties)} cells tie, " if len(ties) > 1 else ""
    lines.append(f"best cell: {cells_text} "
                 f"({tie_text}f1={best_f1:.2f}, aggregator={args.aggregator})")
    summary = "\n".join(lines) + "\n"
    if args.summary:
        atomic_write(args.summary, (summary,))
    print(summary, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_train_flags(sub):
    """One flag per TrainConfig field, defaulting to the field's default,
    and --embeddings."""
    default = TrainConfig()
    sub.add_argument("--gamma", type=float, default=default.gamma,
                     help="pseudo-label refresh loss gate (default %(default)s)")
    sub.add_argument("--lam", type=float, default=default.lam,
                     help="pseudo loss weight (default %(default)s)")
    sub.add_argument("--epochs", type=int, default=default.epochs)
    sub.add_argument("--batch-size", type=int, default=default.batch_size)
    sub.add_argument("--lr-classifier", type=float, default=default.lr_classifier)
    sub.add_argument("--dim", type=int, default=default.dim, help="embedding dimension")
    sub.add_argument("--window", type=int, default=default.window, help="context window radius")
    sub.add_argument("--buckets", type=int, default=default.buckets, help="hash buckets")
    sub.add_argument("--hidden", type=int, default=default.hidden,
                     help="classifier hidden units")
    sub.add_argument("--embeddings",
                     help="precomputed embeddings file; selects the precomputed backend")
    sub.add_argument("--seed", type=int, default=default.seed)


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
    p.add_argument("--embeddings",
                   help="embeddings file for a model trained on precomputed embeddings")
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


def _config_value(config_path, action, value):
    """A config file's value for `action`, checked and converted as argparse
    checks and converts a command-line value."""
    if value is None and action.default is None:  # an optional file, left unset
        return None
    kind = action.type or str
    if isinstance(value, str) and has_lone_surrogate(value):
        raise ValidationError(f"{config_path}: option {action.dest!r}: {value!r} holds a "
                              "lone surrogate, which UTF-8 cannot encode")
    try:
        if not (isinstance(value, str) or type(value) is kind
                or (kind is float and type(value) is int)):
            raise TypeError
        value = kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{config_path}: option {action.dest!r}: expected "
                              f"{kind.__name__}, got {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValidationError(f"{config_path}: option {action.dest!r}: {value!r} is not "
                              f"one of {list(action.choices)}")
    return value


def _apply_config_file(parser, registry, argv):
    """Reject any command-line string holding a lone surrogate, then make a
    --config file's values the subcommand's defaults. A value the file
    supplies satisfies a required flag; a command-line value still wins."""
    # probe for --config without requiring flags the file may supply
    required = [action for sub in registry.values() for action in sub._actions
                if action.required]
    for action in required:
        action.required = False
    try:
        probe, _ = parser.parse_known_args(argv)
    finally:
        for action in required:
            action.required = True
    for key, value in vars(probe).items():
        if isinstance(value, str) and has_lone_surrogate(value):
            raise ValidationError(f"--{key.replace('_', '-')}: {value!r} holds a lone "
                                  "surrogate, which UTF-8 cannot encode")
    config_path = probe.config
    if not config_path:
        return
    values = read_json(config_path)
    sub = registry[probe.command]
    actions = {action.dest: action for action in sub._actions}
    unknown = set(values) - set(actions)
    if unknown:
        raise ValidationError(
            f"{config_path}: unknown option(s) for {probe.command}: {sorted(unknown)}")
    defaults = {key: _config_value(config_path, actions[key], value)
                for key, value in values.items()}
    sub.set_defaults(**defaults)
    for key, value in defaults.items():
        if value is not None:
            actions[key].required = False


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
    except (ValidationError, ParseError, TrainingError, OSError) as err:
        print(f"spanqa: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
