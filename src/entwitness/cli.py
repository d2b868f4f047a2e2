"""Command-line entry point for reproducible witness experiments.

Subcommands: gen (datasets), train (one model + report), sweep (accuracy and
precision-1 recall across m), weights (export learned measurement matrix).
Every run that writes files records all its parsed flags in <out>.config.json.
All randomness flows from --seed through labeled sub-streams, so identical
flags reproduce identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import data, nn, witness
from .quantum import FEATURE_NAMES


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _measurement_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 15:
        raise argparse.ArgumentTypeError(f"m must lie in 1..15, got {value}")
    return value


def _open_unit(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly inside (0, 1), got {value}")
    return value


def _list_of(item):
    """Parser of comma-separated values, each checked by `item`."""

    def parse(text: str) -> list:
        try:
            return [item(part) for part in text.split(",") if part]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _fraction_triple(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions")
    values = tuple(float(p) for p in parts)
    if any(v <= 0 for v in values) or abs(sum(values) - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError("fractions must be positive and sum to 1")
    return values


def _write_config(args: argparse.Namespace) -> None:
    """Record every parsed flag, and the subcommand, in <out>.config.json."""
    payload = {key: value for key, value in vars(args).items() if key != "func"}
    data._write_atomic(
        _stem(args.out) + ".config.json", json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _stem(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext else path


def _train_config(args: argparse.Namespace, seed: int) -> nn.TrainConfig:
    return nn.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=seed,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    ds = data.generate(
        count=args.n,
        symmetry=args.symmetry,
        seed=args.seed,
        rank=args.rank,
        balance=args.balance,
    )
    data.save(ds, args.out)
    _write_config(args)
    sep = ds.manifest["separable_fraction"]
    print(
        f"wrote {len(ds)} samples to {args.out} "
        f"(separable {sep:.4f}, entangled {1.0 - sep:.4f})"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    ds = data.load(args.data)
    train_ds, val_ds, test_ds = data.split(
        ds, args.split, data.derived_seed(args.seed, data.STREAM_SPLIT)
    )
    architecture = "nonlinear_full" if args.arch == "full" else "linear_code"
    model = nn.model_new(
        architecture,
        data.derived_seed(args.seed, data.STREAM_INIT),
        m=args.m,
        hidden=args.hidden,
    )
    config = _train_config(args, data.derived_seed(args.seed, data.STREAM_SHUFFLE))
    trained, history = nn.train(model, train_ds, val_ds, config)

    nn.save_model(trained, args.out)
    stem = _stem(args.out)
    lines = ["epoch,train_loss,validation_loss,validation_accuracy"]
    for i, rec in enumerate(history.epochs):
        lines.append(
            f"{i},{rec.train_loss:.17g},{rec.validation_loss:.17g},"
            f"{rec.validation_accuracy:.17g}"
        )
    data._write_atomic(stem + ".history.csv", "\n".join(lines) + "\n")

    report = witness.evaluate(trained, test_ds, args.threshold)
    witness.save_report(report, stem + ".report.json")
    _write_config(args)
    print(
        f"trained {architecture} (best epoch {history.best_epoch}); "
        f"test accuracy {report.accuracy:.4f} at threshold {args.threshold}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _train_config(args, 0)
    rows = witness.sweep_measurements(
        m_values=args.m,
        symmetry=args.symmetry,
        sizes=tuple(args.sizes),
        seeds=[args.seed + i for i in range(args.seeds)],
        train_config=config,
        rank=args.rank,
    )
    stem = _stem(args.out)
    witness.save_sweep(rows, args.out, stem + ".json")
    _write_config(args)
    for row in rows:
        print(
            f"m={row.m} symmetry={row.symmetry} seed={row.seed} "
            f"accuracy={row.accuracy:.4f} recall_p1={row.recall_at_precision_one:.4f}"
        )
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    model = nn.load_model(args.model)
    matrix = nn.code_weights(model)
    lines = [",".join(FEATURE_NAMES)]
    for row in matrix:
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        data._write_atomic(args.out, text)
        _write_config(args)
        print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} weight matrix to {args.out}")
    return 0


def _add_train_flags(parser: argparse.ArgumentParser, epochs_default: int) -> None:
    parser.add_argument("--epochs", type=_positive_int, default=epochs_default)
    parser.add_argument("--batch", type=_positive_int, default=256)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--patience", type=_positive_int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwitness",
        description="Learn few-measurement entanglement witnesses for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled dataset")
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--symmetry", choices=data.SYMMETRY_MODES, default="none")
    gen.add_argument("--rank", type=int, choices=(1, 2, 3, 4), default=4)
    gen.add_argument("--balance", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a classifier and report on the test split")
    train.add_argument("--data", required=True)
    train.add_argument("--arch", choices=("full", "linear"), default="full")
    train.add_argument("--m", type=_measurement_count, default=None)
    train.add_argument("--hidden", type=_list_of(_positive_int), default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--split", type=_fraction_triple, default=(0.8, 0.1, 0.1))
    train.add_argument("--threshold", type=_open_unit, default=0.5)
    _add_train_flags(train, epochs_default=120)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    sweep = sub.add_parser("sweep", help="accuracy and precision-1 recall across m")
    sweep.add_argument("--m", type=_list_of(_measurement_count), required=True)
    sweep.add_argument("--symmetry", choices=data.SYMMETRY_MODES, default="none")
    sweep.add_argument("--sizes", type=_list_of(_positive_int), default=[50_000, 10_000, 20_000])
    sweep.add_argument("--seeds", type=_positive_int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--rank", type=int, choices=(1, 2, 3, 4), default=4)
    _add_train_flags(sweep, epochs_default=60)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    weights = sub.add_parser("weights", help="export the learned measurement matrix")
    weights.add_argument("--model", required=True)
    weights.add_argument("--out", default=None)
    weights.set_defaults(func=cmd_weights)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and len(args.sizes) != 3:
        parser.error("--sizes needs three comma-separated counts")
    if args.command == "sweep" and not args.m:
        parser.error("--m needs at least one value")
    if args.command == "train" and args.arch == "linear" and args.m is None:
        parser.error("--m is required when --arch linear")
    if args.command == "train" and args.arch == "full":
        if args.m is not None:
            parser.error("--m applies only to --arch linear")
        if args.hidden is not None and len(args.hidden) < 2:
            parser.error("--hidden with --arch full needs relu widths, then the code width")
    try:
        return args.func(args)
    except (
        ValueError,
        OSError,
        json.JSONDecodeError,
        nn.TrainingDivergedError,
        witness.CalibrationDegenerateError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
