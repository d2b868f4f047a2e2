"""Command-line entry point for reproducible witness experiments.

Subcommands: gen (datasets), train (one model, calibrated into a precision-1
witness), sweep (accuracy and precision-1 recall across m), weights (export
learned measurement matrix). Every run that writes files records all its
parsed flags in <out>.config.json. The formats only users read (history, report,
weights and sweep files, and the config record) are written here; those the program
reads back belong to their readers, datasets to `data` and model files to `nn`.
All randomness flows from --seed through labeled sub-streams, so identical
flags reproduce identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple
from typing import Iterable, Sequence

from . import data, nn, witness
from .quantum import FEATURE_NAMES, RANKS

_ARCH = {"full": "nonlinear_full", "linear": "linear_code"}  # --arch value: nn's architecture


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _list_of(item):
    """Parser of comma-separated values, each checked by `item`; an empty item is an error."""

    def parse(text: str) -> list:
        parts = text.split(",")
        if not all(parts):
            raise argparse.ArgumentTypeError(f"empty item in {text!r}")
        try:
            return [item(part) for part in parts]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _csv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """A header line and one line per row; floats as .17g, which reads back to the same
    value, everything else through str."""
    lines = [",".join(header)]
    lines += (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows)
    return "\n".join(lines) + "\n"


def _report_payload(report: witness.WitnessReport) -> dict:
    """A witness report as the report file holds it: counts, rates and threshold."""
    counts = ("true_separable_correct", "false_positive", "false_negative",
              "true_entangled_correct")
    return {
        "counts": {name: getattr(report, name) for name in counts},
        "rates": {name: getattr(report, name) for name in ("accuracy", "precision", "recall")},
        "threshold": report.threshold,
    }


def _write_config(args: argparse.Namespace) -> None:
    """Record every parsed flag, and the subcommand, in <out>.config.json."""
    payload = {key: value for key, value in vars(args).items() if key != "func"}
    data._write_atomic(_output_paths(args)[-1], data._json_text(payload))


def _output_paths(args: argparse.Namespace) -> list[str]:
    """Every file the command writes: --out, the files beside it, and <stem>.config.json
    last. `main` refuses them, before the command runs, unless they are distinct and
    none is a directory."""
    if args.out is None:
        return []
    stem = os.path.splitext(args.out)[0]
    siblings = {
        "gen": [data.manifest_path(args.out), data.arrays_path(args.out)],
        "train": [stem + ".history.csv", stem + ".report.json"],
        "sweep": [stem + ".json"],
        "weights": [],
    }[args.command]
    return [args.out, *siblings, stem + ".config.json"]


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
    # The loaded corpus is not kept: only its three parts stay alive through training.
    train_ds, val_ds, test_ds = data.split(
        data.load(args.data), args.split, data.derived_seed(args.seed, data.STREAM_SPLIT)
    )
    architecture = _ARCH[args.arch]
    init_seed = data.derived_seed(args.seed, data.STREAM_INIT)
    model = nn.model_new(architecture, init_seed, m=args.m, hidden=args.hidden)
    config = _train_config(args, data.derived_seed(args.seed, data.STREAM_SHUFFLE))
    trained, history = nn.train(model, train_ds, val_ds, config)
    # Made before the first file is written, so a failure here leaves no partial outputs.
    report, calibrated = witness.witness_reports(trained, val_ds, test_ds)

    model_path, history_path, report_path, _ = _output_paths(args)
    nn.save_model(trained, model_path)
    epochs = ((i, *rec) for i, rec in enumerate(history.epochs))
    data._write_atomic(history_path, _csv_text(("epoch", *nn.EpochRecord._fields), epochs))
    payload = _report_payload(report)
    payload["calibrated"] = None if calibrated is None else _report_payload(calibrated)
    data._write_atomic(report_path, data._json_text(payload))
    _write_config(args)
    if calibrated is None:
        verdict = "no precision-1 threshold on the validation split"
    else:
        verdict = (
            f"witness at threshold {calibrated.threshold:.6g}: test recall "
            f"{calibrated.recall:.4f}, {calibrated.false_positive} false positives"
        )
    print(
        f"trained {architecture} (best epoch {trained.best_epoch}); "
        f"test accuracy {report.accuracy:.4f} at threshold 0.5; {verdict}"
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
    csv_path, json_path, _ = _output_paths(args)
    header = ("m", "symmetry", "seed", "accuracy", "recall_p1")
    data._write_atomic(csv_path, _csv_text(header, map(astuple, rows)))
    # Unlike the other JSON files, the rows keep their fields' order.
    data._write_atomic(json_path, json.dumps([asdict(row) for row in rows], indent=2) + "\n")
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
    text = _csv_text(FEATURE_NAMES, matrix)
    if args.out is None:
        sys.stdout.write(text)
    else:
        data._write_atomic(args.out, text)
        _write_config(args)
        print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} weight matrix to {args.out}")
    return 0


def _add_train_flags(parser: argparse.ArgumentParser, epochs_default: int) -> None:
    # Checked by the TrainConfig that `main` builds from them before the command runs.
    defaults = nn.TrainConfig()
    parser.add_argument("--epochs", type=int, default=epochs_default)
    parser.add_argument("--batch", type=int, default=defaults.batch_size)
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    parser.add_argument("--patience", type=int, default=defaults.patience)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwitness",
        description="Learn few-measurement entanglement witnesses for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled dataset")
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--symmetry", choices=data.SYMMETRY_MODES, default="none")
    gen.add_argument("--rank", type=int, choices=RANKS, default=4)
    gen.add_argument("--balance", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a classifier and calibrate it into a witness")
    train.add_argument("--data", required=True)
    train.add_argument("--arch", choices=_ARCH, default="full")
    train.add_argument("--m", type=int, default=None)
    train.add_argument("--hidden", type=_list_of(int), default=None)
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--split", type=_list_of(float), default=[0.8, 0.1, 0.1])
    _add_train_flags(train, epochs_default=nn.TrainConfig().max_epochs)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    sweep = sub.add_parser("sweep", help="accuracy and precision-1 recall across m")
    sweep.add_argument("--m", type=_list_of(int), required=True)
    sweep.add_argument("--symmetry", choices=data.SYMMETRY_MODES, default="none")
    sweep.add_argument("--sizes", type=_list_of(_positive_int), default=[50_000, 10_000, 20_000])
    sweep.add_argument("--seeds", type=_positive_int, default=3)
    sweep.add_argument("--seed", type=_seed, default=0)
    sweep.add_argument("--rank", type=int, choices=RANKS, default=4)
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
    if args.out is not None:  # only weights may go without --out, writing to stdout
        directory = os.path.dirname(args.out) or "."
        if not os.path.isdir(directory):
            parser.error(f"argument --out: directory {directory!r} does not exist")
    paths = _output_paths(args)
    for i, path in enumerate(paths):
        if path in paths[:i]:
            parser.error(f"argument --out: {args.command} would write two files to {path!r}")
        if os.path.isdir(path):
            parser.error(f"argument --out: {path!r} is a directory")
    if args.command == "sweep" and len(args.sizes) != 3:
        parser.error("--sizes needs three comma-separated counts")
    # Each rule is checked by its owner, before any data is read.
    checks = {
        "train": {
            "--split": lambda: data.check_fractions(args.split),
            "--arch/--m/--hidden": lambda: nn.model_widths(_ARCH[args.arch], args.m, args.hidden),
        },
        "sweep": {"--m": lambda: [nn.model_widths("linear_code", m) for m in args.m]},
    }.get(args.command, {})
    if checks:
        checks["--lr/--epochs/--batch/--patience"] = lambda: _train_config(args, 0)
    for flags, check in checks.items():
        try:
            check()
        except ValueError as exc:
            parser.error(f"argument {flags}: {exc}")
    try:
        return args.func(args)
    except (ValueError, OSError, nn.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
