"""The benchmark's three workloads, the spans they record, and their output checks.

Each workload is one closed-loop pass: a single caller runs one job at a time
and the next call starts only after the previous one returns. `execute` holds
the program calls and is the timed part; `verify` runs after the clock stops
and checks the outputs against seed-independent invariants. Every program call
and every check is one attempted operation; a call that raises ends the pass
and counts as one failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from entwitness import cli, data, nn, quantum, witness
from metrics import Quality
from tracer import Span, Target

#: Rows with |det_pt| at or below this are too close to the PPT boundary for
#: the determinant and eigenvalue oracles to be required to agree.
DET_BAND = 1e-12

#: Split fractions passed to `train`, so the workload does not follow the CLI default.
CLI_SPLIT = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one pass of each workload."""

    full_rows: tuple[int, int, int] = (20_000, 4_000, 4_000)  # train, validation, test
    full_epochs: int = 3
    sweep_m: tuple[int, ...] = (1, 3, 9, 15)
    sweep_rows: tuple[int, int, int] = (15_000, 4_000, 4_000)
    sweep_epochs: int = 3
    corpus_rows: int = 60_000
    # m = 9 rather than 3: the precision-1 recall of one m = 3 model varies with
    # a coefficient of variation of about 0.4 across seeds, m = 9 about 0.1.
    corpus_m: int = 9
    corpus_epochs: int = 2
    relabel_rows: int = 2_000


#: The sizes a benchmark run uses.
FULL = Sizes()

#: Small enough for a unit test.
TINY = Sizes(
    full_rows=(600, 200, 200),
    full_epochs=1,
    sweep_m=(1, 3),
    sweep_rows=(600, 200, 200),
    sweep_epochs=1,
    corpus_rows=1_000,
    corpus_epochs=1,
    relabel_rows=50,
)


class Ops:
    """Operations attempted and failed in one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn: Callable, *args, **kwargs) -> Any:
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


# --------------------------------------------------------------------------
# Notes: the facts each span keeps about its call.


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _note_train(args, kwargs, result) -> dict:
    train_ds = _arg(args, kwargs, 1, "train_ds")
    return {
        "rows": len(train_ds),
        "epochs": len(result.history.epochs),
        "max_epochs": _arg(args, kwargs, 3, "config").max_epochs,
        "model": result.model,
        "validation": _arg(args, kwargs, 2, "validation_ds"),
    }


def _note_evaluate(args, kwargs, result) -> dict:
    return {
        "model": _arg(args, kwargs, 0, "model"),
        "dataset": _arg(args, kwargs, 1, "ds"),
        "report": result,
    }


def _note_calibrate(args, kwargs, result) -> dict:
    return {
        "model": _arg(args, kwargs, 0, "model"),
        "dataset": _arg(args, kwargs, 1, "calibration_ds"),
        "threshold": result,
    }


def _note_generate(args, kwargs, result) -> dict:
    return {"rows": len(result), "dataset": result}


def _note_rows_in(args, kwargs, result) -> dict:
    return {"rows": int(np.shape(_arg(args, kwargs, 1, "batch"))[0])}


def _note_rows_out(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _note_save(args, kwargs, result) -> dict:
    path = _arg(args, kwargs, 1, "path")
    return {"rows": len(_arg(args, kwargs, 0, "ds")), "bytes": os.path.getsize(path)}


def step_cost(widths: list[int], batch: int) -> tuple[int, int]:
    """Computed FLOPs and bytes of one float64 loss_and_gradients call.

    `widths` runs from the input width to the output width. Per layer with
    fan-in i and fan-out o on b rows: the forward matmul (2·b·i·o), the weight
    gradient (2·b·i·o) and, above the first layer, the back-propagated delta
    (2·b·i·o). Bytes count each operand once per matmul: weights, the layer's
    input and output activations forward; weights, incoming delta, input
    activations, weight gradient and outgoing delta backward. Elementwise work
    is left out. These are operation counts, not measurements.
    """
    flops = bytes_ = 0
    for layer, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        matmuls = 3 if layer else 2
        flops += matmuls * 2 * batch * fan_in * fan_out
        weights = fan_in * fan_out
        forward = weights + batch * fan_in + batch * fan_out
        backward = weights + batch * fan_out + batch * fan_in + weights
        if layer:
            backward += batch * fan_in
        bytes_ += 8 * (forward + backward)
    return flops, bytes_


def _note_step(args, kwargs, result) -> dict:
    model = _arg(args, kwargs, 0, "model")
    widths = [model.input_width] + [spec.width for spec in model.layer_specs]
    flops, bytes_ = step_cost(widths, int(np.shape(_arg(args, kwargs, 1, "batch"))[0]))
    return {"flops": flops, "bytes": bytes_}


#: Installed on every pass: the few coarse calls the end-to-end metrics and the
#: output checks read. A pass with only these is an untraced pass.
OBSERVED = (
    Target(nn, "train", "nn.train", _note_train),
    Target(witness, "evaluate", "witness.evaluate", _note_evaluate),
    Target(witness, "calibrate_threshold", "witness.calibrate", _note_calibrate),
    Target(data, "generate", "data.generate", _note_generate),
)

#: Added on traced passes: every public function the per-layer metrics read.
#: `witness` imported generate and split by name, so they are wrapped there too.
TRACED = OBSERVED + (
    Target(nn, "loss_and_gradients", "nn.step", _note_step),
    Target(nn, "forward", "nn.forward", _note_rows_in),
    Target(nn, "model_new", "nn.model_new"),
    Target(nn, "save_model", "nn.model_io"),
    Target(nn, "load_model", "nn.model_io"),
    Target(witness, "generate", "data.generate", _note_generate),
    Target(witness, "split", "data.split"),
    Target(witness, "sweep_measurements", "witness.sweep"),
    Target(data, "split", "data.split"),
    Target(data, "regenerate", "data.regenerate"),
    Target(data, "save", "data.save", _note_save),
    Target(data, "load", "data.load", _note_rows_out),
    Target(quantum, "is_entangled", "quantum.label"),
    Target(quantum, "min_eigenvalue_pt", "quantum.min_eigenvalue_pt"),
    Target(cli, "main", "cli.main"),
    Target(cli, "cmd_gen", "cli.gen"),
    Target(cli, "cmd_train", "cli.train"),
    Target(cli, "cmd_weights", "cli.weights"),
    Target(cli, "cmd_sweep", "cli.sweep"),
)


# --------------------------------------------------------------------------
# Workloads.


def sub_seed(seed: int, *stream: int) -> int:
    """A child seed of `seed` for one labelled use; the same inputs give the same seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _fractions(rows: tuple[int, int, int]) -> tuple[float, float, float]:
    total = sum(rows)
    return tuple(r / total for r in rows)


def full_witness(ops: Ops, seed: int, sizes: Sizes, workdir: str, spans: list[Span]) -> dict:
    """Generate, split, train nonlinear_full, calibrate, evaluate twice."""
    corpus = ops.call(data.generate, sum(sizes.full_rows), seed=sub_seed(seed, 0))
    train_ds, val_ds, test_ds = ops.call(
        data.split, corpus, _fractions(sizes.full_rows), sub_seed(seed, 1)
    )
    model = ops.call(nn.model_new, "nonlinear_full", sub_seed(seed, 2))
    config = nn.TrainConfig(
        max_epochs=sizes.full_epochs,
        patience=sizes.full_epochs,
        seed=sub_seed(seed, 3),
    )
    trained = ops.call(nn.train, model, train_ds, val_ds, config).model
    threshold = ops.call(witness.calibrate_threshold, trained, val_ds)
    ops.call(witness.evaluate, trained, test_ds, 0.5)
    ops.call(witness.evaluate, trained, test_ds, threshold)
    return {}


def linear_sweep(ops: Ops, seed: int, sizes: Sizes, workdir: str, spans: list[Span]) -> dict:
    """One sweep seed: a linear_code(m) cell per m on cylindrically twirled data."""
    config = nn.TrainConfig(max_epochs=sizes.sweep_epochs, patience=sizes.sweep_epochs)
    rows = ops.call(
        witness.sweep_measurements,
        sizes.sweep_m,
        symmetry="cylindrical",
        sizes=sizes.sweep_rows,
        seeds=(seed,),
        train_config=config,
    )
    return {"rows": rows}


def _relabel(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label each row again through the public per-state API, with both oracles."""
    labels, dets, min_eigs = [], [], []
    for gamma in features:
        rho = quantum.DensityMatrix(quantum.state_from_features(gamma))
        label = quantum.is_entangled(rho)
        labels.append(label.entangled)
        dets.append(label.det_pt)
        min_eigs.append(quantum.min_eigenvalue_pt(rho))
    return np.array(labels, dtype=bool), np.array(dets), np.array(min_eigs)


def cli_corpus(ops: Ops, seed: int, sizes: Sizes, workdir: str, spans: list[Span]) -> dict:
    """gen, train and weights through the CLI; regenerate, relabel, calibrate."""
    csv_path = os.path.join(workdir, "corpus.csv")
    model_path = os.path.join(workdir, "model.json")
    weights_path = os.path.join(workdir, "weights.csv")
    epochs = str(sizes.corpus_epochs)
    commands = [
        ["gen", "--n", str(sizes.corpus_rows), "--seed", str(seed),
         "--symmetry", "cylindrical", "--out", csv_path],
        ["train", "--data", csv_path, "--arch", "linear", "--m", str(sizes.corpus_m),
         "--epochs", epochs, "--patience", epochs, "--seed", str(seed),
         "--split", ",".join(map(str, CLI_SPLIT)), "--out", model_path],
        ["weights", "--model", model_path, "--out", weights_path],
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            codes.append(ops.call(cli.main, argv))

    saved = ops.call(data.load, csv_path)
    regenerated = ops.call(data.regenerate, saved.manifest)

    sample = np.linspace(0, len(saved) - 1, min(sizes.relabel_rows, len(saved))).astype(int)
    labels, dets, min_eigs = ops.call(_relabel, saved.features[sample])

    # The saved model becomes a witness: calibrate it on the validation split
    # the CLI trained against and evaluate it on the CLI's test split. Like a
    # sweep cell, a linear_code model may have no usable threshold.
    validation_ds = _named(spans, "nn.train")[-1].info["validation"]
    test_ds = _named(spans, "witness.evaluate")[-1].info["dataset"]
    loaded = ops.call(nn.load_model, model_path)
    try:
        threshold = ops.call(witness.calibrate_threshold, loaded, validation_ds)
    except witness.CalibrationDegenerateError:
        pass
    else:
        ops.call(witness.evaluate, loaded, test_ds, threshold)
    return {
        "codes": codes,
        "saved": saved,
        "regenerated": regenerated,
        "sample": sample,
        "labels": labels,
        "dets": dets,
        "min_eigs": min_eigs,
        "loaded": loaded,
        "weights_path": weights_path,
        "report_path": os.path.splitext(model_path)[0] + ".report.json",
    }


# --------------------------------------------------------------------------
# Output checks and quality, read from the observed spans of a pass.


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name and s.error is None]


def check_witness(ops: Ops, spans: list[Span], epochs: int) -> Quality:
    for span in _named(spans, "nn.train"):
        info = span.info
        ops.check("train runs every epoch", info["epochs"] == epochs == info["max_epochs"])

    evaluations = _named(spans, "witness.evaluate")
    for span in evaluations:
        model, ds, report = span.info["model"], span.info["dataset"], span.info["report"]
        scores = nn.forward(model, ds.features)
        in_range = np.isfinite(scores) & (scores >= 0.0) & (scores <= 1.0)
        ops.check("scores finite in [0, 1]", bool(np.all(in_range)))
        flagged = scores >= report.threshold
        ops.check(
            "report matches scores",
            report.false_positive == int(np.sum(flagged & ~ds.labels))
            and report.true_entangled_correct == int(np.sum(flagged & ds.labels))
            and report.true_separable_correct == int(np.sum(~flagged & ~ds.labels)),
        )

    at_half = [s.info["report"].accuracy for s in evaluations if s.info["report"].threshold == 0.5]
    quality = Quality(accuracies=at_half)
    for span in (s for s in spans if s.name == "witness.calibrate"):
        # Any other error ends the pass before verification, so this one is
        # CalibrationDegenerateError: the model has no usable threshold.
        if span.error is not None:
            quality.recalls.append(0.0)
            continue
        model, ds, threshold = span.info["model"], span.info["dataset"], span.info["threshold"]
        separable_scores = nn.forward(model, ds.features[~ds.labels])
        ops.check(
            "no false positive on the calibration split",
            bool(np.all(separable_scores < threshold)),
        )
        paired = [
            s.info["report"]
            for s in evaluations
            if s.info["model"] is model and s.info["report"].threshold == threshold
        ]
        ops.check("calibrated threshold is evaluated", len(paired) == 1)
        if paired:
            report = paired[0]
            quality.recalls.append(report.recall)
            separable = report.true_separable_correct + report.false_positive
            quality.specificities.append(report.true_separable_correct / separable)
    return quality


def verify_full_witness(ops: Ops, state: dict, spans: list[Span], sizes: Sizes) -> Quality:
    return check_witness(ops, spans, sizes.full_epochs)


def verify_linear_sweep(ops: Ops, state: dict, spans: list[Span], sizes: Sizes) -> Quality:
    quality = check_witness(ops, spans, sizes.sweep_epochs)
    rows = state["rows"]
    ops.check("one row per sweep cell", [r.m for r in rows] == list(sizes.sweep_m))
    ops.check(
        "sweep rows match the observed evaluations",
        [r.accuracy for r in rows] == quality.accuracies
        and [r.recall_at_precision_one for r in rows] == quality.recalls,
    )
    return quality


def verify_cli_corpus(ops: Ops, state: dict, spans: list[Span], sizes: Sizes) -> Quality:
    ops.check("every CLI command returns 0", state["codes"] == [0, 0, 0])
    generated = _named(spans, "data.generate")[0].info["dataset"]
    saved, regenerated = state["saved"], state["regenerated"]
    ops.check("saved CSV loads back equal to the generated corpus", saved.equals(generated))
    ops.check("regenerate reproduces the corpus", regenerated.equals(generated))

    rows = state["sample"]
    clear = np.abs(saved.det_pt[rows]) > DET_BAND
    same_label = state["labels"] == saved.labels[rows]
    ops.check("relabelled rows keep their saved label", bool(np.all(same_label[clear])))
    disagree = (state["min_eigs"] < 0.0) != (state["dets"] < 0.0)
    disagreements = int(np.sum(disagree & clear))
    ops.check("determinant and eigenvalue oracles agree", disagreements == 0)

    with open(state["weights_path"], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    ops.check("weights is an m x 15 matrix", matrix.shape == (sizes.corpus_m, 15))

    trained = _named(spans, "nn.train")[0].info["model"]
    cli_report = _named(spans, "witness.evaluate")[0].info
    test_features = cli_report["dataset"].features
    ops.check(
        "saved model scores like the trained one",
        np.array_equal(
            nn.forward(state["loaded"], test_features), nn.forward(trained, test_features)
        ),
    )
    with open(state["report_path"], encoding="utf-8") as handle:
        written = json.load(handle)["rates"]["accuracy"]
    ops.check("report file matches the evaluation", written == cli_report["report"].accuracy)
    quality = check_witness(ops, spans, sizes.corpus_epochs)
    quality.oracle_disagreements = disagreements
    return quality


#: name -> (execute, verify)
WORKLOADS = {
    "full_witness": (full_witness, verify_full_witness),
    "linear_sweep": (linear_sweep, verify_linear_sweep),
    "cli_corpus": (cli_corpus, verify_cli_corpus),
}
