"""Turning trained classifiers into entanglement witnesses.

A witness must never flag a separable state, so the decision threshold is
calibrated to sit strictly above every separable score on a calibration split;
what remains above the threshold is the recall the witness can still deliver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import nn
from .data import (
    STREAM_DATA,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_SPLIT,
    Dataset,
    derived_seed,
    generate,
    split,
)


class CalibrationDegenerateError(RuntimeError):
    """No usable zero-false-positive threshold exists for this model and data."""


@dataclass(frozen=True)
class WitnessReport:
    true_separable_correct: int
    false_positive: int
    false_negative: int
    true_entangled_correct: int
    accuracy: float
    precision: float
    recall: float
    threshold: float


@dataclass(frozen=True)
class SweepRow:
    m: int
    symmetry: str
    seed: int
    accuracy: float
    recall_at_precision_one: float


def evaluate(model: nn.MlpModel, ds: Dataset, threshold: float = 0.5) -> WitnessReport:
    """Confusion counts and rates at a threshold; score >= threshold means entangled."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold}")
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    scores = nn.forward(model, ds.features)
    predicted = scores >= threshold
    actual = np.asarray(ds.labels, dtype=bool)
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    return WitnessReport(
        true_separable_correct=tn,
        false_positive=fp,
        false_negative=fn,
        true_entangled_correct=tp,
        accuracy=(tp + tn) / len(ds),
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
        threshold=threshold,
    )


def calibrate_threshold(model: nn.MlpModel, calibration_ds: Dataset) -> float:
    """Smallest threshold strictly above every separable score on the set.

    Placed halfway between the top separable score and the next entangled score
    above it (or a hair above the top separable score when nothing lies above),
    so the calibration split has zero false positives by construction. Raises
    CalibrationDegenerateError when the set holds no separable state, or when
    the scores are so overlapped or inverted that the resulting witness could
    not flag anything.
    """
    scores = nn.forward(model, calibration_ds.features)
    labels = np.asarray(calibration_ds.labels, dtype=bool)
    separable = scores[~labels]
    entangled = scores[labels]
    if separable.size == 0:
        raise CalibrationDegenerateError("calibration set needs at least one separable sample")

    top_separable = float(separable.max())
    above = entangled[entangled > top_separable]
    if above.size:
        threshold = top_separable + (float(above.min()) - top_separable) / 2.0
    else:
        threshold = top_separable + 1e-9

    if threshold >= 1.0 or (
        entangled.size and float(separable.min()) >= float(entangled.max())
    ):
        raise CalibrationDegenerateError(
            "no entangled score separates from the separable scores"
        )
    return float(threshold)


def witness_reports(
    model: nn.MlpModel, calibration_ds: Dataset, test_ds: Dataset
) -> tuple[WitnessReport, WitnessReport | None]:
    """The model as a classifier and as a witness, both reported on the test split.

    The first report is at threshold 0.5; the second is at the precision-1
    threshold calibrated on `calibration_ds`, or None when calibration is
    degenerate.
    """
    at_half = evaluate(model, test_ds, 0.5)
    try:
        threshold = calibrate_threshold(model, calibration_ds)
    except CalibrationDegenerateError:
        return at_half, None
    return at_half, evaluate(model, test_ds, threshold)


def sweep_measurements(
    m_values: Sequence[int],
    symmetry: str = "none",
    sizes: tuple[int, int, int] = (50_000, 10_000, 20_000),
    seeds: Sequence[int] = (0, 1, 2),
    train_config: nn.TrainConfig | None = None,
    rank: int = 4,
) -> list[SweepRow]:
    """Train a linear_code(m) model per (m, seed) cell and score it as a witness.

    For one seed, every m shares the same generated data (sizes are the train,
    validation and test counts); each cell gets fresh init and shuffle streams.
    Accuracy is measured at threshold 0.5 on the test split; recall is measured
    on the test split at the precision-1 threshold calibrated on the validation
    split (0 when calibration is degenerate).
    """
    for m in m_values:  # every cell's model is checked before any data is generated
        nn.model_widths("linear_code", m)
    base = train_config if train_config is not None else nn.TrainConfig()

    total = int(sum(sizes))
    fractions = tuple(s / total for s in sizes)
    rows = []
    for seed in seeds:
        train_ds, val_ds, test_ds = split(  # the whole corpus is freed once split
            generate(total, symmetry=symmetry, seed=derived_seed(seed, STREAM_DATA), rank=rank),
            fractions, derived_seed(seed, STREAM_SPLIT),
        )
        for m in m_values:
            model = nn.model_new("linear_code", derived_seed(seed, STREAM_INIT, m), m=m)
            config = replace(base, seed=derived_seed(seed, STREAM_SHUFFLE, m))
            trained = nn.train(model, train_ds, val_ds, config).model
            at_half, calibrated = witness_reports(trained, val_ds, test_ds)
            recall = calibrated.recall if calibrated is not None else 0.0
            rows.append(SweepRow(m, symmetry, int(seed), at_half.accuracy, recall))
    return rows
