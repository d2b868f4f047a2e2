"""Tests for witness evaluation, precision-1 calibration, and the m-sweep."""

import weakref

import numpy as np
import pytest

from entwitness import cli, nn, witness
from entwitness.data import Dataset, generate, split
from entwitness.nn import TrainConfig, model_new
from entwitness.witness import (
    CalibrationDegenerateError,
    calibrate_threshold,
    evaluate,
    sweep_measurements,
    witness_reports,
)


def logit(p):
    return np.log(p / (1.0 - p))


def scored_dataset(separable_scores, entangled_scores):
    """Dataset plus a model that assigns exactly the given sigmoid scores: its one
    measurement reads the first feature, which the output passes to the sigmoid."""
    scores = np.concatenate([separable_scores, entangled_scores])
    labels = np.concatenate(
        [np.zeros(len(separable_scores), bool), np.ones(len(entangled_scores), bool)]
    )
    features = np.zeros((scores.size, 15))
    features[:, 0] = logit(scores)
    det = np.where(labels, -1.0, 1.0)
    ds = Dataset(features, det, {"count": scores.size})
    assert np.array_equal(ds.labels, labels)
    model = model_new("linear_code", 0, m=1, hidden=())
    model.params[:] = 0.0
    model.weights[0][0, 0] = model.weights[1][0, 0] = 1.0
    return model, ds


def constant_half_model():
    model = model_new("linear_code", 0, m=3)
    for w in model.weights:
        w[:] = 0.0
    return model


class TestEvaluate:
    def test_degenerate_scorer_low_threshold(self):
        ds = generate(2000, seed=0)
        report = evaluate(constant_half_model(), ds, threshold=0.4)
        assert report.recall == 1.0
        assert report.false_negative == 0
        assert report.true_separable_correct == 0
        entangled_fraction = np.mean(ds.labels)
        assert report.precision == pytest.approx(entangled_fraction)
        assert report.accuracy == pytest.approx(entangled_fraction)

    def test_counts_partition_dataset(self):
        model, ds = scored_dataset(
            np.linspace(0.05, 0.6, 40), np.linspace(0.3, 0.95, 60)
        )
        report = evaluate(model, ds, threshold=0.5)
        total = (
            report.true_separable_correct
            + report.false_positive
            + report.false_negative
            + report.true_entangled_correct
        )
        assert total == len(ds)

    def test_tie_counts_as_entangled(self):
        model, ds = scored_dataset(np.array([0.5]), np.array([0.5]))
        report = evaluate(model, ds, threshold=0.5)
        assert report.false_positive == 1
        assert report.true_entangled_correct == 1

    def test_known_confusion_matrix(self):
        model, ds = scored_dataset(
            np.array([0.1, 0.2, 0.7]), np.array([0.3, 0.8, 0.9])
        )
        report = evaluate(model, ds, threshold=0.5)
        assert report.true_separable_correct == 2
        assert report.false_positive == 1
        assert report.false_negative == 1
        assert report.true_entangled_correct == 2
        assert report.accuracy == pytest.approx(4 / 6)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)

    def test_precision_one_when_nothing_flagged(self):
        model, ds = scored_dataset(np.array([0.1, 0.2]), np.array([0.3]))
        report = evaluate(model, ds, threshold=0.9)
        assert report.true_entangled_correct == 0
        assert report.precision == 1.0

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_domain(self, threshold):
        model, ds = scored_dataset(np.array([0.4]), np.array([0.6]))
        with pytest.raises(ValueError):
            evaluate(model, ds, threshold)

    def test_empty_dataset_rejected(self):
        model, ds = scored_dataset(np.array([0.4]), np.array([0.6]))
        empty = Dataset(ds.features[:0], ds.det_pt[:0], {"count": 0})
        with pytest.raises(ValueError):
            evaluate(model, empty, 0.5)

    def test_raising_threshold_is_monotone(self):
        ds = generate(3000, seed=1)
        model = model_new("linear_code", 2, m=3)
        previous_fp = len(ds)
        previous_recall = 1.0
        for threshold in np.linspace(0.05, 0.95, 19):
            report = evaluate(model, ds, float(threshold))
            assert report.false_positive <= previous_fp
            assert report.recall <= previous_recall + 1e-12
            previous_fp = report.false_positive
            previous_recall = report.recall


class TestCalibrateThreshold:
    def test_four_point_case(self):
        model, ds = scored_dataset(np.array([0.1, 0.2]), np.array([0.3, 0.9]))
        threshold = calibrate_threshold(model, ds)
        assert 0.2 < threshold <= 0.3
        report = evaluate(model, ds, threshold)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.false_positive == 0

    def test_all_scores_identical_degenerate(self):
        ds = generate(200, seed=3)
        with pytest.raises(CalibrationDegenerateError):
            calibrate_threshold(constant_half_model(), ds)

    def test_inverted_scores_degenerate(self):
        model, ds = scored_dataset(np.array([0.7, 0.8]), np.array([0.2, 0.3]))
        with pytest.raises(CalibrationDegenerateError):
            calibrate_threshold(model, ds)

    def test_fallback_when_no_entangled_score_above(self):
        # Overlapping but not inverted: witness exists yet detects nothing.
        model, ds = scored_dataset(np.array([0.2, 0.8]), np.array([0.4, 0.5]))
        threshold = calibrate_threshold(model, ds)
        assert threshold == pytest.approx(0.8, abs=1e-6)
        report = evaluate(model, ds, threshold)
        assert report.false_positive == 0
        assert report.recall == 0.0

    def test_requires_separable_sample(self):
        # No separable score to sit above, so no zero-false-positive threshold exists.
        model, ds = scored_dataset(np.array([]), np.array([0.4, 0.5]))
        with pytest.raises(CalibrationDegenerateError):
            calibrate_threshold(model, ds)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_zero_false_positives_by_construction(self, seed):
        # Holds for any model and dataset whenever calibration succeeds.
        ds = generate(600, seed=seed)
        model = model_new("linear_code", seed + 100, m=3)
        try:
            threshold = calibrate_threshold(model, ds)
        except CalibrationDegenerateError:
            return
        assert evaluate(model, ds, threshold).false_positive == 0


class TestWitnessReports:
    """Every scored_dataset shares one model, so its calibration and test splits
    are scored exactly as given."""

    def test_exact_counts_at_half_and_calibrated(self):
        model, calibration = scored_dataset(np.array([0.1, 0.6]), np.array([0.3, 0.7, 0.9]))
        _, test = scored_dataset(
            np.array([0.2, 0.55, 0.62, 0.8]), np.array([0.4, 0.6, 0.75, 0.95])
        )
        at_half, calibrated = witness_reports(model, calibration, test)
        assert at_half == evaluate(model, test, 0.5)
        assert (at_half.true_separable_correct, at_half.false_positive) == (1, 3)
        assert (at_half.false_negative, at_half.true_entangled_correct) == (1, 3)
        # Calibrated halfway between the top separable 0.6 and the entangled 0.7.
        assert calibrated.threshold == pytest.approx(0.65)
        assert calibrated == evaluate(model, test, calibrated.threshold)
        assert (calibrated.true_separable_correct, calibrated.false_positive) == (3, 1)
        assert (calibrated.false_negative, calibrated.true_entangled_correct) == (2, 2)

    def test_degenerate_scorer_has_no_witness(self):
        model, calibration = scored_dataset(np.array([0.7, 0.8]), np.array([0.2, 0.3]))
        _, test = scored_dataset(np.array([0.1, 0.6]), np.array([0.4, 0.9]))
        at_half, calibrated = witness_reports(model, calibration, test)
        assert at_half == evaluate(model, test, 0.5)
        assert calibrated is None

    def test_no_separable_state_has_no_witness(self):
        model, calibration = scored_dataset(np.array([]), np.array([0.4, 0.5]))
        _, test = scored_dataset(np.array([0.1]), np.array([0.9]))
        at_half, calibrated = witness_reports(model, calibration, test)
        assert (at_half.true_separable_correct, at_half.true_entangled_correct) == (1, 1)
        assert calibrated is None


class TestSweep:
    def test_rows_and_serialization(self):
        config = TrainConfig(max_epochs=6, patience=3, seed=0)
        rows = sweep_measurements(
            [1, 3],
            symmetry="none",
            sizes=(1500, 400, 600),
            seeds=(0, 1),
            train_config=config,
        )
        assert len(rows) == 4
        cells = {(row.m, row.seed) for row in rows}
        assert cells == {(1, 0), (3, 0), (1, 1), (3, 1)}
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
            assert 0.0 <= row.recall_at_precision_one <= 1.0
            assert row.symmetry == "none"

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sweep_measurements([0], sizes=(100, 50, 50), seeds=(0,))

    def test_corpus_freed_before_training(self, monkeypatch):
        # Only the three split parts stay alive while the cells train.
        class TrainingStarted(Exception):
            pass

        corpora = []

        def generate_tracked(*args, **kwargs):
            ds = generate(*args, **kwargs)
            corpora.append(weakref.ref(ds))
            return ds

        def train_checked(*args, **kwargs):
            assert corpora and all(ref() is None for ref in corpora)
            raise TrainingStarted

        monkeypatch.setattr(witness, "generate", generate_tracked)
        monkeypatch.setattr(nn, "train", train_checked)
        with pytest.raises(TrainingStarted):
            sweep_measurements([1], sizes=(100, 50, 50), seeds=(0,))

    def test_report_dict_shape(self):
        model, ds = scored_dataset(np.array([0.1]), np.array([0.9]))
        payload = cli._report_payload(evaluate(model, ds, 0.5))
        assert set(payload) == {"counts", "rates", "threshold"}
        assert set(payload["counts"]) == {
            "true_separable_correct",
            "false_positive",
            "false_negative",
            "true_entangled_correct",
        }
        assert set(payload["rates"]) == {"accuracy", "precision", "recall"}
