"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s`. The heavyweight artifacts (the
desk-scale corpus and the trained models) are built once and shared; all seeds
are fixed, so every number here is reproducible bit-for-bit on one platform.
"""

import time

import numpy as np
import pytest

import entwitness as ew
from entwitness import cli, data, nn, quantum, witness

ROOT_SEED = 11

# Desk-scale corpus: 200k train / 25k validation / 50k test.
BIG_TOTAL = 275_000
BIG_FRACTIONS = (200 / 275, 25 / 275, 50 / 275)

# Staged training: fresh Adam runs with decreasing learning rate, warm-started
# from the previous stage's best weights.
STAGES = ((1e-3, 80, 12), (2e-4, 50, 10), (5e-5, 40, 8))

SWEEP_SIZES = (50_000, 10_000, 20_000)
SWEEP_SEEDS = (2, 3, 4)
SWEEP_CONFIG = nn.TrainConfig(max_epochs=60, patience=10)


def announce(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail})")


def train_staged(model, train_ds, val_ds, shuffle_streams):
    for stage, (lr, epochs, patience) in enumerate(STAGES):
        config = nn.TrainConfig(
            learning_rate=lr,
            max_epochs=epochs,
            patience=patience,
            seed=data.derived_seed(ROOT_SEED, data.STREAM_SHUFFLE, *shuffle_streams, stage),
        )
        model = nn.train(model, train_ds, val_ds, config).model
    return model


@pytest.fixture(scope="module")
def big_corpus():
    start = time.monotonic()
    ds = ew.generate(BIG_TOTAL, seed=data.derived_seed(ROOT_SEED, data.STREAM_DATA))
    parts = ew.split(ds, BIG_FRACTIONS, data.derived_seed(ROOT_SEED, data.STREAM_SPLIT))
    return {"parts": parts, "gen_seconds": time.monotonic() - start}


@pytest.fixture(scope="module")
def full_model(big_corpus):
    train_ds, val_ds, _ = big_corpus["parts"]
    start = time.monotonic()
    model = ew.model_new(
        "nonlinear_full", data.derived_seed(ROOT_SEED, data.STREAM_INIT)
    )
    model = train_staged(model, train_ds, val_ds, shuffle_streams=())
    return {"model": model, "train_seconds": time.monotonic() - start}


@pytest.fixture(scope="module")
def linear_models(big_corpus):
    train_ds, val_ds, _ = big_corpus["parts"]
    models = {}
    for m in (3, 9, 15):
        model = ew.model_new(
            "linear_code", data.derived_seed(ROOT_SEED, data.STREAM_INIT, m), m=m
        )
        models[m] = train_staged(model, train_ds, val_ds, shuffle_streams=(m,))
    return models


@pytest.fixture(scope="module")
def sweep_none():
    return witness.sweep_measurements(
        [3], symmetry="none", sizes=SWEEP_SIZES, seeds=SWEEP_SEEDS,
        train_config=SWEEP_CONFIG,
    )


@pytest.fixture(scope="module")
def sweep_cylindrical():
    return witness.sweep_measurements(
        [3], symmetry="cylindrical", sizes=SWEEP_SIZES, seeds=SWEEP_SEEDS,
        train_config=SWEEP_CONFIG,
    )


def test_criterion_01_ppt_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    disagreements = 0
    for _ in range(10_000):
        rho = ew.random_density_matrix(rng)
        label = ew.is_entangled(rho)
        if abs(label.det_pt) <= 1e-12:
            continue
        checked += 1
        if label.entangled != (ew.min_eigenvalue_pt(rho) < 0.0):
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 10.0
    announce(
        1, "ppt-oracle-equivalence", ok,
        f"{checked} samples, {disagreements} disagreements, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert elapsed < 10.0


def test_criterion_02_werner_boundary():
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if ew.is_entangled(ew.werner_state(mid)).entangled:
            hi = mid
        else:
            lo = mid
    boundary = (lo + hi) / 2.0
    error = abs(boundary - 1.0 / 3.0)
    ok = error <= 1e-6
    announce(2, "werner-boundary", ok, f"onset at {boundary:.9f}, |err| {error:.2e}")
    assert ok


def test_criterion_03_twirl_correctness():
    thetas = np.arange(256) * (2 * np.pi / 256)
    rotations = [
        np.kron(np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
                np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]))
        for t in thetas
    ]
    rng = np.random.default_rng(303)
    worst_grid = 0.0
    worst_idem = 0.0
    for _ in range(100):
        rho = ew.random_density_matrix(rng)
        analytic = ew.twirl_cylindrical(rho)
        numeric = sum(u @ rho.matrix @ u.conj().T for u in rotations) / 256
        worst_grid = max(worst_grid, np.abs(analytic.matrix - numeric).max())
        again = ew.twirl_cylindrical(analytic)
        worst_idem = max(worst_idem, np.abs(again.matrix - analytic.matrix).max())
    ok = worst_grid <= 1e-10 and worst_idem <= 1e-12
    announce(
        3, "twirl-correctness", ok,
        f"grid residual {worst_grid:.2e} <= 1e-10, idempotence {worst_idem:.2e} <= 1e-12",
    )
    assert ok


def test_criterion_04_gradient_check():
    from test_nn import finite_difference_worst_error, gradient_check_cases

    worst = 0.0
    instances = 0
    architectures = set()
    for seed in range(5):
        for model, batch, labels in gradient_check_cases(seed):
            worst = max(worst, finite_difference_worst_error(model, batch, labels))
            instances += 1
            architectures.add(model.architecture)
    ok = worst < 1e-4 and instances >= 5 and architectures == set(nn.ARCHITECTURES)
    announce(4, "gradient-check", ok, f"{instances} instances, worst rel err {worst:.2e}")
    assert ok


def test_criterion_05_full_information_model(big_corpus, full_model):
    _, _, test_ds = big_corpus["parts"]
    accuracy = ew.evaluate(full_model["model"], test_ds, 0.5).accuracy
    runtime = big_corpus["gen_seconds"] + full_model["train_seconds"]
    ok = accuracy >= 0.96 and runtime <= 900.0
    announce(
        5, "full-information-model", ok,
        f"test accuracy {accuracy:.4f} >= 0.96, runtime {runtime:.0f}s <= 900s",
    )
    assert ok


def test_criterion_06_linear_m3_generic(sweep_none):
    accuracies = [row.accuracy for row in sweep_none]
    passing = sum(acc >= 0.75 for acc in accuracies)
    ok = passing >= 2
    announce(
        6, "linear-m3-generic", ok,
        f"accuracies {[f'{a:.4f}' for a in accuracies]}, {passing}/3 seeds >= 0.75",
    )
    assert ok


def test_criterion_07_linear_m3_cylindrical(sweep_cylindrical):
    accuracies = [row.accuracy for row in sweep_cylindrical]
    passing = sum(acc >= 0.90 for acc in accuracies)
    ok = passing >= 2
    announce(
        7, "linear-m3-cylindrical", ok,
        f"accuracies {[f'{a:.4f}' for a in accuracies]}, {passing}/3 seeds >= 0.90",
    )
    assert ok


def test_criterion_08_precision_one_witness(big_corpus, linear_models):
    _, val_ds, test_ds = big_corpus["parts"]
    details = []
    ok = True
    for m in (3, 9, 15):
        model = linear_models[m]
        threshold = witness.calibrate_threshold(model, val_ds)
        calibration = ew.evaluate(model, val_ds, threshold)
        test = ew.evaluate(model, test_ds, threshold)
        cell_ok = (
            calibration.false_positive == 0
            and test.precision >= 0.995
            and test.recall > 0.0
        )
        ok = ok and cell_ok
        details.append(
            f"m={m}: cal FP {calibration.false_positive}, "
            f"test precision {test.precision:.4f}, recall {test.recall:.3f}"
        )
    announce(8, "precision-one-witness", ok, "; ".join(details))
    assert ok


def test_criterion_09_information_monotonicity(big_corpus, full_model, linear_models):
    _, _, test_ds = big_corpus["parts"]
    acc3 = ew.evaluate(linear_models[3], test_ds, 0.5).accuracy
    acc15 = ew.evaluate(linear_models[15], test_ds, 0.5).accuracy
    acc_full = ew.evaluate(full_model["model"], test_ds, 0.5).accuracy
    monotone = acc15 >= acc3 - 0.01
    close_to_full = abs(acc15 - acc_full) <= 0.02
    ok = monotone and close_to_full
    announce(
        9, "information-monotonicity", ok,
        f"acc(m=3) {acc3:.4f}, acc(m=15) {acc15:.4f}, full {acc_full:.4f}; "
        f"monotone {monotone}, within 2pt of full {close_to_full}",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    def run(argv):
        assert cli.main(argv) == 0

    def contents(path):
        with open(path, "rb") as fh:
            return fh.read()

    gen_flags = ["gen", "--n", "3000", "--seed", "42"]
    run(gen_flags + ["--out", str(tmp_path / "a.csv")])
    run(gen_flags + ["--out", str(tmp_path / "b.csv")])
    dataset_same = contents(tmp_path / "a.csv") == contents(tmp_path / "b.csv")
    manifest_same = contents(data.manifest_path(str(tmp_path / "a.csv"))) == contents(
        data.manifest_path(str(tmp_path / "b.csv"))
    )

    train_flags = ["train", "--data", str(tmp_path / "a.csv"), "--arch", "linear",
                   "--m", "3", "--epochs", "5", "--seed", "7"]
    run(train_flags + ["--out", str(tmp_path / "m1.json")])
    run(train_flags + ["--out", str(tmp_path / "m2.json")])
    model_same = contents(tmp_path / "m1.json") == contents(tmp_path / "m2.json")
    history_same = contents(tmp_path / "m1.history.csv") == contents(
        tmp_path / "m2.history.csv"
    )

    ok = dataset_same and manifest_same and model_same and history_same
    announce(
        10, "determinism", ok,
        f"dataset bytes {dataset_same}, manifest {manifest_same}, "
        f"model {model_same}, history {history_same}",
    )
    assert ok
