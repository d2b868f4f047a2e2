"""Tests for the network engine: shapes, gradients, training, serialization."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from types import SimpleNamespace

from entwitness import nn
from entwitness.nn import (
    LayerSpec,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    code_weights,
    forward,
    load_model,
    loss_and_gradients,
    model_new,
    save_model,
    train,
)

FD_STEP = 1e-5
FD_REL_TOL = 1e-4


def finite_difference_worst_error(model, batch, labels):
    """Worst relative error between analytic and central-difference gradients."""
    _, grads = loss_and_gradients(model, batch, labels)

    def central(param, idx):
        orig = param[idx]
        param[idx] = orig + FD_STEP
        plus, _ = loss_and_gradients(model, batch, labels)
        param[idx] = orig - FD_STEP
        minus, _ = loss_and_gradients(model, batch, labels)
        param[idx] = orig
        return (plus - minus) / (2 * FD_STEP)

    worst = 0.0
    for li in range(len(model.weights)):
        weight = model.weights[li]
        for idx in np.ndindex(*weight.shape):
            fd = central(weight, idx)
            analytic = grads.weights[li][idx]
            if abs(analytic) < 1e-8:
                worst = max(worst, abs(fd - analytic))
            else:
                worst = max(worst, abs(fd - analytic) / abs(analytic))
        if model.biases[li] is not None:
            bias = model.biases[li]
            for k in range(bias.size):
                fd = central(bias, (k,))
                analytic = grads.biases[li][k]
                if abs(analytic) < 1e-8:
                    worst = max(worst, abs(fd - analytic))
                else:
                    worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


def arrays(model):
    return [a for a in model.weights + model.biases if a is not None]


def toy_task(n=1000, margin=0.05, seed=0):
    """Linearly separable task: the label is the sign of the g33 feature."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1, 1, size=(n, 15))
    features[:, 14] = rng.uniform(margin, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    labels = features[:, 14] > 0
    cut = int(0.8 * n)
    return (
        SimpleNamespace(features=features[:cut], labels=labels[:cut]),
        SimpleNamespace(features=features[cut:], labels=labels[cut:]),
    )


class TestModelNew:
    def test_linear_code_shapes(self):
        model = model_new("linear_code", 0, m=3)
        assert model.weights[0].shape == (3, 15)
        assert model.biases[0] is None
        assert model.layer_specs[0] == LayerSpec(3, "linear", has_bias=False)
        widths = [spec.width for spec in model.layer_specs]
        assert widths == [3, *nn.LINEAR_HIDDEN_WIDTHS, 1]
        assert model.layer_specs[-1].activation == "sigmoid"
        assert model.m == 3

    def test_nonlinear_full_shapes(self):
        model = model_new("nonlinear_full", 0)
        shapes = [w.shape for w in model.weights]
        assert len(shapes) == 6
        assert shapes[0][1] == 15
        assert shapes[-1][0] == 1
        for prev, nxt in zip(shapes, shapes[1:]):
            assert nxt[1] == prev[0]
        code_index = len(nn.FULL_ENCODER_WIDTHS) - 1
        assert model.layer_specs[code_index].activation == "linear"
        assert model.layer_specs[code_index].width == nn.FULL_ENCODER_WIDTHS[-1]

    def test_seed_determinism(self):
        a = model_new("linear_code", 42, m=5)
        b = model_new("linear_code", 42, m=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("m", [0, 16, None])
    def test_m_validation(self, m):
        with pytest.raises(ValueError):
            model_new("linear_code", 0, m=m)

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            model_new("transformer", 0)


class TestForward:
    def test_zero_weights_give_half(self):
        model = model_new("linear_code", 0, m=3)
        for w in model.weights:
            w[:] = 0.0
        scores = forward(model, np.random.default_rng(0).uniform(-1, 1, (10, 15)))
        assert np.array_equal(scores, np.full(10, 0.5))

    def test_scores_in_open_interval(self):
        model = model_new("nonlinear_full", 1)
        scores = forward(model, np.random.default_rng(1).uniform(-1, 1, (100, 15)))
        assert np.all(scores > 0) and np.all(scores < 1)

    def test_row_permutation_equivariance(self):
        model = model_new("linear_code", 2, m=4)
        batch = np.random.default_rng(2).uniform(-1, 1, (20, 15))
        perm = np.random.default_rng(3).permutation(20)
        assert np.array_equal(forward(model, batch)[perm], forward(model, batch[perm]))

    def test_empty_batch(self):
        assert forward(model_new("nonlinear_full", 0), np.zeros((0, 15))).shape == (0,)

    def test_shape_mismatch(self):
        model = model_new("linear_code", 0, m=3)
        with pytest.raises(ValueError):
            forward(model, np.zeros((5, 14)))
        with pytest.raises(ValueError):
            forward(model, np.zeros(15))


class TestLossAndGradients:
    def test_balanced_half_scores_give_ln2(self):
        model = model_new("linear_code", 0, m=3)
        for w in model.weights:
            w[:] = 0.0
        batch = np.random.default_rng(0).uniform(-1, 1, (8, 15))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        loss, _ = loss_and_gradients(model, batch, labels)
        assert loss == pytest.approx(np.log(2), abs=1e-9)

    def test_saturated_correct_predictions(self):
        specs = [LayerSpec(1, "sigmoid")]
        weights = [np.zeros((1, 15))]
        weights[0][0, 0] = 100.0
        model = MlpModel(specs, weights, [np.zeros(1)])
        batch = np.zeros((4, 15))
        batch[:2, 0] = 1.0
        batch[2:, 0] = -1.0
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _ = loss_and_gradients(model, batch, labels)
        assert loss <= 1e-6

    def test_gradients_match_finite_differences_15_3_4_1(self):
        rng = np.random.default_rng(42)
        specs = [LayerSpec(3, "relu"), LayerSpec(4, "sigmoid"), LayerSpec(1, "sigmoid")]
        weights, biases = nn._init_layers(rng, 15, specs)
        model = MlpModel(specs, weights, biases)
        batch = rng.uniform(-1, 1, (8, 15))
        labels = (rng.uniform(size=8) > 0.5).astype(float)
        assert finite_difference_worst_error(model, batch, labels) < FD_REL_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradients_across_layer_types_and_bias(self, seed):
        rng = np.random.default_rng(seed)
        specs = [
            LayerSpec(4, "linear", has_bias=bool(seed % 2)),
            LayerSpec(5, "relu"),
            LayerSpec(3, "sigmoid", has_bias=not seed % 2),
            LayerSpec(1, "sigmoid"),
        ]
        weights, biases = nn._init_layers(rng, 15, specs)
        model = MlpModel(specs, weights, biases)
        batch = rng.uniform(-1, 1, (6, 15))
        labels = (rng.uniform(size=6) > 0.5).astype(float)
        assert finite_difference_worst_error(model, batch, labels) < FD_REL_TOL

    def test_shape_validation(self):
        model = model_new("linear_code", 0, m=3)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((4, 15)), np.zeros(5))


class TestTrain:
    def test_toy_separable_task_reaches_perfect_accuracy(self):
        train_ds, val_ds = toy_task()
        model = model_new("linear_code", 1, m=3)
        result = train(model, train_ds, val_ds, TrainConfig(learning_rate=1e-2, max_epochs=50, seed=1))
        assert len(result.history.epochs) <= 50
        best = result.history.epochs[result.history.best_epoch]
        assert best.validation_accuracy == 1.0

    def test_training_deterministic(self):
        train_ds, val_ds = toy_task(seed=5)
        config = TrainConfig(max_epochs=10, seed=9)
        first = train(model_new("linear_code", 7, m=2), train_ds, val_ds, config)
        second = train(model_new("linear_code", 7, m=2), train_ds, val_ds, config)
        for wa, wb in zip(first.model.weights, second.model.weights):
            assert np.array_equal(wa, wb)
        assert first.history.epochs == second.history.epochs

    def test_input_model_not_mutated(self):
        train_ds, val_ds = toy_task(seed=6)
        model = model_new("linear_code", 0, m=2)
        snapshot = [w.copy() for w in model.weights]
        train(model, train_ds, val_ds, TrainConfig(max_epochs=3, seed=0))
        for before, after in zip(snapshot, model.weights):
            assert np.array_equal(before, after)

    def test_returned_models_share_no_memory(self):
        train_ds, val_ds = toy_task(seed=6)
        model = model_new("nonlinear_full", 0, hidden=(8, 4, 2))
        config = TrainConfig(max_epochs=2, seed=0)
        first = train(model, train_ds, val_ds, config).model
        second = train(model, train_ds, val_ds, config).model
        for x in arrays(first):
            for y in arrays(second) + arrays(model):
                assert not np.shares_memory(x, y)

    def test_editing_a_returned_model_changes_nothing_else(self):
        train_ds, val_ds = toy_task(seed=6)
        model = model_new("linear_code", 0, m=2)
        snapshot = [p.copy() for p in arrays(model)]
        config = TrainConfig(max_epochs=2, seed=0)
        first = train(model, train_ds, val_ds, config)
        expected = trained_digest(first)
        for p in arrays(first.model):
            p[...] = 7.0
        for before, after in zip(snapshot, arrays(model)):
            assert np.array_equal(before, after)
        assert trained_digest(train(model, train_ds, val_ds, config)) == expected

    def test_best_epoch_minimizes_validation_loss(self):
        train_ds, val_ds = toy_task(seed=7)
        result = train(
            model_new("linear_code", 3, m=3), train_ds, val_ds,
            TrainConfig(max_epochs=20, seed=2),
        )
        losses = [rec.validation_loss for rec in result.history.epochs]
        assert result.history.best_epoch == int(np.argmin(losses))

    def test_train_loss_improves_on_toy(self):
        train_ds, val_ds = toy_task(seed=8)
        result = train(
            model_new("linear_code", 4, m=3), train_ds, val_ds,
            TrainConfig(learning_rate=1e-2, max_epochs=30, seed=3),
        )
        records = result.history.epochs
        assert records[result.history.best_epoch].train_loss < records[0].train_loss

    def test_divergence_reported_with_epoch(self):
        train_ds, val_ds = toy_task(seed=9)
        model = model_new("nonlinear_full", 1, hidden=(16, 8, 4))
        config = TrainConfig(optimizer="sgd", learning_rate=1e20, max_epochs=30, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, train_ds, val_ds, config)
        assert err.value.epoch >= 0

    def test_sgd_supported(self):
        train_ds, val_ds = toy_task(seed=10)
        result = train(
            model_new("linear_code", 5, m=3), train_ds, val_ds,
            TrainConfig(optimizer="sgd", learning_rate=0.5, max_epochs=20, seed=4),
        )
        assert result.history.epochs[result.history.best_epoch].validation_accuracy > 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    def test_only_settable_fields(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "learning_rate", "batch_size", "max_epochs", "patience", "seed", "optimizer"
        ]


class TestCodeWeights:
    def test_shape_and_initial_value(self):
        model = model_new("linear_code", 11, m=3)
        matrix = code_weights(model)
        assert matrix.shape == (3, 15)
        assert np.array_equal(matrix, model.weights[0])

    def test_rejected_for_full_model(self):
        with pytest.raises(ValueError):
            code_weights(model_new("nonlinear_full", 0))

    def test_code_values_are_plain_matrix_product(self):
        model = model_new("linear_code", 12, m=4)
        batch = np.random.default_rng(0).uniform(-1, 1, (30, 15))
        assert np.array_equal(nn.code_values(model, batch), batch @ code_weights(model).T)

    def test_code_layer_is_exactly_linear(self):
        model = model_new("linear_code", 13, m=3)
        rng = np.random.default_rng(1)
        g1 = rng.uniform(-1, 1, (5, 15))
        g2 = rng.uniform(-1, 1, (5, 15))
        lhs = nn.code_values(model, 0.25 * g1 + 0.5 * g2)
        rhs = 0.25 * nn.code_values(model, g1) + 0.5 * nn.code_values(model, g2)
        assert np.allclose(lhs, rhs, atol=1e-15)


class TestModelSerialization:
    def test_round_trip_preserves_forward_bitwise(self, tmp_path):
        train_ds, val_ds = toy_task(seed=11)
        result = train(
            model_new("linear_code", 6, m=3), train_ds, val_ds,
            TrainConfig(max_epochs=5, seed=5),
        )
        path = str(tmp_path / "model.json")
        save_model(result.model, path)
        loaded = load_model(path)
        batch = val_ds.features
        assert np.array_equal(forward(result.model, batch), forward(loaded, batch))
        assert loaded.architecture == "linear_code"
        assert loaded.m == 3
        assert loaded.best_epoch == result.history.best_epoch
        assert loaded.training_config == result.model.training_config

    def test_round_trip_full_model(self, tmp_path):
        model = model_new("nonlinear_full", 3, hidden=(8, 4, 2))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        batch = np.random.default_rng(0).uniform(-1, 1, (7, 15))
        assert np.array_equal(forward(model, batch), forward(loaded, batch))
        assert loaded.m is None


    @pytest.mark.parametrize(
        "field, value", [("input_width", 14), ("architecture", "transformer")]
    )
    def test_hand_edited_file_rejected(self, tmp_path, field, value):
        path = str(tmp_path / "model.json")
        save_model(model_new("linear_code", 0, m=2), path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload[field] = value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match=re.escape(path)):
            load_model(path)

    @staticmethod
    def saved_with_training_config(tmp_path, **entries):
        """A saved linear_code model whose training_config has `entries` added."""
        model = model_new("linear_code", 0, m=2)
        model.training_config = TrainConfig(learning_rate=0.01, seed=4)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["training_config"].update(entries)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return model, path

    def test_file_recording_adam_constants_loads(self, tmp_path):
        # Model files once recorded beta1, beta2 and eps in training_config.
        model, path = self.saved_with_training_config(
            tmp_path, beta1=0.9, beta2=0.999, eps=1e-8
        )
        loaded = load_model(path)
        assert loaded.training_config == model.training_config
        batch = np.random.default_rng(1).uniform(-1, 1, (9, 15))
        assert np.array_equal(forward(model, batch), forward(loaded, batch))

    @pytest.mark.parametrize(
        "entries",
        [{"beta1": 0.8}, {"eps": 1e-7, "beta2": 0.999}, {"momentum": 0.9}],
        ids=["differing-beta1", "differing-eps", "unknown-key"],
    )
    def test_unsupported_training_config_rejected(self, tmp_path, entries):
        _, path = self.saved_with_training_config(tmp_path, **entries)
        with pytest.raises(ValueError, match=re.escape(path)):
            load_model(path)


class TestModelValidation:
    def test_final_layer_must_be_sigmoid_width_one(self):
        with pytest.raises(ValueError):
            MlpModel([LayerSpec(2, "sigmoid")], [np.zeros((2, 15))], [np.zeros(2)])
        with pytest.raises(ValueError):
            MlpModel([LayerSpec(1, "relu")], [np.zeros((1, 15))], [np.zeros(1)])

    def test_shape_chain_checked(self):
        specs = [LayerSpec(3, "relu"), LayerSpec(1, "sigmoid")]
        with pytest.raises(ValueError):
            MlpModel(specs, [np.zeros((3, 15)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)])

    def test_bias_consistency_checked(self):
        specs = [LayerSpec(1, "sigmoid", has_bias=False)]
        with pytest.raises(ValueError):
            MlpModel(specs, [np.zeros((1, 15))], [np.zeros(1)])


def _golden_custom_model(seed):
    """Bias-free linear code, a hidden sigmoid layer, then relu: every backward branch."""
    specs = [
        LayerSpec(5, "linear", has_bias=False),
        LayerSpec(6, "sigmoid"),
        LayerSpec(4, "relu"),
        LayerSpec(1, "sigmoid"),
    ]
    weights, biases = nn._init_layers(np.random.default_rng(seed), 15, specs)
    return MlpModel(specs, weights, biases)


#: name -> (model builder, config, SHA-256 of the trained weights, biases and
#: history). The 1024-row training split is a multiple of the default batch
#: size, so only the ragged case has a short final batch.
GOLDEN = {
    "full_adam": (
        lambda: model_new("nonlinear_full", 21),
        TrainConfig(max_epochs=3, seed=31),
        "bea0d4c7a2f9b8992ac66fe5c7c18507895ae7dfc28be0199688e6cb06f50af2",
    ),
    "linear_m1_adam": (
        lambda: model_new("linear_code", 22, m=1),
        TrainConfig(learning_rate=1e-2, max_epochs=4, seed=32),
        "ff70756d551430f8e3ebdccc5637f272a6c9ab54b0d034dbec8fdcdb6b3f32a1",
    ),
    "linear_m3_adam": (
        lambda: model_new("linear_code", 23, m=3),
        TrainConfig(learning_rate=1e-2, max_epochs=4, seed=33),
        "564d136112f2d3d309539b40b26077e4e42599621a82f2bfc43d704e03fd3c4e",
    ),
    "linear_m15_sgd": (
        lambda: model_new("linear_code", 24, m=15),
        TrainConfig(optimizer="sgd", learning_rate=0.5, max_epochs=4, seed=34),
        "5f845b9b4b78148cd83def26c657a52f6a3c6df8f508871550e8b055dabfafae",
    ),
    "custom_sigmoid": (
        lambda: _golden_custom_model(25),
        TrainConfig(learning_rate=1e-2, max_epochs=4, seed=35),
        "d77f86ec27a8f982aa1a3bf494d75912d8644c6ab4653dae33ca6dbc9c93b92c",
    ),
    "ragged_batches": (
        lambda: model_new("linear_code", 26, m=3),
        TrainConfig(batch_size=100, max_epochs=4, seed=36),
        "6f0fdbf4fa4308e43b28bc2f7136242e2bc233b9b3fad5a86d6848843d79b8a6",
    ),
    "batch_exceeds_train": (
        lambda: model_new("nonlinear_full", 27, hidden=(32, 16, 4)),
        TrainConfig(batch_size=2048, max_epochs=5, seed=37),
        "2e84f0ffc9ab5b822463f5a2150856a74c826430047aa8293464bd9b912b0213",
    ),
}


def trained_digest(result):
    digest = hashlib.sha256()
    for w, b in zip(result.model.weights, result.model.biases):
        digest.update(w.tobytes())
        if b is not None:
            digest.update(b.tobytes())
    digest.update(np.array(result.history.epochs, dtype=float).tobytes())
    digest.update(str(result.history.best_epoch).encode())
    return digest.hexdigest()


class TestGoldenTraining:
    """Training is bit-for-bit reproducible: these digests pin the exact float64 result."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_trained_digest(self, case):
        build, config, expected = GOLDEN[case]
        train_ds, val_ds = toy_task(n=1280, seed=40)
        assert len(train_ds.features) == 1024
        result = train(build(), train_ds, val_ds, config)
        assert len(result.history.epochs) == config.max_epochs
        assert trained_digest(result) == expected
