"""Tests for the network engine: shapes, gradients, training, serialization."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from types import SimpleNamespace

from entwitness import nn
from entwitness.nn import (
    FULL_ENCODER_WIDTHS,
    LayerSpec,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    Workspace,
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
    _, grad = loss_and_gradients(model, batch, labels)
    params = model.params
    worst = 0.0
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + FD_STEP
        plus, _ = loss_and_gradients(model, batch, labels)
        params[k] = orig - FD_STEP
        minus, _ = loss_and_gradients(model, batch, labels)
        params[k] = orig
        fd = (plus - minus) / (2 * FD_STEP)
        if abs(grad[k]) < 1e-8:
            worst = max(worst, abs(fd - grad[k]))
        else:
            worst = max(worst, abs(fd - grad[k]) / abs(grad[k]))
    return worst


def gradient_check_cases(seed):
    """A small `hidden=` model of each architecture, its parameters perturbed so that
    no bias is zero, with a batch and labels to check its gradient on."""
    rng = np.random.default_rng(seed)
    models = [
        model_new("nonlinear_full", seed, hidden=(5, 4, 3)),
        model_new("linear_code", seed, m=4, hidden=(5, 3)),
    ]
    for model in models:
        model.params += 0.1 * rng.standard_normal(model.params.size)
        yield model, rng.uniform(-1, 1, (6, 15)), (rng.uniform(size=6) > 0.5).astype(float)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def arrays(model):
    return [a for a in model.weights + model.biases if a is not None]


def architecture_models():
    """Models of each architecture: small and default widths, with and without hidden layers."""
    return (
        model_new("nonlinear_full", 0, hidden=(16, 8, 4)),
        model_new("linear_code", 0, m=4, hidden=(7,)),
        model_new("linear_code", 0, m=2, hidden=()),
        model_new("nonlinear_full", 0),
        model_new("linear_code", 0, m=3),
    )


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
        for architecture in ("transformer", "custom"):
            with pytest.raises(ValueError, match="unknown architecture"):
                model_new(architecture, 0)

    def test_layers_follow_the_architecture(self):
        def relu(width):
            return LayerSpec(width, "relu")

        output = LayerSpec(1, "sigmoid")
        built = architecture_models()
        full, linear, bare = built[:3]
        assert full.layer_specs == (
            relu(16), relu(8), LayerSpec(4, "linear"), relu(8), relu(16), output
        )
        assert linear.layer_specs == (LayerSpec(4, "linear", has_bias=False), relu(7), output)
        assert bare.layer_specs == (LayerSpec(2, "linear", has_bias=False), output)
        # One linear layer, the code, at index 2 of nonlinear_full and 0 of linear_code, for
        # the default widths too; the last layer alone is sigmoid, and every other is relu.
        for model, code in zip(built, [2, 0, 0, 2, 0]):
            activations = [spec.activation for spec in model.layer_specs]
            assert activations.count("linear") == 1 and activations[code] == "linear"
            assert activations[-1] == "sigmoid"
            assert set(activations[:code] + activations[code + 1 : -1]) <= {"relu"}

    def test_each_layer_applies_its_spec_activation(self):
        """Run into a workspace, each layer's buffer holds what its spec's activation gives:
        no negative entry under relu, some under the linear code, scores in [0, 1]."""
        batch = np.random.default_rng(3).uniform(-1, 1, (64, 15))
        for model in architecture_models():
            outputs = Workspace(model, len(batch)).buffers(len(batch))[0]
            nn._layers(model, batch, outputs)
            for spec, out in zip(model.layer_specs, outputs, strict=True):
                if spec.activation == "relu":
                    assert out.min() >= 0.0 and out.max() > 0.0
                elif spec.activation == "linear":
                    assert out.min() < 0.0
                else:
                    assert spec.activation == "sigmoid"
                    assert 0.0 <= out.min() and out.max() <= 1.0

    @pytest.mark.parametrize(
        "architecture, m, hidden",
        [("nonlinear_full", None, (4,)), ("nonlinear_full", None, (4, 0)),
         ("linear_code", 2, (8, 0)), ("nonlinear_full", 5, None), ("linear_code", True, None),
         ("linear_code", 3.0, None), ("nonlinear_full", None, (8, 4.0)),
         ("linear_code", 2, (8, True))],
        ids=["full-code-only", "full-code-0", "linear-relu-0", "full-with-m", "m-true",
             "m-float", "full-hidden-float", "linear-hidden-true"],
    )
    def test_widths_validation(self, architecture, m, hidden):
        with pytest.raises(ValueError):
            model_new(architecture, 0, m=m, hidden=hidden)

    @pytest.mark.parametrize(
        "architecture, m, hidden, widths",
        [("nonlinear_full", None, None, (384, 192, 8)),  # train --arch full
         ("nonlinear_full", None, [16, 8, 4], (16, 8, 4)),  # --hidden parses to a list
         ("linear_code", 4, [7], (4, 7)),
         ("linear_code", 2, [], (2,)),
         *(("linear_code", m, None, (m, 256, 128)) for m in range(1, 16))],  # sweep --m, train --m
    )
    def test_model_widths_are_the_widths_built(self, architecture, m, hidden, widths):
        """The widths each request built before `model_widths` existed."""
        assert nn.model_widths(architecture, m, hidden) == widths
        assert model_new(architecture, 0, m=m, hidden=hidden).widths == widths


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

    def test_sigmoid_equals_two_branch_form(self):
        """The one-formula sigmoid gives the bits of the form that takes exp(-z)
        for z >= 0 and exp(z) / (1 + exp(z)) below, and keeps NaN a NaN."""
        z = np.concatenate([
            np.random.default_rng(0).standard_normal(10**6) * 30,
            [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 37.0, -745.2, 800.0, -800.0, np.inf, -np.inf],
        ])
        pos, neg = z >= 0, z < 0
        expected = np.empty_like(z)
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expected[neg] = np.exp(z[neg]) / (1.0 + np.exp(z[neg]))
        out = z.copy()
        assert nn._sigmoid(out) is out
        assert out.tobytes() == expected.tobytes()
        assert np.isnan(nn._sigmoid(np.array([np.nan, -np.nan]))).all()


#: Row counts around the block edges, plus the validation sizes of the benchmark
#: (4000) and of the acceptance suite (25000).
SCORE_BLOCK_ROWS = (
    0, 1, 2, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049, 4000, 25000,
)

#: Row counts around the one-block limit, at which blocks off the 32-row grid
#: would start, and at which every block holds the most grid rows (960).
GRID_ROWS = (480, 481, 713, 714, 960, 6000, 15000)

#: The fewest and the most rows of a scoring block, when there are two or more.
FEWEST_BLOCK_ROWS = 8 * nn._SCORE_GRID
MOST_BLOCK_ROWS = nn._SCORE_BLOCK + nn._SCORE_GRID - 1

#: Row counts at which a scoring block of 1024 rows or more would reach 1206 rows,
#: from where OpenBLAS splits the 384-input `nonlinear_full` output layer between
#: two threads, plus every split size the benchmark and the acceptance suite score.
THREAD_INVARIANCE_ROWS = (
    1206, 1207, 1500, 1699, 1850, 2046, 2047, 2049, 3001,
    4000, 6000, 10_000, 20_000, 25_000, 50_000,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(code, threads):
    """Standard output of `code`, run in this directory by a child interpreter
    whose BLAS uses `threads` threads."""
    src = os.path.dirname(os.path.dirname(nn.__file__))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=os.path.dirname(__file__), env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def perturbed_models(rng):
    """`nonlinear_full` and `linear_code` m = 1, 3, 15, with perturbed weights."""
    models = [model_new("nonlinear_full", 1)]
    models += [model_new("linear_code", 2, m=m) for m in (1, 3, 15)]
    for model in models:
        model.params += 0.1 * rng.standard_normal(model.params.size)
    return models


def blocked_score_mismatches():
    """Each model and row count at which `forward` differs in any bit from one
    whole-matrix pass through every layer, on perturbed weights."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (max(SCORE_BLOCK_ROWS), 15))
    found = []
    for model in perturbed_models(rng):
        for n in (*SCORE_BLOCK_ROWS, *GRID_ROWS):
            whole = nn._layers(model, x[:n])[:, 0]
            if not np.array_equal(forward(model, x[:n]).view(np.int64), whole.view(np.int64)):
                found.append(f"{model.architecture} m={model.m} n={n}")
    return found


def score_digests():
    """One line per model and row count of THREAD_INVARIANCE_ROWS: the case and
    the SHA-256 of its `forward` scores, on perturbed weights."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (max(THREAD_INVARIANCE_ROWS), 15))
    lines = []
    for model in perturbed_models(rng):
        for n in THREAD_INVARIANCE_ROWS:
            digest = hashlib.sha256(forward(model, x[:n]).tobytes()).hexdigest()
            lines.append(f"{model.architecture}:m={model.m}:n={n} {digest}")
    return lines


class TestScoreBlocks:
    @pytest.mark.parametrize("n", [*SCORE_BLOCK_ROWS, *GRID_ROWS, 3071, 3072, 50_000])
    def test_blocks_cover_rows_in_order(self, n):
        blocks = nn._score_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [block.stop - block.start for block in blocks]
        assert min(sizes) >= FEWEST_BLOCK_ROWS or (n < 2 * FEWEST_BLOCK_ROWS and sizes == [n])
        assert max(sizes) <= MOST_BLOCK_ROWS or sizes == [n]
        # On a 32-row grid OpenBLAS's gemv groups a block's rows by four as one pass does.
        assert all(block.start % 32 == 0 for block in blocks)

    def test_workspace_scores_equal_fresh(self):
        """Byte-equal scores whether each block's layers are written into the leading
        rows of a workspace's buffers, reused across row counts, or allocated."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (max(SCORE_BLOCK_ROWS), 15))
        for model in perturbed_models(rng):
            workspace = nn.Workspace(model, MOST_BLOCK_ROWS)
            for n in (*SCORE_BLOCK_ROWS, *GRID_ROWS):
                scores = forward(model, x[:n], workspace)
                assert scores.tobytes() == forward(model, x[:n]).tobytes(), (model.m, n)

    def test_scores_equal_one_whole_matrix_pass(self):
        """Bit for bit, in a child interpreter with single-threaded BLAS.

        With more threads OpenBLAS may split the rows of a large enough width-1
        layer between threads and sum a thread's last rows outside a group of four
        in another order, so one whole-matrix pass of 1206 rows or more through
        the `nonlinear_full` output layer need not give the same last bit.
        """
        code = "import test_nn; print(*test_nn.blocked_score_mismatches())"
        assert run_child(code, threads=1).split() == []

    def test_scores_do_not_depend_on_blas_thread_count(self):
        """Byte-equal scores from child interpreters with one and with two BLAS threads."""
        code = "import test_nn; print(*test_nn.score_digests(), sep='\\n')"
        one, two = (run_child(code, threads).splitlines() for threads in (1, 2))
        assert len(one) == 4 * len(THREAD_INVARIANCE_ROWS)
        assert [a for a, b in zip(one, two) if a != b] == []

    def test_memory_bounded(self):
        """At most two activations of the largest block are alive at once."""
        model = model_new("nonlinear_full", 0)
        x = np.random.default_rng(0).uniform(-1, 1, (50_000, 15))
        tracemalloc.start()
        try:
            scores = forward(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - scores.nbytes < 2 * MOST_BLOCK_ROWS * max(FULL_ENCODER_WIDTHS) * 8


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
        model = model_new("linear_code", 0, m=1, hidden=())
        model.params[:] = 0.0
        model.weights[0][0, 0] = 100.0
        model.weights[1][0, 0] = 1.0
        batch = np.zeros((4, 15))
        batch[:2, 0] = 1.0
        batch[2:, 0] = -1.0
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _ = loss_and_gradients(model, batch, labels)
        assert loss <= 1e-6

    def test_gradients_match_finite_differences_15_3_4_1(self):
        rng = np.random.default_rng(42)
        model = model_new("linear_code", 42, m=3, hidden=(4,))
        assert [w.shape for w in model.weights] == [(3, 15), (4, 3), (1, 4)]
        batch = rng.uniform(-1, 1, (8, 15))
        labels = (rng.uniform(size=8) > 0.5).astype(float)
        assert finite_difference_worst_error(model, batch, labels) < FD_REL_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradients_across_layer_types_and_bias(self, seed):
        """Both architectures: relu layers with biases, a linear code with and without one."""
        for model, batch, labels in gradient_check_cases(seed):
            worst = finite_difference_worst_error(model, batch, labels)
            assert worst < FD_REL_TOL, model.architecture

    def test_shape_validation(self):
        model = model_new("linear_code", 0, m=3)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((4, 15)), np.zeros(5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: model_new("nonlinear_full", 11),
            lambda: model_new("linear_code", 12, m=1),
            lambda: model_new("linear_code", 13, m=9),
        ],
        ids=["nonlinear_full", "linear_m1", "linear_m9"],
    )
    def test_reused_workspace_equals_fresh(self, build):
        """Byte-equal loss and gradient whether the workspace's buffers, which the
        backward pass overwrites, were used before or are new."""
        model = build()
        rng = np.random.default_rng(0)
        model.params += 0.1 * rng.standard_normal(model.params.size)
        workspace = nn.Workspace(model, 256)
        for rows in (256, 32, 256):
            batch = rng.uniform(-1, 1, (rows, 15))
            labels = (rng.uniform(size=rows) > 0.5).astype(float)
            loss, grad = loss_and_gradients(model, batch, labels, workspace)
            fresh_loss, fresh_grad = loss_and_gradients(model, batch, labels)
            assert np.float64(loss).tobytes() == np.float64(fresh_loss).tobytes()
            assert grad.tobytes() == fresh_grad.tobytes()

    def test_workspace_refuses_more_rows_than_it_holds(self):
        workspace = nn.Workspace(model_new("linear_code", 0, m=3), 32)
        outputs, _ = workspace.buffers(32)
        assert [out.shape for out in outputs] == [(32, 3), (32, 256), (32, 128), (32, 1)]
        with pytest.raises(ValueError, match="33 rows asked of a workspace of 32"):
            workspace.buffers(33)

    def test_first_call_allocates_one_activation_set(self):
        """The backward pass writes each delta over an activation, so a first call
        allocates the gradient, one buffer per layer and the bool relu mask, plus
        at most 256 KiB: numpy's cast buffers for the bool mask and the loss's
        row temporaries. A second, delta buffer per layer would add 2.4 MB."""
        model = model_new("nonlinear_full", 0)
        rows = 256
        rng = np.random.default_rng(0)
        batch = rng.uniform(-1, 1, (rows, 15))
        labels = (rng.uniform(size=rows) > 0.5).astype(float)
        tracemalloc.start()
        try:
            loss_and_gradients(model, batch, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        widths = [spec.width for spec in model.layer_specs]
        activations = rows * sum(widths) * 8
        mask = rows * max(widths)
        assert peak < model.params.nbytes + activations + mask + 256 * 1024


class TestTrain:
    @pytest.mark.parametrize("architecture, m", [("nonlinear_full", None), ("linear_code", 9)])
    def test_allocates_one_buffer_set(self, architecture, m):
        """Training batches, the short last one (152 rows) and the validation scoring
        blocks (four for 1500 rows) share one buffer set, sized for the largest
        block. Beyond it, `train` keeps the params copy, the best-epoch copy, Adam's
        two moments and its slice buffer, and the gradient, plus at most 256 KiB:
        a batch copy, numpy's cast buffers and the loss's row temporaries. A second
        set for the short batch, or activations allocated per scoring block, would
        add 0.5 MB (linear_code m=9) to 1.4 MB (nonlinear_full) or more."""
        model = model_new(architecture, 0, m=m)
        rng = np.random.default_rng(0)
        n_train, n_val = 2 * 256 + 152, 1500
        x = rng.uniform(-1, 1, (n_train + n_val, 15))
        y = rng.uniform(size=n_train + n_val) > 0.5
        train_ds = SimpleNamespace(features=x[:n_train], labels=y[:n_train])
        val_ds = SimpleNamespace(features=x[n_train:], labels=y[n_train:])
        tracemalloc.start()
        try:
            train(model, train_ds, val_ds, TrainConfig(max_epochs=2, patience=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = nn._score_blocks(n_val)
        rows = max(block.stop - block.start for block in blocks)
        assert len(blocks) > 1
        widths = [spec.width for spec in model.layer_specs]
        one_set = rows * sum(widths) * 8 + rows * max(widths)
        adam_slice = min(model.params.size, nn._ADAM_SLICE) * 8
        assert peak < 5 * model.params.nbytes + adam_slice + one_set + 256 * 1024

    def test_empty_validation_split_rejected(self):
        train_ds, val_ds = toy_task()
        empty = SimpleNamespace(features=val_ds.features[:0], labels=val_ds.labels[:0])
        with pytest.raises(ValueError) as err:
            train(model_new("linear_code", 0, m=1), train_ds, empty, TrainConfig(max_epochs=1))
        assert str(err.value) == "training and validation datasets must be non-empty"

    def test_toy_separable_task_reaches_perfect_accuracy(self):
        train_ds, val_ds = toy_task()
        model = model_new("linear_code", 1, m=3)
        result = train(model, train_ds, val_ds, TrainConfig(learning_rate=1e-2, max_epochs=50, seed=1))
        assert len(result.history.epochs) <= 50
        best = result.history.epochs[result.model.best_epoch]
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
        assert result.model.best_epoch == int(np.argmin(losses))

    def test_train_loss_improves_on_toy(self):
        train_ds, val_ds = toy_task(seed=8)
        result = train(
            model_new("linear_code", 4, m=3), train_ds, val_ds,
            TrainConfig(learning_rate=1e-2, max_epochs=30, seed=3),
        )
        records = result.history.epochs
        assert records[result.model.best_epoch].train_loss < records[0].train_loss

    def test_divergence_reported_with_epoch(self):
        train_ds, val_ds = toy_task(seed=9)
        model = model_new("nonlinear_full", 1, hidden=(16, 8, 4))
        config = TrainConfig(learning_rate=1e100, max_epochs=30, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, train_ds, val_ds, config)
        assert err.value.epoch >= 0

    def test_config_validation(self):
        for learning_rate in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError):
                TrainConfig(learning_rate=learning_rate)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize(
        "name, value",
        [("learning_rate", True), ("learning_rate", "0.01"), ("batch_size", 2.5),
         ("batch_size", True), ("max_epochs", 3.0), ("patience", 1.5), ("patience", False),
         ("seed", -1), ("seed", 2.5), ("seed", True)],
    )
    def test_config_field_types(self, name, value):
        """Each field as a model file records it: a bool is no number, a float no count."""
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**{name: value})

    def test_only_settable_fields(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "learning_rate", "batch_size", "max_epochs", "patience", "seed"
        ]
        assert [f.name for f in dataclasses.fields(MlpModel) if f.init] == [
            "architecture", "widths", "params", "training_config", "best_epoch"
        ]


def whole_array_adam_step(optimizer, params, grad):
    """The one-pass Adam update over whole arrays that `_Adam.step` slices."""
    optimizer.t += 1
    scale = np.sqrt(1.0 - nn.ADAM_BETA2**optimizer.t) / (1.0 - nn.ADAM_BETA1**optimizer.t)
    m, v, tmp = optimizer.m, optimizer.v, np.empty_like(params)
    m *= nn.ADAM_BETA1
    m += np.multiply(1.0 - nn.ADAM_BETA1, grad, out=tmp)
    v *= nn.ADAM_BETA2
    np.multiply(1.0 - nn.ADAM_BETA2, grad, out=tmp)
    tmp *= grad
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += nn.ADAM_EPS
    np.multiply(optimizer.learning_rate * scale, m, out=grad)
    grad /= tmp
    params -= grad


class TestAdam:
    @pytest.mark.parametrize("size", [1, 16_383, 16_384, 16_385, 157_833])
    def test_blocked_step_equals_whole_array_update(self, size):
        rng = np.random.default_rng(size)
        params = rng.standard_normal(size)
        blocked, whole = nn._Adam(size, 1e-3), nn._Adam(size, 1e-3)
        blocked_params, whole_params = params.copy(), params.copy()
        for _ in range(5):
            grad = rng.standard_normal(size) * rng.choice([1e-6, 1.0, 1e3], size)
            blocked.step(blocked_params, grad.copy())
            whole_array_adam_step(whole, whole_params, grad.copy())
        for a, b in [(blocked_params, whole_params), (blocked.m, whole.m), (blocked.v, whole.v)]:
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert not np.array_equal(blocked_params, params)


class TestCodeWeights:
    def test_shape_and_initial_value(self):
        model = model_new("linear_code", 11, m=3)
        matrix = code_weights(model)
        assert matrix.shape == (3, 15)
        assert np.array_equal(matrix, model.weights[0])

    def test_rejected_for_full_model(self):
        with pytest.raises(ValueError):
            code_weights(model_new("nonlinear_full", 0))


def recorded_config(**entries):
    """The training_config entry of a model file, with `entries` replaced or added."""
    return {**dataclasses.asdict(TrainConfig()), **entries}


def trained_small_full_model():
    train_ds, val_ds = toy_task(seed=11)
    config = TrainConfig(learning_rate=1e-2, max_epochs=5, seed=5)
    return train(model_new("nonlinear_full", 4, hidden=(16, 8, 4)), train_ds, val_ds, config).model


#: name -> (model builder, SHA-256 of the bytes save_model writes for it). These
#: pin the model-file format: files written earlier must keep loading unchanged.
SAVED_DIGESTS = {
    "nonlinear_full": (
        lambda: model_new("nonlinear_full", 1),
        "e229d366f66b61f57c0049048c72b14883c216d63b750115526111146a721949",
    ),
    "nonlinear_full_16_8_4": (
        lambda: model_new("nonlinear_full", 2, hidden=(16, 8, 4)),
        "1da2bf6cc34f36d0615c2ac67ba2ee99f126cb521a89cf4744d7f19f88b80f3d",
    ),
    "linear_m3": (
        lambda: model_new("linear_code", 3, m=3),
        "8812057aa4b401cc5591d2cf5444387425d5ac3a962bcdfb0ac31a88c89c141c",
    ),
    "trained": (
        trained_small_full_model,
        "4211d86e16c0b0becc457ea079aedae51ebfb6627a784d1e67928e2aa54775e1",
    ),
}


class TestModelSerialization:
    @pytest.mark.parametrize("case", sorted(SAVED_DIGESTS))
    def test_saved_bytes_pinned(self, tmp_path, case):
        """The file's SHA-256 is pinned, and loading then saving it again gives the
        same bytes and the same scores."""
        build, expected = SAVED_DIGESTS[case]
        model = build()
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        save_model(model, first)
        assert hashlib.sha256(read_bytes(first)).hexdigest() == expected
        loaded = load_model(first)
        save_model(loaded, second)
        assert read_bytes(second) == read_bytes(first)
        batch = np.random.default_rng(0).uniform(-1, 1, (300, 15))
        assert forward(loaded, batch).tobytes() == forward(model, batch).tobytes()

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
        assert loaded.best_epoch == result.model.best_epoch
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
        "edit",
        [
            lambda p: p.update(input_width=14),
            lambda p: p.update(architecture="transformer"),
            # Two of the four layers: forward would score with a relu unit.
            lambda p: p.update(weights=p["weights"][:2], biases=p["biases"][:2]),
            lambda p: p["weights"][1].pop(),
            lambda p: p["biases"].__setitem__(0, [0.0, 0.0]),
            lambda p: p["biases"].__setitem__(1, None),
            lambda p: p["weights"][1].append(p["weights"][1][0][:-1]),
            lambda p: p.update(weights=None),
            lambda p: p.update(layer_specs=None),
            lambda p: p["layer_specs"][0].update(dropout=0.5),
            lambda p: p.pop("best_epoch"),
            lambda p: p.update(m=5),
            lambda p: p.update(training_config=recorded_config(optimizer="sgd")),
            lambda p: p.update(best_epoch=True),
            lambda p: p.update(m=True),
            lambda p: p.update(training_config=recorded_config(batch_size=True)),
            lambda p: p.update(training_config=recorded_config(seed=True)),
            lambda p: p.update(architecture="custom"),
            lambda p: p.update(architecture="nonlinear_full", m=None),
            lambda p: p["layer_specs"][1].update(activation="sigmoid"),
            lambda p: (p["layer_specs"][0].update(has_bias=True), p["biases"].__setitem__(0, [0])),
            lambda p: p["layer_specs"][1].update(has_bias=1),
            lambda p: p["layer_specs"][1].update(width=256.0),
            # The layout's total kept, a layer's shapes changed.
            lambda p: p["weights"].__setitem__(0, [[x] for x in p["weights"][0][0]]),
            lambda p: p["biases"][3].append(p["biases"][1].pop()),
            # json.dump writes these as NaN and Infinity, which json.load reads back.
            lambda p: p["weights"][1][0].__setitem__(0, float("nan")),
            lambda p: p["biases"][1].__setitem__(0, float("inf")),
            lambda p: p.update(best_epoch=-7),
        ],
        ids=[
            "input_width-14",
            "architecture-transformer",
            "fewer-layers",
            "weight-shape",
            "bias-without-has_bias",
            "null-bias-with-has_bias",
            "ragged-weight",
            "null-weights",
            "null-layer_specs",
            "unknown-layer_specs-key",
            "no-best_epoch",
            "m-mismatch",
            "optimizer-sgd",
            "best_epoch-true",
            "m-true",
            "batch_size-true",
            "seed-true",
            "architecture-custom",
            "architecture-swapped",
            "hidden-sigmoid",
            "bias-on-linear_code-code",
            "has_bias-1",
            "width-float",
            "code-transposed",
            "bias-value-moved",
            "nan-weight",
            "inf-bias",
            "best_epoch-negative",
        ],
    )
    def test_hand_edited_file_rejected(self, tmp_path, edit):
        path = str(tmp_path / "model.json")
        save_model(model_new("linear_code", 0, m=1), path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        edit(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match=re.escape(path)):
            load_model(path)

    def test_training_config_must_be_an_object(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(model_new("linear_code", 0, m=1), path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**payload, "training_config": 5}, handle)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: training_config must be a JSON object or null"

    @pytest.mark.parametrize(
        "config, best_epoch",
        [(TrainConfig(max_epochs=2), 1), (None, 10**6)],
        ids=["max_epochs-1", "no-training_config"],
    )
    def test_best_epoch_loads(self, tmp_path, config, best_epoch):
        """The last epoch of a recorded run loads; without a training_config any
        best_epoch >= 0 does."""
        path = str(tmp_path / "model.json")
        model = dataclasses.replace(
            model_new("linear_code", 0, m=3), training_config=config, best_epoch=best_epoch
        )
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.best_epoch == best_epoch and loaded.training_config == config

    @pytest.mark.parametrize("best_epoch", [2, 999])
    def test_best_epoch_past_recorded_run_rejected(self, tmp_path, best_epoch):
        """A run of max_epochs epochs numbers them 0..max_epochs - 1."""
        path = str(tmp_path / "model.json")
        model = dataclasses.replace(
            model_new("linear_code", 0, m=3),
            training_config=TrainConfig(max_epochs=2),
            best_epoch=best_epoch,
        )
        save_model(model, path)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: best_epoch must be "):
            load_model(path)

    @pytest.mark.parametrize("width", [10**15, 10**6])
    def test_edited_width_refused_before_allocation(self, tmp_path, width):
        """A width that is not the size of its layer's recorded values is refused before
        a model of that width is allocated, so nothing near its size is ever traced."""
        path = str(tmp_path / "model.json")
        save_model(model_new("linear_code", 0, m=1, hidden=(4,)), path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["layer_specs"][1]["width"] = width
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(path)):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("case", sorted(SAVED_DIGESTS))
    def test_any_json_layout_loads(self, tmp_path, case):
        """The entries are compared as sorted JSON, so a file re-dumped without
        indentation and with each layer_specs entry's keys in another order loads
        and scores the same."""
        model = SAVED_DIGESTS[case][0]()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["layer_specs"] = [dict(reversed(spec.items())) for spec in payload["layer_specs"]]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        loaded = load_model(path)
        batch = np.random.default_rng(2).uniform(-1, 1, (300, 15))
        assert forward(loaded, batch).tobytes() == forward(model, batch).tobytes()
        assert loaded.training_config == model.training_config
        assert loaded.best_epoch == model.best_epoch

    @staticmethod
    def derived_entry_edits(payload):
        """(name, edit) for each entry of a saved file that follows from the model:
        m, input_width, architecture and each field of each layer_specs entry."""
        other = {"nonlinear_full": "linear_code", "linear_code": "nonlinear_full",
                 "relu": "linear", "linear": "sigmoid", "sigmoid": "relu"}
        yield "m", lambda p: p.update(m=1 if p["m"] is None else p["m"] + 1)
        yield "input_width", lambda p: p.update(input_width=16)
        yield "architecture", lambda p: p.update(architecture=other[p["architecture"]])
        for i in range(len(payload["layer_specs"])):
            yield f"layer {i} width", lambda p, i=i: p["layer_specs"][i].update(
                width=p["layer_specs"][i]["width"] + 1)
            yield f"layer {i} activation", lambda p, i=i: p["layer_specs"][i].update(
                activation=other[p["layer_specs"][i]["activation"]])
            yield f"layer {i} has_bias", lambda p, i=i: p["layer_specs"][i].update(
                has_bias=not p["layer_specs"][i]["has_bias"])

    @pytest.mark.parametrize("case", sorted(SAVED_DIGESTS))
    def test_any_changed_derived_entry_rejected(self, tmp_path, case):
        path = str(tmp_path / "model.json")
        save_model(SAVED_DIGESTS[case][0](), path)
        saved = json.loads(read_bytes(path))
        # The weights and biases are written once as text and spliced into every file.
        arrays = json.dumps({key: saved.pop(key) for key in ("weights", "biases")})

        def write(payload):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload)[:-1] + ", " + arrays[1:])

        write(saved)
        load_model(path)  # unedited, it loads
        for name, edit in self.derived_entry_edits(saved):
            payload = {**saved, "layer_specs": [dict(spec) for spec in saved["layer_specs"]]}
            edit(payload)
            write(payload)
            with pytest.raises(ValueError, match=re.escape(path)):
                load_model(path)
                pytest.fail(f"a file with its {name} changed loaded")

    def test_file_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        message = f"{path}: model file must hold a JSON object"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(str(path))

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
        # Model files once recorded the update rule in training_config, and
        # older ones beta1, beta2 and eps as well.
        adam = {"optimizer": "adam"}
        for entries in (adam, {**adam, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}):
            model, path = self.saved_with_training_config(tmp_path, **entries)
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
        for model in (
            model_new("nonlinear_full", 0, hidden=(4, 2)),
            model_new("linear_code", 0, m=2, hidden=()),
        ):
            assert model.layer_specs[-1] == LayerSpec(1, "sigmoid")
            assert model.weights[-1].shape[0] == 1 and model.biases[-1].shape == (1,)

    def test_shape_chain_checked(self):
        # 15 -> 3 -> 2 -> 3 -> 1, every layer with a bias: 48 + 8 + 9 + 4 = 69 values.
        assert MlpModel("nonlinear_full", (3, 2), np.zeros(69)).weights[3].shape == (1, 3)
        for size in (68, 70, 85):  # 85: as if the output layer read the 15 inputs
            with pytest.raises(ValueError, match="of 69 values"):
                MlpModel("nonlinear_full", (3, 2), np.zeros(size))

    def test_bias_consistency_checked(self):
        # The bias-free code (15 weights), then the output's weight and bias.
        assert MlpModel("linear_code", (1,), np.zeros(17)).biases[0] is None
        with pytest.raises(ValueError, match="of 17 values"):
            MlpModel("linear_code", (1,), np.zeros(18))

    @pytest.mark.parametrize(
        "params",
        [np.zeros(17, dtype=np.float32), np.zeros(34)[::2], np.zeros((1, 17)), [0.0] * 17],
        ids=["float32", "strided", "2-d", "list"],
    )
    def test_params_must_be_flat_contiguous_float64(self, params):
        with pytest.raises(ValueError, match="1-D C-contiguous float64"):
            MlpModel("linear_code", (1,), params)

    def test_weights_and_biases_view_params(self):
        model = model_new("linear_code", 0, m=2)
        model.biases[1][0] = 5.0
        assert model.params[2 * 15 + 256 * 2] == 5.0
        for p in arrays(model):
            assert np.shares_memory(p, model.params)


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
    "linear_m15_adam": (
        lambda: model_new("linear_code", 24, m=15),
        TrainConfig(learning_rate=1e-2, max_epochs=4, seed=34),
        "dd7bf1b3f4937c21f3f8f6c0bd0c04280e49bc02e92dac4394a9ce34e7ba0624",
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
    digest.update(str(result.model.best_epoch).encode())
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
