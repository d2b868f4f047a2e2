"""Small feedforward network engine with manual backpropagation.

Builds exactly the two classifier shapes used for witness training, each fixed
by its widths: the full-information bottleneck net (relu encoder/decoder around
a linear code) and the linear-code net whose bias-free first layer is the set of
learned linear measurements. Everything is plain numpy and deterministic in the seeds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .data import _json_text, _write_atomic

ARCHITECTURES = ("nonlinear_full", "linear_code")

SCORE_CLAMP = 1e-12

# Scoring blocks (`_score_blocks`) hold at most _SCORE_BLOCK rows of a _SCORE_GRID-row
# grid on which each block starts, the last block also the rows below the grid: so each
# holds 8 * _SCORE_GRID to _SCORE_BLOCK + _SCORE_GRID - 1 rows (256..511), or it is the one
# block of fewer than 512 rows. That keeps scores bit-identical to one whole pass: a
# separate short tail would change them (a 1-row matmul goes to gemv, which rounds
# differently), and so would a block starting off the grid, since OpenBLAS's gemv (the
# width-1 output layer) sums rows in groups of four. Under 512 rows a block stays well
# below where OpenBLAS splits a width-1 layer of the default architectures between
# threads, so scores do not depend on the thread count; a block's widest activation on
# `nonlinear_full` stays under 1.6 MB.
_SCORE_GRID = 32
_SCORE_BLOCK = 480

# Elements per slice of an Adam step: its five arrays' slices stay in cache together.
_ADAM_SLICE = 16_384

FULL_ENCODER_WIDTHS = (384, 192, 8)  # last entry is the linear code width
LINEAR_HIDDEN_WIDTHS = (256, 128)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class LayerSpec:
    """One layer as a model file records it; only `_layer_specs` makes them."""

    width: int
    activation: str
    has_bias: bool = True


def _layer_specs(architecture: str, widths: Sequence[int]) -> tuple[LayerSpec, ...]:
    """The layers `architecture` builds from `widths`, input side first: for "nonlinear_full"
    the encoder's relu widths, then the code width (the decoder mirrors the relu layers); for
    "linear_code" the code width m, then the relu widths. Relu layers have a bias, the linear
    code has one only in "nonlinear_full", and the output is one sigmoid unit."""
    if architecture == "nonlinear_full":
        if len(widths) < 2:
            raise ValueError("nonlinear_full needs at least one relu layer plus a code")
        relu = [LayerSpec(w, "relu") for w in widths[:-1]]
        specs = [*relu, LayerSpec(widths[-1], "linear"), *reversed(relu)]
    elif architecture == "linear_code":
        m = widths[0] if widths else None
        if type(m) is not int or not 1 <= m <= 15:
            raise ValueError(f"linear_code needs m in 1..15, got {m!r}")
        specs = [LayerSpec(m, "linear", has_bias=False)]
        specs += (LayerSpec(w, "relu") for w in widths[1:])
    else:
        raise ValueError(f"unknown architecture {architecture!r}")
    # A model file records each width as a JSON integer: a bool or a float is no width.
    if not all(type(spec.width) is int and spec.width >= 1 for spec in specs):
        raise ValueError(f"layer widths must be integers >= 1, got {tuple(widths)}")
    return (*specs, LayerSpec(1, "sigmoid"))


@dataclass(eq=False)
class MlpModel:
    """An architecture, its widths (as `_layer_specs` takes them) and one flat `params` array,
    zeroed when not given; `weights` (per layer, shape (fan_out, fan_in)) and `biases` are
    views into it. Each layer applies the activation its `layer_specs` entry records."""

    input_width: ClassVar[int] = 15
    architecture: str
    widths: tuple[int, ...]
    params: np.ndarray | None = None
    training_config: "TrainConfig | None" = None
    best_epoch: int | None = None
    layer_specs: tuple[LayerSpec, ...] = field(init=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.widths = tuple(self.widths)
        self.layer_specs = _layer_specs(self.architecture, self.widths)
        self.params, self.weights, self.biases = _views(self.layer_specs, self.params)

    @property
    def m(self) -> int | None:
        """The number of learned measurements: the code width of a linear_code model."""
        return self.widths[0] if self.architecture == "linear_code" else None


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 120
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        # A model file records these as JSON numbers, where true and false are none.
        if isinstance(self.learning_rate, bool) or not isinstance(self.learning_rate, (int, float)):
            raise ValueError(f"learning_rate must be an int or a float, got {self.learning_rate!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        for name, least in (("batch_size", 1), ("patience", 1), ("max_epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


class EpochRecord(NamedTuple):
    train_loss: float
    validation_loss: float
    validation_accuracy: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)


class TrainResult(NamedTuple):
    model: MlpModel
    history: TrainHistory


def _views(
    specs: Sequence[LayerSpec], params: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray | None]]:
    """`params` and its per-layer views, laid out w0, b0, w1, b1, ... with absent biases
    skipped: the only code that knows this layout. A `params` that is not 1-D, C-contiguous
    float64 of the layout's size is rejected; without one, a zeroed one is made."""
    fan_ins = [MlpModel.input_width, *(spec.width for spec in specs[:-1])]
    size = sum(spec.width * (fan_in + spec.has_bias) for spec, fan_in in zip(specs, fan_ins))
    if params is None:
        params = np.zeros(size)
    elif not isinstance(params, np.ndarray) or params.shape != (size,) or not (
        params.dtype == np.float64 and params.flags.c_contiguous
    ):
        got = (
            f"{params.size} {params.dtype} values of shape {params.shape}"
            if isinstance(params, np.ndarray) else f"a {type(params).__name__}"
        )
        raise ValueError(f"params must be a 1-D C-contiguous float64 array of {size} values, "
                         f"got {got}")
    weights, biases, offset = [], [], 0
    for spec, fan_in in zip(specs, fan_ins):
        weights.append(params[offset : offset + spec.width * fan_in].reshape(spec.width, fan_in))
        offset += spec.width * fan_in
        biases.append(params[offset : offset + spec.width] if spec.has_bias else None)
        offset += spec.width if spec.has_bias else 0
    return params, weights, biases


def model_widths(
    architecture: str, m: int | None = None, hidden: Sequence[int] | None = None
) -> tuple[int, ...]:
    """The widths `model_new` builds, as `_layer_specs` takes them, or a ValueError. `hidden`
    replaces the default relu widths: `FULL_ENCODER_WIDTHS` (code width last) for
    "nonlinear_full", which takes no m, and `LINEAR_HIDDEN_WIDTHS`, after m in 1..15, for
    "linear_code". Every width is an int >= 1."""
    if architecture == "nonlinear_full" and m is not None:
        raise ValueError(f"nonlinear_full takes no m, got {m!r}")
    if architecture == "linear_code":
        widths = (m, *(LINEAR_HIDDEN_WIDTHS if hidden is None else hidden))
    else:
        widths = tuple(FULL_ENCODER_WIDTHS if hidden is None else hidden)
    _layer_specs(architecture, widths)
    return widths


def model_new(
    architecture: str,
    seed: int,
    m: int | None = None,
    hidden: Sequence[int] | None = None,
) -> MlpModel:
    """Build the model `model_widths` gives, with seeded initial weights: Gaussian scaled
    by 1/sqrt(fan_in), layer by layer; biases are 0."""
    model = MlpModel(architecture, model_widths(architecture, m, hidden))
    rng = np.random.default_rng(seed)
    for w in model.weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of z, in place; each sign takes the branch that cannot overflow."""
    pos = z >= 0
    neg = ~pos
    ez = np.exp(z[neg])
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    z[neg] = ez / (1.0 + ez)
    return z


def _layers(model: MlpModel, a: np.ndarray, outputs: list | None = None) -> np.ndarray:
    """Scores, shape (rows, 1), for input rows a; layer i writes into outputs[i] when
    given. Each layer applies the activation its spec records: relu, sigmoid or linear."""
    for i, spec in enumerate(model.layer_specs):
        a = np.matmul(a, model.weights[i].T, out=None if outputs is None else outputs[i])
        if spec.has_bias:
            a += model.biases[i]
        if spec.activation == "relu":
            np.maximum(a, 0.0, out=a)
        elif spec.activation == "sigmoid":
            _sigmoid(a)
    return a


def _bce(scores: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of scores clamped to [SCORE_CLAMP, 1 - SCORE_CLAMP]."""
    clamped = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return float(-np.mean(y * np.log(clamped) + (1.0 - y) * np.log1p(-clamped)))


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != model.input_width:
        raise ValueError(
            f"batch must have shape (n, {model.input_width}), got {batch.shape}"
        )
    return batch


def _score_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering 0..n, as few as `_SCORE_BLOCK`-row blocks allow
    and of roughly equal size: each starts on a multiple of `_SCORE_GRID` rows, where
    OpenBLAS's gemv starts a group of four rows as in one whole pass, and holds the
    rows that the comment on the scoring constants bounds.

    The blocks share the `n // _SCORE_GRID` grid cells of 32 rows as evenly as
    they go. With count = ceil(cells / 15) each gets at most 15 cells (480 rows)
    and, once there are 16 cells or more, at least 8 (256 rows); the last block
    also takes the rows below the grid, at most 31.
    """
    cells, most = n // _SCORE_GRID, _SCORE_BLOCK // _SCORE_GRID
    count = max(-(-cells // most), 1)
    starts = [_SCORE_GRID * (cells * i // count) for i in range(count)]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def forward(
    model: MlpModel, batch: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Entanglement scores in [0, 1], one per feature row.

    Rows are scored in `_score_blocks`, so memory stays bounded whatever the row
    count: without a workspace at most two activations of one block are alive
    at once, and with one (`train` passes its own, with rows for the largest
    block) each block's layers are written into the leading rows of its buffers
    and nothing per block is allocated. Either way, with single-threaded BLAS
    every score equals that of one whole-matrix pass bit for bit. The block
    bound (see the scoring constants) also keeps the width-1 layers of the
    default widths (the sigmoid output, the m=1 code) on one OpenBLAS thread, so
    scores do not depend on the thread count; measured with OpenBLAS 0.3.31,
    which splits the 384-input output layer of `nonlinear_full` from about 1200
    rows. A training batch above about 1200 rows on `nonlinear_full` may still
    be split across threads and round a few rows differently.
    """
    x = _check_batch(model, batch)
    scores = np.empty(x.shape[0])
    for rows in _score_blocks(x.shape[0]):
        outputs = None if workspace is None else workspace.buffers(rows.stop - rows.start)[0]
        scores[rows] = _layers(model, x[rows], outputs)[:, 0]
    return scores


def code_weights(model: MlpModel) -> np.ndarray:
    """The m x 15 measurement matrix; row k combines the Pauli expectations."""
    if model.architecture != "linear_code":
        raise ValueError("code_weights requires a linear_code model")
    return model.weights[0].copy()


class Workspace:
    """Buffers that one model's training steps and validation scoring reuse instead
    of allocating.

    `grad` is the flat gradient, laid out like `params` and written through per-layer
    views. There is one buffer set of `rows` rows, allocated here: one buffer per
    layer, which holds the layer's output on the forward pass and is overwritten by
    its delta on the backward pass, and one bool buffer for the relu mask of any one
    layer. Its owner sizes it for its largest batch or scoring block (for a scoring
    block, see the bound on the scoring constants); a shorter one uses the set's
    leading rows. Those are C-contiguous like a fresh array, so every BLAS call is
    the same call and every bit of its result is unchanged.
    """

    def __init__(self, model: MlpModel, rows: int):
        self.grad, self._weight_grads, self._bias_grads = _views(
            model.layer_specs, np.empty_like(model.params)
        )
        widths = [spec.width for spec in model.layer_specs]
        self._outputs = [np.empty((rows, width)) for width in widths]
        self._mask = np.empty(rows * max(widths), dtype=bool)

    def buffers(self, rows: int) -> tuple[list[np.ndarray], np.ndarray]:
        """The leading `rows` rows of each layer's buffer, and the flat mask buffer."""
        if rows > len(self._outputs[0]):
            raise ValueError(f"{rows} rows asked of a workspace of {len(self._outputs[0])}")
        return [out[:rows] for out in self._outputs], self._mask


def loss_and_gradients(
    model: MlpModel, batch: np.ndarray, labels: np.ndarray, workspace: Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its reverse-mode gradient, flat like `model.params`.

    Each layer applies its spec's activation; backward, each relu layer's delta is masked
    by its output. With a workspace the gradient is its `grad`, overwritten by the next
    call that uses it; without one it belongs to the caller. Each layer's delta overwrites
    its activations, so afterwards the workspace's buffers hold deltas, not activations.
    """
    batch = _check_batch(model, batch)
    y = np.asarray(labels, dtype=float)
    if y.shape != (batch.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match batch {batch.shape}")
    if workspace is None:
        workspace = Workspace(model, batch.shape[0])
    outputs, mask = workspace.buffers(batch.shape[0])

    scores = _layers(model, batch, outputs)[:, 0]
    acts = [batch, *outputs]  # index i+1 is the output of layer i
    loss = _bce(scores, y)

    # Fused sigmoid + cross-entropy derivative at the output, over the scores.
    delta = outputs[-1]
    np.subtract(scores, y, out=scores)
    delta /= batch.shape[0]
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=workspace._weight_grads[i])
        if workspace._bias_grads[i] is not None:
            np.sum(delta, axis=0, out=workspace._bias_grads[i])
        if i == 0:
            break
        # A relu mask is taken from layer i - 1's output before its delta overwrites it.
        below, relu = acts[i], model.layer_specs[i - 1].activation == "relu"
        if relu:
            relu_mask = np.greater(below, 0.0, out=mask[: below.size].reshape(below.shape))
        if delta.shape[1] == 1:
            np.multiply(delta, model.weights[i], out=below)  # a k = 1 product, exactly
        else:
            np.matmul(delta, model.weights[i], out=below)
        if relu:
            below *= relu_mask  # a bool mask multiplies exactly, as 1.0 and 0.0
        delta = below
    return loss, workspace.grad


class _Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) on one flat parameter array, updated in place."""

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty(min(size, _ADAM_SLICE))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update of params from grad, which is left holding scratch values.

        Walks the arrays in `_ADAM_SLICE`-element slices; every element gets the
        same operations in the same order as in one whole-array pass.
        """
        self.t += 1
        step_size = self.learning_rate * (
            np.sqrt(1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA1**self.t)
        )
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # params -= (step_size*m) / (sqrt(v) + eps), each rounded as written.
        for start in range(0, params.size, _ADAM_SLICE):
            part = slice(start, start + _ADAM_SLICE)
            p, g, m, v = params[part], grad[part], self.m[part], self.v[part]
            tmp = self.scratch[: g.size]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
            tmp *= g
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += ADAM_EPS
            np.multiply(step_size, m, out=g)
            g /= tmp
            p -= g


def train(model: MlpModel, train_ds, validation_ds, config: TrainConfig) -> TrainResult:
    """Mini-batch training with early stopping on validation loss.

    Shuffling is keyed to config.seed, so (seed, data, config) fully determine
    the result. The returned model carries the weights of the epoch with the
    lowest validation loss; the caller's model is never mutated.
    """
    x_train = _check_batch(model, train_ds.features)
    y_train = np.asarray(train_ds.labels, dtype=float)
    x_val = _check_batch(model, validation_ds.features)
    y_val = np.asarray(validation_ds.labels, dtype=float)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("training and validation datasets must be non-empty")

    # Adam and the best-epoch snapshot each act on the single flat array.
    params = model.params.copy()
    work = replace(model, params=params)
    # The one buffer set, sized for its largest user: a training batch or a scoring block.
    largest_block = max(rows.stop - rows.start for rows in _score_blocks(x_val.shape[0]))
    workspace = Workspace(work, max(min(config.batch_size, x_train.shape[0]), largest_block))
    optimizer = _Adam(params.size, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]

    history = TrainHistory()
    best_loss = np.inf
    best_epoch = 0
    best = params.copy()

    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grad = loss_and_gradients(work, x_train[idx], y_train[idx], workspace)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            optimizer.step(params, grad)
            loss_sum += loss * idx.size
        train_loss = loss_sum / n

        val_scores = forward(work, x_val, workspace)
        val_loss = _bce(val_scores, y_val)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch)
        val_acc = float(np.mean((val_scores >= 0.5) == (y_val > 0.5)))
        history.epochs.append(EpochRecord(train_loss, val_loss, val_acc))

        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            np.copyto(best, params)
        elif epoch - best_epoch >= config.patience:
            break

    result = replace(work, params=best, training_config=config, best_epoch=best_epoch)
    return TrainResult(result, history)


def _recorded_entries(model: MlpModel) -> dict:
    """Every entry of a model file but the weights and biases: those that follow from the model."""
    return {
        "architecture": model.architecture,
        "m": model.m,
        "input_width": model.input_width,
        "layer_specs": [asdict(s) for s in model.layer_specs],
        "training_config": None if model.training_config is None else asdict(model.training_config),
        "best_epoch": model.best_epoch,
    }


def save_model(model: MlpModel, path: str) -> None:
    """Serialize to JSON; floats round-trip exactly, so forward() is preserved."""
    payload = {
        **_recorded_entries(model),
        "weights": [w.tolist() for w in model.weights],
        "biases": [None if b is None else b.tolist() for b in model.biases],
    }
    _write_atomic(path, _json_text(payload))


# Old training_config entries (the update rule, the Adam constants), loaded only at these values.
_RECORDED_ADAM = {"optimizer": "adam", "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}

def _load_training_config(recorded: dict | None) -> TrainConfig | None:
    if recorded is None:
        return None
    if not isinstance(recorded, dict):
        raise ValueError("training_config must be a JSON object or null")
    known = {f.name for f in fields(TrainConfig)}
    extra = {key: value for key, value in recorded.items() if key not in known}
    if not extra.items() <= _RECORDED_ADAM.items():
        raise ValueError(f"unsupported training_config entries {extra}")
    return TrainConfig(**{key: value for key, value in recorded.items() if key in known})


def load_model(path: str) -> MlpModel:
    """Read a model file; a malformed or inconsistent one raises a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError("model file must hold a JSON object")
        specs, architecture = payload.get("layer_specs"), payload.get("architecture")
        if not isinstance(specs, list) or not specs or not all(isinstance(s, dict) for s in specs):
            raise ValueError("layer_specs must list layers")
        weights, biases = payload.get("weights"), payload.get("biases")
        if not all(isinstance(x, list) and len(x) == len(specs) for x in (weights, biases)):
            raise ValueError(f"weights and biases must list all {len(specs)} layers")
        # The recorded values in file order, a null bias skipped, are the model's params:
        # `_views` refuses a total its layout does not hold before anything of that size is
        # allocated, so an edited width of 10**15 is refused.
        values = [[np.array(w, dtype=float), None if b is None else np.array(b, dtype=float)]
                  for w, b in zip(weights, biases)]
        params = np.concatenate([x.ravel() for layer in values for x in layer if x is not None])
        if not np.all(np.isfinite(params)):  # JSON NaN and Infinity parse as floats
            raise ValueError("weights and biases must be finite")
        # The decoder of nonlinear_full mirrors its encoder; the output layer is never given.
        widths = [spec.get("width") for spec in specs]
        widths = widths[: len(widths) // 2] if architecture == "nonlinear_full" else widths[:-1]
        config = _load_training_config(payload.get("training_config"))
        best_epoch = payload.get("best_epoch")
        epochs = np.inf if config is None else config.max_epochs
        # A JSON true or false is not an integer; a recorded run numbers its epochs from 0.
        if best_epoch is not None and (type(best_epoch) is not int or not 0 <= best_epoch < epochs):
            raise ValueError(f"best_epoch must be null or in [0, {epochs}), got {best_epoch!r}")
        model = MlpModel(architecture, widths, params, config, best_epoch)
        # Every entry save_model writes for the rebuilt model, compared as JSON text so that
        # a 1 where true belongs differs too; training_config may hold Adam-era entries.
        for key, value in _recorded_entries(model).items():
            if key not in payload or key != "training_config" and (
                json.dumps(payload[key], sort_keys=True) != json.dumps(value, sort_keys=True)
            ):
                raise ValueError(f"{key!r} is missing or not that of {architecture} {model.widths}")
        # Each layer's values (None for an absent bias) must have the shapes of its views.
        for i, (layer, *views) in enumerate(zip(values, model.weights, model.biases)):
            found, needed = ([None if x is None else x.shape for x in xs] for xs in (layer, views))
            if found != needed:
                raise ValueError(f"layer {i} weight and bias have shapes {found}, not {needed}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model
