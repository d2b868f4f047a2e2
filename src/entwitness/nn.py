"""Small feedforward network engine with manual backpropagation.

Supports exactly the two classifier shapes used for witness training: the
full-information bottleneck net (relu encoder/decoder around a linear code)
and the linear-code net whose bias-free first layer is the set of learned
linear measurements. Everything is plain numpy and deterministic in the seeds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .data import _write_atomic

ACTIVATIONS = ("linear", "relu", "sigmoid")
ARCHITECTURES = ("nonlinear_full", "linear_code", "custom")

SCORE_CLAMP = 1e-12

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
    width: int
    activation: str
    has_bias: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"layer width must be >= 1, got {self.width}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(eq=False)
class MlpModel:
    layer_specs: list[LayerSpec]
    weights: list[np.ndarray]  # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray | None]
    input_width: int = 15
    architecture: str = "custom"
    m: int | None = None
    training_config: "TrainConfig | None" = None
    best_epoch: int | None = None

    def __post_init__(self) -> None:
        if not self.layer_specs:
            raise ValueError("model needs at least one layer")
        if self.layer_specs[-1].width != 1 or self.layer_specs[-1].activation != "sigmoid":
            raise ValueError("final layer must be width 1 with sigmoid activation")
        fan_in = self.input_width
        for i, (spec, w, b) in enumerate(zip(self.layer_specs, self.weights, self.biases)):
            if w.shape != (spec.width, fan_in):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} != ({spec.width}, {fan_in})"
                )
            if spec.has_bias:
                if b is None or b.shape != (spec.width,):
                    raise ValueError(f"layer {i}: bias missing or misshapen")
            elif b is not None:
                raise ValueError(f"layer {i}: bias present but has_bias is false")
            fan_in = spec.width


class Gradients(NamedTuple):
    weights: list[np.ndarray]
    biases: list[np.ndarray | None]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 120
    patience: int = 10
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class EpochRecord(NamedTuple):
    train_loss: float
    validation_loss: float
    validation_accuracy: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0


class TrainResult(NamedTuple):
    model: MlpModel
    history: TrainHistory


def _init_layers(
    rng: np.random.Generator, input_width: int, specs: Sequence[LayerSpec]
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    # Gaussian weights scaled by 1/sqrt(fan_in); biases start at zero.
    weights, biases = [], []
    fan_in = input_width
    for spec in specs:
        weights.append(rng.standard_normal((spec.width, fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(spec.width) if spec.has_bias else None)
        fan_in = spec.width
    return weights, biases


def model_new(
    architecture: str,
    seed: int,
    m: int | None = None,
    hidden: Sequence[int] | None = None,
) -> MlpModel:
    """Build one of the two classifier architectures with seeded initial weights.

    "nonlinear_full" stacks relu layers that narrow to a linear code of width 8
    and widen back symmetrically (`hidden` overrides the encoder widths, code
    last). "linear_code" starts with m bias-free linear nodes, the learned
    measurements, followed by relu layers (`hidden` overrides their widths).
    """
    if architecture == "nonlinear_full":
        enc = tuple(hidden) if hidden is not None else FULL_ENCODER_WIDTHS
        if len(enc) < 2:
            raise ValueError("nonlinear_full needs at least one relu layer plus a code")
        specs = [LayerSpec(w, "relu") for w in enc[:-1]]
        specs.append(LayerSpec(enc[-1], "linear"))
        specs.extend(LayerSpec(w, "relu") for w in reversed(enc[:-1]))
        specs.append(LayerSpec(1, "sigmoid"))
    elif architecture == "linear_code":
        if m is None or not 1 <= m <= 15:
            raise ValueError(f"linear_code needs m in 1..15, got {m}")
        widths = tuple(hidden) if hidden is not None else LINEAR_HIDDEN_WIDTHS
        specs = [LayerSpec(m, "linear", has_bias=False)]
        specs.extend(LayerSpec(w, "relu") for w in widths)
        specs.append(LayerSpec(1, "sigmoid"))
    else:
        raise ValueError(f"unknown architecture {architecture!r}")

    rng = np.random.default_rng(seed)
    weights, biases = _init_layers(rng, 15, specs)
    return MlpModel(
        layer_specs=specs,
        weights=weights,
        biases=biases,
        input_width=15,
        architecture=architecture,
        m=m if architecture == "linear_code" else None,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of z, in place; each sign takes the branch that cannot overflow."""
    pos = z >= 0
    neg = ~pos
    ez = np.exp(z[neg])
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    z[neg] = ez / (1.0 + ez)
    return z


def _layer(
    a: np.ndarray, w: np.ndarray, b: np.ndarray | None, activation: str, out: np.ndarray | None = None
) -> np.ndarray:
    """One layer's output for input rows a, written into `out` when given."""
    z = np.matmul(a, w.T, out=out)
    if b is not None:
        z += b
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif activation == "sigmoid":
        _sigmoid(z)
    return z


def _parameters(model: MlpModel) -> list[np.ndarray]:
    """Weights and biases in flat-buffer order: w0, b0, w1, b1, ..., absent biases skipped."""
    return [p for w, b in zip(model.weights, model.biases) for p in (w, b) if p is not None]


def _views(model: MlpModel, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Per-layer weight and bias views into `flat`, shaped like the model's own."""
    weights, biases, offset = [], [], 0
    for w, b in zip(model.weights, model.biases):
        weights.append(flat[offset : offset + w.size].reshape(w.shape))
        offset += w.size
        biases.append(None if b is None else flat[offset : offset + b.size])
        offset += 0 if b is None else b.size
    return weights, biases


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != model.input_width:
        raise ValueError(
            f"batch must have shape (n, {model.input_width}), got {batch.shape}"
        )
    return batch


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Entanglement scores in (0, 1), one per feature row."""
    a = _check_batch(model, batch)
    for spec, w, b in zip(model.layer_specs, model.weights, model.biases):
        a = _layer(a, w, b, spec.activation)
    return a[:, 0]


def code_values(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Outputs of the measurement layer of a linear_code model, shape (n, m)."""
    if model.architecture != "linear_code":
        raise ValueError("code_values requires a linear_code model")
    batch = _check_batch(model, batch)
    return batch @ model.weights[0].T


def code_weights(model: MlpModel) -> np.ndarray:
    """The m x 15 measurement matrix; row k combines the Pauli expectations."""
    if model.architecture != "linear_code":
        raise ValueError("code_weights requires a linear_code model")
    return model.weights[0].copy()


class Workspace:
    """Buffers that one model's training steps reuse instead of allocating.

    `grad` is one flat gradient array laid out like the flat parameter buffer,
    and `grads` views it per layer. Activation and delta buffers are made once
    per batch row count.
    """

    def __init__(self, model: MlpModel):
        self.grad = np.empty(sum(p.size for p in _parameters(model)))
        self.grads = Gradients(*_views(model, self.grad))
        self._widths = [spec.width for spec in model.layer_specs]
        self._buffers: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}

    def buffers(self, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (activations, deltas), each of shape (rows, layer width)."""
        if rows not in self._buffers:
            self._buffers[rows] = tuple(
                [np.empty((rows, width)) for width in self._widths] for _ in range(2)
            )
        return self._buffers[rows]


def loss_and_gradients(
    model: MlpModel, batch: np.ndarray, labels: np.ndarray, workspace: Workspace | None = None
) -> tuple[float, Gradients]:
    """Mean binary cross-entropy and its reverse-mode gradients.

    With a workspace the gradients are views into it, overwritten by the next
    call that uses it; without one they belong to the caller.
    """
    batch = _check_batch(model, batch)
    y = np.asarray(labels, dtype=float)
    if y.shape != (batch.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match batch {batch.shape}")
    if workspace is None:
        workspace = Workspace(model)
    outputs, deltas = workspace.buffers(batch.shape[0])

    a = batch
    for spec, w, b, out in zip(model.layer_specs, model.weights, model.biases, outputs):
        a = _layer(a, w, b, spec.activation, out)
    acts = [batch, *outputs]  # index i+1 is the output of layer i
    scores = a[:, 0]
    clamped = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    n = batch.shape[0]
    loss = float(-np.mean(y * np.log(clamped) + (1.0 - y) * np.log1p(-clamped)))

    # Fused sigmoid + cross-entropy derivative at the output.
    delta = deltas[-1]
    np.subtract(scores, y, out=delta[:, 0])
    delta /= n
    grads = workspace.grads
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grads.weights[i])
        if grads.biases[i] is not None:
            np.sum(delta, axis=0, out=grads.biases[i])
        if i == 0:
            break
        below = deltas[i - 1]
        if delta.shape[1] == 1:
            np.multiply(delta, model.weights[i], out=below)  # a k = 1 product, exactly
        else:
            np.matmul(delta, model.weights[i], out=below)
        # acts[i] is not read again, so it holds the activation's derivative.
        act = acts[i]
        activation = model.layer_specs[i - 1].activation
        if activation == "relu":
            below *= np.greater(act, 0.0, out=act)
        elif activation == "sigmoid":
            below *= act
            below *= np.subtract(1.0, act, out=act)
        delta = below
    return loss, grads


class _Optimizer:
    """Adam or SGD on one flat parameter array, updated in place."""

    def __init__(self, size: int, config: TrainConfig):
        self.config = config
        self.step_count = 0
        if config.optimizer == "adam":
            self.m = np.zeros(size)
            self.v = np.zeros(size)
            self.scratch = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update of params from grad, which is left holding scratch values."""
        cfg = self.config
        if cfg.optimizer == "sgd":
            params -= np.multiply(cfg.learning_rate, grad, out=grad)
            return
        self.step_count += 1
        t = self.step_count
        scale = np.sqrt(1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA1**t)
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # params -= ((lr*scale)*m) / (sqrt(v) + eps), each rounded as written.
        m, v, tmp = self.m, self.v, self.scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=tmp)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=tmp)
        tmp *= grad
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += ADAM_EPS
        np.multiply(cfg.learning_rate * scale, m, out=grad)
        grad /= tmp
        params -= grad


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

    # The working weights and biases are views into one flat buffer, so the
    # optimizer and the best-epoch snapshot each act on a single array.
    params = np.concatenate([p.ravel() for p in _parameters(model)], dtype=float)
    weights, biases = _views(model, params)
    work = replace(model, layer_specs=list(model.layer_specs), weights=weights, biases=biases)
    workspace = Workspace(work)
    optimizer = _Optimizer(params.size, config)
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]

    history = TrainHistory()
    best_loss = np.inf
    best = params.copy()

    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, _ = loss_and_gradients(work, x_train[idx], y_train[idx], workspace)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            optimizer.step(params, workspace.grad)
            loss_sum += loss * idx.size
        train_loss = loss_sum / n

        val_scores = forward(work, x_val)
        val_clamped = np.clip(val_scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
        val_loss = float(
            -np.mean(y_val * np.log(val_clamped) + (1.0 - y_val) * np.log1p(-val_clamped))
        )
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch)
        val_acc = float(np.mean((val_scores >= 0.5) == (y_val > 0.5)))
        history.epochs.append(EpochRecord(train_loss, val_loss, val_acc))

        if val_loss < best_loss:
            best_loss = val_loss
            history.best_epoch = epoch
            np.copyto(best, params)
        elif epoch - history.best_epoch >= config.patience:
            break

    weights, biases = _views(model, best)
    result = replace(
        work, weights=weights, biases=biases, training_config=config, best_epoch=history.best_epoch
    )
    return TrainResult(result, history)


def save_model(model: MlpModel, path: str) -> None:
    """Serialize to JSON; floats round-trip exactly, so forward() is preserved."""
    payload = {
        "architecture": model.architecture,
        "m": model.m,
        "input_width": model.input_width,
        "layer_specs": [asdict(s) for s in model.layer_specs],
        "weights": [w.tolist() for w in model.weights],
        "biases": [None if b is None else b.tolist() for b in model.biases],
        "training_config": None if model.training_config is None else asdict(model.training_config),
        "best_epoch": model.best_epoch,
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Model files written while TrainConfig carried the Adam constants record them;
# such a file loads only if it holds exactly these values.
_RECORDED_ADAM = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}


def _load_training_config(path: str, recorded: dict | None) -> TrainConfig | None:
    if recorded is None:
        return None
    known = {f.name for f in fields(TrainConfig)}
    extra = {key: value for key, value in recorded.items() if key not in known}
    if not extra.items() <= _RECORDED_ADAM.items():
        raise ValueError(f"{path}: unsupported training_config entries {extra}")
    return TrainConfig(**{key: value for key, value in recorded.items() if key in known})


def load_model(path: str) -> MlpModel:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("input_width") != 15:
        raise ValueError(f"{path}: input_width must be 15, got {payload.get('input_width')!r}")
    if payload.get("architecture") not in ARCHITECTURES:
        raise ValueError(f"{path}: unknown architecture {payload.get('architecture')!r}")
    specs = [LayerSpec(**s) for s in payload["layer_specs"]]
    return MlpModel(
        layer_specs=specs,
        weights=[np.array(w, dtype=float) for w in payload["weights"]],
        biases=[None if b is None else np.array(b, dtype=float) for b in payload["biases"]],
        input_width=payload["input_width"],
        architecture=payload["architecture"],
        m=payload["m"],
        training_config=_load_training_config(path, payload.get("training_config")),
        best_epoch=payload["best_epoch"],
    )
