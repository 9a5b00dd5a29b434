"""Dense feedforward network engine used by every trainable back-end.

Networks are described by an :class:`MlpSpec` (an ordered sequence of
fully-connected and ELU layers) whose parameters live in a separate
:class:`MlpParams`, so one architecture can be instantiated many times.
Everything runs in double precision; inputs may be single vectors of shape
``(d,)`` or batches of shape ``(n, d)``.

The module also carries the training utilities shared by the back-ends:
softmax / categorical cross-entropy, SGD and Adam steps, and a central
finite-difference gradient checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FullyConnected",
    "Elu",
    "MlpSpec",
    "MlpParams",
    "Tape",
    "TrainConfig",
    "OptimizerState",
    "mlp_forward",
    "mlp_backward",
    "softmax",
    "cce_loss",
    "optimizer_step",
    "grad_check",
]


@dataclass(frozen=True)
class FullyConnected:
    """Affine layer ``y = W x + b`` with ``W`` of shape ``(out_dim, in_dim)``."""

    in_dim: int
    out_dim: int

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError(
                f"layer dimensions must be positive, got {self.in_dim}x{self.out_dim}"
            )


@dataclass(frozen=True)
class Elu:
    """Exponential linear unit with alpha = 1; preserves dimension."""


@dataclass(frozen=True)
class MlpSpec:
    """Ordered layer list. Consecutive fully-connected layers must chain."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("spec needs at least one layer")
        if not isinstance(layers[0], FullyConnected):
            raise ValueError("first layer must be fully connected")
        dim = None
        for i, layer in enumerate(layers):
            if isinstance(layer, FullyConnected):
                if dim is not None and layer.in_dim != dim:
                    raise ValueError(
                        f"layer {i}: expects input dim {layer.in_dim}, "
                        f"previous layer produces {dim}"
                    )
                dim = layer.out_dim
            elif isinstance(layer, Elu):
                if dim is None:
                    raise ValueError(f"layer {i}: activation before any linear layer")
            else:
                raise ValueError(f"layer {i}: unknown layer kind {layer!r}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        dim = None
        for layer in self.layers:
            if isinstance(layer, FullyConnected):
                dim = layer.out_dim
        return dim

    @property
    def fc_layers(self) -> tuple:
        return tuple(l for l in self.layers if isinstance(l, FullyConnected))


class NonFiniteError(ValueError):
    """A value that must be finite (input, gradient, loss) is inf or nan."""


def _as_f64(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


@dataclass
class MlpParams:
    """Weights and biases for the fully-connected layers of one spec.

    Also serves as the container for gradients, which mirror the parameter
    shapes exactly.
    """

    weights: list
    biases: list

    @classmethod
    def init(cls, spec: MlpSpec, rng: np.random.Generator) -> "MlpParams":
        """Uniform init on +-sqrt(6 / (in + out)), biases at zero."""
        weights, biases = [], []
        for layer in spec.fc_layers:
            limit = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            weights.append(rng.uniform(-limit, limit, size=(layer.out_dim, layer.in_dim)))
            biases.append(np.zeros(layer.out_dim))
        return cls(weights, biases)

    @classmethod
    def zeros(cls, spec: MlpSpec) -> "MlpParams":
        weights = [np.zeros((l.out_dim, l.in_dim)) for l in spec.fc_layers]
        biases = [np.zeros(l.out_dim) for l in spec.fc_layers]
        return cls(weights, biases)

    def validate_for(self, spec: MlpSpec) -> None:
        fcs = spec.fc_layers
        if len(self.weights) != len(fcs) or len(self.biases) != len(fcs):
            raise ValueError(
                f"expected parameters for {len(fcs)} linear layers, "
                f"got {len(self.weights)} weights / {len(self.biases)} biases"
            )
        for i, (layer, w, b) in enumerate(zip(fcs, self.weights, self.biases)):
            if w.shape != (layer.out_dim, layer.in_dim):
                raise ValueError(
                    f"linear layer {i}: weight shape {w.shape} != "
                    f"({layer.out_dim}, {layer.in_dim})"
                )
            if b.shape != (layer.out_dim,):
                raise ValueError(
                    f"linear layer {i}: bias shape {b.shape} != ({layer.out_dim},)"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"linear layer {i}: non-finite parameters")

    def tensors(self) -> list:
        """Flat list [W0, b0, W1, b1, ...]; views, not copies."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _elu_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    # derivative is 1 on the positive side and elu(x) + 1 = exp(x) on the other
    return grad * np.where(out > 0, 1.0, out + 1.0)


@dataclass
class Tape:
    """Intermediate values recorded by mlp_forward for the backward pass."""

    entries: list
    single: bool


def mlp_forward(spec: MlpSpec, params: MlpParams, x) -> tuple:
    """Run the network, returning the output and the activation tape."""
    params.validate_for(spec)
    arr = _as_f64(x, "network input")
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or a batch of vectors, got shape {arr.shape}")
    if arr.shape[1] != spec.input_dim:
        raise ValueError(
            f"layer 0: expected input dim {spec.input_dim}, got {arr.shape[1]}"
        )
    entries = []
    fc_index = 0
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, FullyConnected):
            if arr.shape[1] != layer.in_dim:
                raise ValueError(
                    f"layer {i}: expected input dim {layer.in_dim}, got {arr.shape[1]}"
                )
            entries.append(("fc", arr))
            arr = arr @ params.weights[fc_index].T + params.biases[fc_index]
            fc_index += 1
        else:
            arr = np.where(arr > 0, arr, np.expm1(arr))
            entries.append(("elu", arr))
    out = arr[0] if single else arr
    return out, Tape(entries, single)


def mlp_backward(spec: MlpSpec, params: MlpParams, tape: Tape, grad_out) -> tuple:
    """Backpropagate grad_out through the taped forward pass.

    Returns ``(grads, grad_input)`` where grads is an MlpParams-shaped
    container. Batch inputs accumulate parameter gradients over the batch.
    """
    grad = np.asarray(grad_out, dtype=np.float64)
    if tape.single:
        grad = grad[None, :]
    grads = MlpParams.zeros(spec)
    fc_index = len(grads.weights)
    for layer, (kind, value) in zip(reversed(spec.layers), reversed(tape.entries)):
        if kind == "fc":
            fc_index -= 1
            grads.weights[fc_index] = grad.T @ value
            grads.biases[fc_index] = grad.sum(axis=0)
            grad = grad @ params.weights[fc_index]
        else:
            grad = _elu_backward(grad, value)
    return grads, (grad[0] if tape.single else grad)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    arr = _as_f64(logits, "softmax input")
    if arr.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_one_hot(target: np.ndarray) -> None:
    if not np.all((target == 0.0) | (target == 1.0)) or target.sum() != 1.0:
        raise ValueError("target must be a one-hot vector")


def cce_loss(logits, target) -> float:
    """Categorical cross-entropy of a one-hot target against raw logits."""
    l = _as_f64(logits, "logits")
    t = np.asarray(target, dtype=np.float64)
    if l.ndim != 1 or t.shape != l.shape:
        raise ValueError(f"logits shape {l.shape} and target shape {t.shape} must match")
    if l.size == 0:
        raise ValueError("cce_loss of empty logits is undefined")
    _check_one_hot(t)
    m = l.max()
    lse = m + math.log(np.exp(l - m).sum())
    return float(lse - l[int(np.argmax(t))])


@dataclass
class TrainConfig:
    """Shared optimization settings for all trainable back-ends."""

    learning_rate: float = 1e-3
    epochs: int = 15
    batch_size: int = 64
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    samples_per_epoch: int = 2000
    triplets_per_batch: int = 32
    margin: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.samples_per_epoch < 1 or self.triplets_per_batch < 1:
            raise ValueError("samples_per_epoch and triplets_per_batch must be at least 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0.0 <= self.margin <= 2.0):
            raise ValueError("margin must lie in [0, 2] for cosine similarities")


@dataclass
class OptimizerState:
    """Step counter plus Adam moment estimates, one pair per tensor."""

    step: int = 0
    first_moments: list = field(default_factory=list)
    second_moments: list = field(default_factory=list)


def optimizer_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    config: TrainConfig,
    state: OptimizerState | None = None,
) -> OptimizerState:
    """Apply one SGD or Adam update in place and return the new state."""
    if state is None:
        state = OptimizerState()
    if len(params) != len(grads):
        raise ValueError("params and grads must align one-to-one")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("non-finite gradient")
    lr = config.learning_rate
    if config.optimizer == "sgd":
        state.step += 1
        for p, g in zip(params, grads):
            p -= lr * g
        return state
    if not state.first_moments:
        state.first_moments = [np.zeros_like(p) for p in params]
        state.second_moments = [np.zeros_like(p) for p in params]
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moments, state.second_moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
    return state


def grad_check(
    tensors: Sequence[np.ndarray],
    loss_fn: Callable[[], float],
    analytic_grads: Sequence[np.ndarray],
    epsilon: float = 1e-5,
    max_entries_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbs parameter entries in place by +-epsilon and restores them. When a
    tensor holds more than ``max_entries_per_tensor`` entries, a random subset
    of that size is checked (large layers make exhaustive sweeps impractical).

    The relative error for a tensor is the largest absolute deviation divided
    by the scale of the gradient (the larger infinity norm of the two sides);
    entry-wise ratios would amplify finite-difference rounding noise on
    near-zero entries far beyond gradient accuracy. Returns the maximum over
    all tensors.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(tensors) != len(analytic_grads):
        raise ValueError("tensors and analytic_grads must align one-to-one")
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for tensor, grad in zip(tensors, analytic_grads):
        if tensor.shape != grad.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter {tensor.shape}"
            )
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        if max_entries_per_tensor is not None and n > max_entries_per_tensor:
            idx = rng.choice(n, size=max_entries_per_tensor, replace=False)
        else:
            idx = np.arange(n)
        numeric = np.empty(idx.size)
        for k, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + epsilon
            lp = loss_fn()
            flat[i] = orig - epsilon
            lm = loss_fn()
            flat[i] = orig
            numeric[k] = (lp - lm) / (2.0 * epsilon)
        deviation = np.abs(gflat[idx] - numeric).max() if idx.size else 0.0
        scale = max(np.abs(gflat).max() if n else 0.0, np.abs(numeric).max() if idx.size else 0.0)
        if scale == 0.0:
            err = 0.0 if deviation == 0.0 else float("inf")
        else:
            err = float(deviation / scale)
        worst = max(worst, err)
    return worst
