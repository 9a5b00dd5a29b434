"""Dense feedforward network engine used by every trainable back-end.

Networks are described by an :class:`MlpSpec` (an ordered sequence of
fully-connected and ELU layers) whose parameters live in a separate
:class:`MlpParams`, so one architecture can be instantiated many times.
Networks run on batches of shape ``(n, d)`` in the dtype of their
parameters: float64 as built and as loaded, float32 while ``models`` trains
them; the optimizer's moments follow the parameters. A network's parameters
are checked against its spec once, when the network is built
(:meth:`MlpParams.validate_for`, called by ``models.Mlp``); every forward
pass then checks the output of each fully-connected layer, which also
catches a non-finite parameter.

The module also carries the training utilities shared by the back-ends:
softmax, the batch cross-entropy :func:`cce_rows` that every softmax head
trains through (:func:`cce_loss` is its one-row case), SGD and Adam steps,
and a central finite-difference gradient checker.

A forward pass records a tape, the activations its backward pass reads, only
when its caller passes a list for it: training does, once per network and
step. Scoring does not, so besides its input a scoring pass holds at most
two activations of its block at a time.
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
    "TrainConfig",
    "OptimizerState",
    "mlp_forward",
    "mlp_backward",
    "softmax",
    "cce_rows",
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
        return self.fc_layers[-1].out_dim

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
        """Check shapes against ``spec``; a non-finite value is a NonFiniteError."""
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
                raise NonFiniteError(f"linear layer {i}: non-finite parameters")

    def tensors(self) -> list:
        """Flat list [W0, b0, W1, b1, ...]; views, not copies."""
        return [t for pair in zip(self.weights, self.biases) for t in pair]

    def cast(self, dtype) -> None:
        """Replace every weight and bias by a copy of itself in ``dtype``."""
        self.weights = [w.astype(dtype) for w in self.weights]
        self.biases = [b.astype(dtype) for b in self.biases]


def _elu_inplace(arr: np.ndarray) -> None:
    """Overwrite ``arr`` with elu(arr) = max(arr, 0) + expm1(min(arr, 0)).

    One of the two terms is an exact zero, so the result is that of
    ``where(arr > 0, arr, expm1(arr))`` bit for bit, except that -0.0 becomes
    +0.0. Unlike a masked ``expm1(..., where=)``, every pass runs NumPy's
    vectorised loops: on 64 x 1024 float32 rows 0.08 ms, against 0.4 ms for
    ``where`` and 0.7 ms masked (2-core Xeon VM).
    """
    negative = np.minimum(arr, 0.0)
    np.expm1(negative, out=negative)
    np.maximum(arr, 0.0, out=arr)
    arr += negative


def _elu_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    # derivative is 1 on the positive side and elu(x) + 1 = exp(x) on the
    # other, where elu(x) + 1 <= 1; one temporary holds slope and product
    slope = out + 1.0
    np.minimum(slope, 1.0, out=slope)
    slope *= grad
    return slope


def mlp_forward(spec: MlpSpec, params: MlpParams, x, tape: list | None = None) -> np.ndarray:
    """Run the network on a batch of rows and return its output.

    When ``tape`` is a list, the forward pass appends to it what the backward
    pass reads: the input of each fully-connected layer and the output of
    each ELU. Without one, only the activation being computed and the one it
    reads are alive at a time. A fully-connected layer whose output holds an
    inf or a nan raises NonFiniteError naming the layer. Every such layer is
    checked, since an ELU turns -inf into a finite -1. The input is not swept
    separately: a non-finite input value makes its row of layer 0's output
    non-finite, so layer 0's check reports it.
    The input is cast to the parameters' dtype, and so is every activation.
    NumPy's warnings are silenced: an overflowing layer is reported by its check.
    """
    arr = np.asarray(x, dtype=params.weights[0].dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a batch of shape (n, d), got shape {arr.shape}")
    if arr.shape[1] != spec.input_dim:
        raise ValueError(
            f"layer 0: expected input dim {spec.input_dim}, got {arr.shape[1]}"
        )
    fc_index = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, FullyConnected):
                if tape is not None:
                    tape.append(("fc", arr))
                arr = arr @ params.weights[fc_index].T
                arr += params.biases[fc_index]
                fc_index += 1
                # min and max propagate nan and read arr without a temporary
                if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                    raise NonFiniteError(f"layer {i} overflowed")
            else:
                # in place: a fully connected output is never taped, but the
                # output of an ELU that this one follows is
                if tape and tape[-1][1] is arr:
                    arr = arr.copy()
                _elu_inplace(arr)
                if tape is not None:
                    tape.append(("elu", arr))
    return arr


def mlp_backward(spec: MlpSpec, params: MlpParams, tape: list, grad_out) -> tuple:
    """Backpropagate a batch of output gradients through a taped forward pass.

    Returns ``(grads, grad_input)`` where grads is an MlpParams-shaped
    container holding the parameter gradients summed over the batch. The
    output gradient is cast to the parameters' dtype, and so is every
    gradient. NumPy's warnings are silenced: the optimizer step refuses a
    non-finite gradient.
    """
    grad = np.asarray(grad_out, dtype=params.weights[0].dtype)
    if grad.ndim != 2:
        raise ValueError(f"expected a batch of shape (n, d), got shape {grad.shape}")
    fc_index = len(params.weights)
    grads = MlpParams([None] * fc_index, [None] * fc_index)
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, value in reversed(tape):
            if kind == "fc":
                fc_index -= 1
                grads.weights[fc_index] = grad.T @ value
                grads.biases[fc_index] = grad.sum(axis=0)
                grad = grad @ params.weights[fc_index]
            else:
                grad = _elu_backward(grad, value)
    return grads, grad


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


def cce_rows(logits: np.ndarray, targets: np.ndarray) -> tuple:
    """Each row's categorical cross-entropy against its one-hot target, and the softmax.

    ``logits`` and ``targets`` have shape ``(n, k)``. Both results come from one
    ``exp(logits - max)`` per row, so the softmax is that of :func:`softmax`
    bit for bit and ``softmax - targets`` is the loss's gradient in the logits.
    """
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    losses = (m + np.log(total)).ravel() - (logits * targets).sum(axis=1)
    return losses, e / total


def cce_loss(logits, target) -> float:
    """Categorical cross-entropy of a one-hot target against raw logits."""
    l = _as_f64(logits, "logits")
    t = np.asarray(target, dtype=np.float64)
    if l.ndim != 1 or t.shape != l.shape:
        raise ValueError(f"logits shape {l.shape} and target shape {t.shape} must match")
    if l.size == 0:
        raise ValueError("cce_loss of empty logits is undefined")
    _check_one_hot(t)
    return float(cce_rows(l[None, :], t[None, :])[0][0])


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.samples_per_epoch < 1 or self.triplets_per_batch < 1:
            raise ValueError("samples_per_epoch and triplets_per_batch must be at least 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (0.0 <= self.margin <= 2.0):
            raise ValueError("margin must lie in [0, 2] for cosine similarities")


# Elements per block of the optimizer step: a block of p, m, v, g and the two
# scratch vectors (3 MiB together in float64) stays in L2 while it is updated.
# One Adam step on baseline2's 2.7 M parameters took 52 ms per step at 2048,
# 31 ms at 8k-64k and 39 ms at 1 M elements (2-core Xeon VM, 4 MiB L2); the
# unblocked step took 52-57 ms.
_STEP_BLOCK = 65536


@dataclass
class OptimizerState:
    """Step counter plus Adam moment estimates, one pair per tensor.

    The moments and ``scratch``, the two block-length work vectors of
    :func:`optimizer_step`, take the parameters' dtype on its first call.
    """

    step: int = 0
    first_moments: list = field(default_factory=list)
    second_moments: list = field(default_factory=list)
    scratch: tuple = ()


def _blocks(size: int):
    for start in range(0, size, _STEP_BLOCK):
        stop = min(start + _STEP_BLOCK, size)
        yield slice(start, stop), stop - start


def optimizer_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    config: TrainConfig,
    state: OptimizerState | None = None,
) -> OptimizerState:
    """Apply one SGD or Adam update in place and return the new state.

    Each tensor is updated in blocks of ``_STEP_BLOCK`` elements through two
    scratch vectors kept on ``state``, so a step allocates no tensor-sized
    temporaries. Per element the arithmetic is that of the textbook rule,
    in this order: ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``, and ``p -= lr*g`` for SGD.
    Every gradient is checked for finiteness before any tensor changes. The
    step runs with NumPy's warnings silenced: a learning rate too large for
    float32 becomes inf there, and the parameters it makes non-finite are
    reported by the next forward pass or by the check after training.
    """
    if state is None:
        state = OptimizerState()
    if len(params) != len(grads):
        raise ValueError("params and grads must align one-to-one")
    flat = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter tensor {i} is not C-contiguous")
        flat.append((p.reshape(-1), g.reshape(-1)))
    if not state.scratch:
        dtype = params[0].dtype
        state.scratch = (np.empty(_STEP_BLOCK, dtype), np.empty(_STEP_BLOCK, dtype))
    work, denom = state.scratch
    mask = work.view(np.bool_)  # the finiteness sweep borrows the work vector's bytes
    for _, g in flat:
        for block, n in _blocks(g.size):
            if not np.isfinite(g[block], out=mask[:n]).all():
                raise NonFiniteError("non-finite gradient")
    lr = config.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        if config.optimizer == "sgd":
            state.step += 1
            for p, g in flat:
                for block, n in _blocks(p.size):
                    pb = p[block]
                    pb -= np.multiply(g[block], lr, out=work[:n])
            return state
        if not state.first_moments:
            state.first_moments = [np.zeros_like(p) for p in params]
            state.second_moments = [np.zeros_like(p) for p in params]
        state.step += 1
        t = state.step
        b1, b2 = config.beta1, config.beta2
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        eps = config.epsilon
        for (p, g), m_full, v_full in zip(flat, state.first_moments, state.second_moments):
            m_all, v_all = m_full.reshape(-1), v_full.reshape(-1)
            for block, n in _blocks(p.size):
                pb, m, v, gb = p[block], m_all[block], v_all[block], g[block]
                a, d = work[:n], denom[:n]
                m *= b1
                m += np.multiply(gb, 1.0 - b1, out=a)
                v *= b2
                np.multiply(gb, 1.0 - b2, out=a)
                v += np.multiply(a, gb, out=a)
                np.divide(v, bc2, out=d)
                np.sqrt(d, out=d)
                d += eps
                np.divide(m, bc1, out=a)
                a *= lr
                a /= d
                pb -= a
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
