"""Back-end systems scoring (enrollment, test) embedding pairs.

Four systems share the trial interface:

* ``msfm`` - a score-fusion network. Cosine scores from the ASV and CM
  embedding spaces, plus optionally the scalar output of an auxiliary
  speaker-match network, feed a small MLP whose softmax target probability is
  the final score. The auxiliary network fuses each side's ASV and CM
  embeddings with an encoder, compares the two encodings with a two-logit
  head, and is trained to recognize the enrolled speaker even when the test
  audio is spoofed. Its loss and the fusion loss are summed during training.
  ``msfm-no-sssv`` keeps the auxiliary network and its loss but leaves the
  scalar out of the fused score vector.
* ``iep`` - an embedding projector trained with a cosine triplet loss. Both
  sides of a trial are projected and scored by cosine similarity.
* ``baseline1`` - the sum of the two cosine scores; needs no training.
* ``baseline2`` - an MLP over the concatenated raw embeddings, trained with
  cross-entropy on the target/nontarget label.

All systems output scores where larger means "more likely a bonafide target
trial".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import EmbeddingStore, TrialList, enrollment_embedding
from .metrics import ScoredTrials
from .neuralcore import (
    Elu,
    FullyConnected,
    MlpParams,
    MlpSpec,
    NonFiniteError,
    OptimizerState,
    TrainConfig,
    cce_rows,
    mlp_backward,
    mlp_forward,
    optimizer_step,
    softmax,
)
from .sampling import sample_training_pairs, sample_triplets

MODEL_MAGIC = b"SASVMDL1"

DEFAULT_ASV_DIM = 192
DEFAULT_CM_DIM = 160
ENCODER_OUT_DIM = 160
PROJECTION_DIM = 128


@dataclass
class Mlp:
    """A spec bound to its parameters, which are checked once, here."""

    spec: MlpSpec
    params: MlpParams

    def __post_init__(self):
        self.params.validate_for(self.spec)

    @classmethod
    def init(cls, spec: MlpSpec, rng: np.random.Generator) -> "Mlp":
        return cls(spec, MlpParams.init(spec, rng))

    def backward(self, tape, grad_out):
        return mlp_backward(self.spec, self.params, tape, grad_out)


def _check_two_outputs(model, *blocks: str) -> None:
    """Refuse a softmax head that does not end in two outputs: output 1 is the score."""
    for name in blocks:
        outputs = getattr(model, name).spec.output_dim
        if outputs != 2:
            raise ValueError(f"block {name} ends in {outputs} output(s); its softmax needs 2")


def _check_input(model, block: str, width: int, source: str) -> None:
    """Refuse a block that does not read the ``width`` inputs that ``source`` gives it."""
    inputs = getattr(model, block).spec.input_dim
    if inputs != width:
        raise ValueError(f"block {block} reads {inputs} input(s); expected {width} ({source})")


def _forward(model, block: str, x, tape: list | None = None) -> np.ndarray:
    """Output of one block; an overflowing layer is an error naming the block.

    Training passes a list for ``tape``, which ``mlp_forward`` fills for the
    backward pass; scoring passes none. The output is float64 whatever the
    network's dtype, so that everything between networks runs in double
    precision.
    """
    net = getattr(model, block)
    try:
        out = mlp_forward(net.spec, net.params, x, tape)
    except NonFiniteError:
        raise NonFiniteError(f"activations of block {block} overflowed") from None
    return out.astype(np.float64, copy=False)


def _dense(*dims: int) -> tuple:
    """The layers ``fc dims[0] dims[1], elu, fc dims[1] dims[2], ...``, ending in an fc."""
    layers = [FullyConnected(dims[0], dims[1])]
    for in_dim, out_dim in zip(dims[1:], dims[2:]):
        layers += [Elu(), FullyConnected(in_dim, out_dim)]
    return tuple(layers)


# Rows per block wherever scoring runs over rows: the cosine gathers, and
# every network of score_batch, so that no per-trial array but the scores
# grows with the trial list. A block's activations are its scoring peak
# (baseline2: two of 2048 x 1024 float64, 34 MB).
_ROW_BLOCK = 2048


def _row_blocks(n: int) -> list:
    """Slices that split rows ``0..n`` into consecutive blocks of _ROW_BLOCK rows.

    Up to _ROW_BLOCK rows are one block, the same call as unblocked. Beyond
    that, a last block shorter than half a block is merged into the one
    before it, so every block holds _ROW_BLOCK // 2 to 3 * _ROW_BLOCK // 2 - 1
    rows (1024 to 3071). That keeps the scores bit-identical to one call over
    all rows: OpenBLAS (0.3.31, Haswell kernels) rounds ``x @ W.T``
    differently in short calls. For a layer with two outputs that is below
    about 600 rows (64 -> 2: up to 591 rows; 1024 -> 2: up to 397), for
    320 -> 128 below 10 and for 128 -> 64 below 19, while blocks of 1024 to
    3071 rows matched a 101k-row call exactly.
    """
    stops = list(range(_ROW_BLOCK, n, _ROW_BLOCK))
    if stops and n - stops[-1] < _ROW_BLOCK // 2:
        stops.pop()
    return [slice(start, stop) for start, stop in zip([0] + stops, stops + [n])]


def _blockwise(n: int, fn) -> np.ndarray:
    """``fn(rows)`` for each block of ``_row_blocks(n)``, filled into one array of n rows."""
    out = None
    for rows in _row_blocks(n):
        part = fn(rows)
        if out is None:
            out = np.empty((n,) + part.shape[1:])
        out[rows] = part
    return out


def _pair_cosines(a: np.ndarray, b: np.ndarray) -> Callable:
    """The function of index arrays ``(e, k)`` giving cos(a[e[i]], b[k[i]]) for each i.

    Each row's norm is taken once, here, however many pairs use it.
    """
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("cosine similarity of a zero vector is undefined")
    return lambda e, k: (a[e] * b[k]).sum(axis=1) / (na[e] * nb[k])


def _pair_cosine(a: np.ndarray, b: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cosine of row ``a[e[i]]`` with row ``b[k[i]]`` for each i, a block of pairs at a time."""
    cosine = _pair_cosines(a, b)
    return _blockwise(len(e), lambda rows: cosine(e[rows], k[rows]))


def _row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of row i of ``a`` with row i of ``b`` for each i."""
    return _pair_cosines(a, b)(slice(None), slice(None))


def _unit_rows(*blocks: np.ndarray) -> np.ndarray:
    """Length-normalize each row of each block; the blocks side by side.

    Every network input block passes through this: ASV and CM embeddings
    arrive on very different scales, and without per-block normalization the
    larger block dominates the early gradient signal. Cosine scores are
    scale-invariant, so only the MLP inputs are affected. Each block is
    divided straight into its columns of the result.
    """
    out = np.empty((len(blocks[0]), sum(a.shape[1] for a in blocks)))
    start = 0
    for a in blocks:
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("cannot length-normalize a zero embedding")
        np.divide(a, norms, out=out[:, start : start + a.shape[1]])
        start += a.shape[1]
    return out


class TrialTables(NamedTuple):
    """Embeddings of a batch of trials, one table row per distinct item.

    Trial ``i`` pairs enrollment row ``enroll_index[i]`` with test row
    ``test_index[i]``, so a network applied to the tables runs once per
    distinct enrollment or test utterance, however many trials share it.
    """

    enroll_asv: np.ndarray
    enroll_cm: np.ndarray
    test_asv: np.ndarray
    test_cm: np.ndarray
    enroll_index: np.ndarray
    test_index: np.ndarray


# ---------------------------------------------------------------------------
# score-fusion back-end


@dataclass
class MsfmModel:
    enroll_encoder: Mlp
    test_encoder: Mlp
    verification_head: Mlp
    fusion_head: Mlp
    use_sssv_score: bool
    asv_dim: int
    cm_dim: int

    def __post_init__(self):
        _check_two_outputs(self, "verification_head", "fusion_head")
        enroll, test = self.enroll_encoder.spec, self.test_encoder.spec
        _check_input(self, "test_encoder", enroll.input_dim, "enroll_encoder's input")
        _check_input(self, "verification_head", enroll.output_dim + test.output_dim,
                     "both encoders' outputs")
        _check_input(self, "fusion_head", 2 + bool(self.use_sssv_score),
                     f"use_sssv_score={self.use_sssv_score}")

    def tensors(self) -> list:
        return (
            self.enroll_encoder.params.tensors()
            + self.test_encoder.params.tensors()
            + self.verification_head.params.tensors()
            + self.fusion_head.params.tensors()
        )

    def score_batch(self, t: TrialTables) -> np.ndarray:
        """Fused target probability of each trial.

        The encoders run over blocks of table rows and the heads over blocks
        of trials, recording no tape.
        """
        def encode(block, asv, cm):
            return _blockwise(len(asv), lambda r: _msfm_encode(self, block, asv[r], cm[r]))

        enc_e = encode("enroll_encoder", t.enroll_asv, t.enroll_cm)
        enc_t = encode("test_encoder", t.test_asv, t.test_cm)
        cos_asv = _pair_cosines(t.enroll_asv, t.test_asv)
        cos_cm = _pair_cosines(t.enroll_cm, t.test_cm)

        def block(rows):
            e, k = t.enroll_index[rows], t.test_index[rows]
            v = _msfm_heads(self, enc_e[e], enc_t[k], cos_asv(e, k), cos_cm(e, k))[2]
            return softmax(v)[:, 1]

        return _blockwise(len(t.enroll_index), block)


def make_msfm(
    asv_dim: int = DEFAULT_ASV_DIM,
    cm_dim: int = DEFAULT_CM_DIM,
    use_sssv_score: bool = True,
    rng: np.random.Generator | None = None,
) -> MsfmModel:
    if rng is None:
        rng = np.random.default_rng(0)
    encoder = MlpSpec(_dense(asv_dim + cm_dim, 128, 128, 64, ENCODER_OUT_DIM))
    return MsfmModel(
        enroll_encoder=Mlp.init(encoder, rng),
        test_encoder=Mlp.init(encoder, rng),
        verification_head=Mlp.init(MlpSpec(_dense(2 * ENCODER_OUT_DIM, 128, 64, 2)), rng),
        fusion_head=Mlp.init(MlpSpec(_dense(3 if use_sssv_score else 2, 16, 16, 2)), rng),
        use_sssv_score=use_sssv_score,
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def _msfm_encode(model: MsfmModel, block: str, asv: np.ndarray, cm: np.ndarray,
                 tape: list | None = None) -> np.ndarray:
    """One encoder's output for rows of utterances; training passes a ``tape``."""
    return _forward(model, block, _unit_rows(asv, cm), tape)


def _msfm_heads(model: MsfmModel, enc_e, enc_t, cos_asv, cos_cm,
                tapes: tuple = (None, None)) -> tuple:
    """Speaker-match logits, their softmax and the fusion logits.

    Each argument holds one row or value per trial. Training passes two lists
    as ``tapes``, for the verification head and the fusion head.
    """
    tape_s, tape_v = tapes
    s = _forward(model, "verification_head", np.column_stack([enc_e, enc_t]), tape_s)
    p_s = softmax(s)
    columns = [cos_asv, cos_cm]
    if model.use_sssv_score:
        columns.append(p_s[:, 1])
    v = _forward(model, "fusion_head", np.column_stack(columns), tape_v)
    return s, p_s, v


def _msfm_pass(model: MsfmModel, batch):
    """Speaker-match logits, their softmax, fusion logits, and the four tapes.

    ``batch`` (a PairBatch) holds one enrollment and one test row per pair.
    """
    tape_e, tape_t, tape_s, tape_v = [], [], [], []
    enc_e = _msfm_encode(model, "enroll_encoder", batch.enroll_asv, batch.enroll_cm, tape_e)
    enc_t = _msfm_encode(model, "test_encoder", batch.test_asv, batch.test_cm, tape_t)
    s, p_s, v = _msfm_heads(
        model, enc_e, enc_t,
        _row_cosine(batch.enroll_asv, batch.test_asv), _row_cosine(batch.enroll_cm, batch.test_cm),
        (tape_s, tape_v),
    )
    return s, p_s, v, (tape_e, tape_t, tape_s, tape_v)


@dataclass
class PairBatch:
    enroll_asv: np.ndarray
    enroll_cm: np.ndarray
    test_asv: np.ndarray
    test_cm: np.ndarray
    sv_target: np.ndarray
    sasv_target: np.ndarray


def msfm_batch_losses(model: MsfmModel, batch: PairBatch,
                      compute_grads: bool = True, loss: str = "total") -> tuple:
    """Mean losses over a batch, optionally with gradients of one loss.

    ``loss`` selects which loss the gradients belong to: "sssv", "sf", or
    "total". Returns ``(l_sssv, l_sf, l_total, grads)`` with grads aligned to
    ``model.tensors()`` (None when compute_grads is False).
    """
    if loss not in ("sssv", "sf", "total"):
        raise ValueError(f"unknown loss selector {loss!r}")
    n = batch.enroll_asv.shape[0]
    s, p_s, v, (tape_e, tape_t, tape_s, tape_v) = _msfm_pass(model, batch)
    l_sssv = float(cce_rows(s, batch.sv_target)[0].mean())
    losses_sf, p_v = cce_rows(v, batch.sasv_target)
    l_sf = float(losses_sf.mean())
    l_total = l_sssv + l_sf
    if not compute_grads:
        return l_sssv, l_sf, l_total, None

    want_sssv = loss in ("sssv", "total")
    want_sf = loss in ("sf", "total")
    dv = (p_v - batch.sasv_target) / n if want_sf else np.zeros_like(v)
    fusion_grads, d_fusion_in = model.fusion_head.backward(tape_v, dv)
    ds = (p_s - batch.sv_target) / n if want_sssv else np.zeros_like(s)
    if model.use_sssv_score and want_sf:
        # route the fused scalar's gradient back through softmax(s)[:, 1]
        d_scalar = d_fusion_in[:, 2]
        one_hot_1 = np.array([0.0, 1.0])
        ds = ds + d_scalar[:, None] * p_s[:, 1:2] * (one_hot_1 - p_s)
    head_grads, d_head_in = model.verification_head.backward(tape_s, ds)
    enc_e_grads, _ = model.enroll_encoder.backward(
        tape_e, d_head_in[:, :ENCODER_OUT_DIM]
    )
    enc_t_grads, _ = model.test_encoder.backward(
        tape_t, d_head_in[:, ENCODER_OUT_DIM:]
    )
    grads = (
        enc_e_grads.tensors()
        + enc_t_grads.tensors()
        + head_grads.tensors()
        + fusion_grads.tensors()
    )
    return l_sssv, l_sf, l_total, grads


def _one_hot_rows(flags) -> np.ndarray:
    """Row [0, 1] where the flag is set, [1, 0] otherwise."""
    rows = np.zeros((len(flags), 2))
    rows[np.arange(len(flags)), np.asarray(flags, dtype=int)] = 1.0
    return rows


def pair_batch(pairs, ids, asv_store, cm_store) -> PairBatch:
    """Embeddings and targets of rows of ``sample_training_pairs``.

    ``ids`` maps protocol rows to utterance ids (see ``_protocol_ids``). The
    speakers match for an even scenario code, and code 0 is the target.
    """
    enroll_ids = ids[pairs[:, 0]]
    test_ids = ids[pairs[:, 1]]
    return PairBatch(
        enroll_asv=asv_store.matrix(enroll_ids),
        enroll_cm=cm_store.matrix(enroll_ids),
        test_asv=asv_store.matrix(test_ids),
        test_cm=cm_store.matrix(test_ids),
        sv_target=_one_hot_rows(pairs[:, 2] % 2 == 0),
        sasv_target=_one_hot_rows(pairs[:, 2] == 0),
    )


def _protocol_ids(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore) -> np.ndarray:
    """The protocol's utterance ids, indexed by protocol row, as an object array.

    Raises KeyError before training when a store lacks any of them, since a
    row that the sampler happens to skip would otherwise go unnoticed.
    """
    ids = np.array([rec.utterance_id for rec in records], dtype=object)
    asv_store.index(ids)
    cm_store.index(ids)
    return ids


def _check_dims(asv_store: EmbeddingStore, cm_store: EmbeddingStore,
                asv_dim: int, cm_dim: int) -> None:
    if asv_store.dim != asv_dim:
        raise ValueError(
            f"asv store dimension {asv_store.dim} does not match model ({asv_dim})"
        )
    if cm_store.dim != cm_dim:
        raise ValueError(
            f"cm store dimension {cm_store.dim} does not match model ({cm_dim})"
        )


def _fit(model, config: TrainConfig, batch_size: int, names: tuple,
         draw, gather, batch_loss) -> list:
    """The training loop of every back-end; returns the per-epoch history.

    Each epoch trains on the items of one ``draw()``, ``batch_size`` at a
    time: ``gather`` turns a chunk into a batch, and ``batch_loss`` returns
    one loss per name in ``names`` followed by the gradients for
    ``model.tensors()``. A history row holds the mean of each loss over the
    epoch, and their sum as ``loss_total`` when there are several.

    The networks train in float32, which halves the bytes that every step
    moves. They return to float64 after the last step, which holds their
    values exactly, so the trained model scores like its checkpoint. A
    network left with non-finite parameters is an error naming its block.
    """
    blocks = SYSTEMS[system_name(model)].blocks
    for name in blocks:
        getattr(model, name).params.cast(np.float32)
    tensors = model.tensors()
    state = OptimizerState()
    history = []
    for epoch in range(config.epochs):
        items = draw()
        sums = [0.0] * len(names)
        for step, start in enumerate(range(0, len(items), batch_size)):
            chunk = items[start : start + batch_size]
            batch = gather(chunk)
            try:
                *losses, grads = batch_loss(batch)
                if not all(math.isfinite(loss) for loss in losses):
                    raise NonFiniteError("loss is not finite")
                state = optimizer_step(tensors, grads, config, state)
            except NonFiniteError as exc:
                raise RuntimeError(
                    f"non-finite values at epoch {epoch}, step {step}: {exc}"
                ) from exc
            for i, loss in enumerate(losses):
                sums[i] += loss * len(chunk)
        row = {"epoch": epoch}
        row.update((name, total / len(items)) for name, total in zip(names, sums))
        if len(sums) > 1:
            row["loss_total"] = sum(sums) / len(items)
        history.append(row)
    for name in blocks:
        net = getattr(model, name)
        net.params.cast(np.float64)
        try:
            net.params.validate_for(net.spec)
        except NonFiniteError:
            raise RuntimeError(
                f"non-finite parameters of block {name} after the last step"
            ) from None
    return history


def train_msfm(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore,
               config: TrainConfig, use_sssv_score: bool = True) -> tuple:
    """Train a score-fusion model; returns (model, per-epoch loss history).

    Every epoch draws a fresh set of ``config.samples_per_epoch`` pairs. The
    auxiliary speaker-match network trains through its own loss term whether
    or not its scalar feeds the fused score vector.
    """
    rng = np.random.default_rng(config.seed)
    model = make_msfm(asv_store.dim, cm_store.dim, use_sssv_score, rng)
    ids = _protocol_ids(records, asv_store, cm_store)

    def batch_loss(batch):
        l_sssv, l_sf, _, grads = msfm_batch_losses(model, batch)
        return l_sssv, l_sf, grads

    return model, _fit(
        model, config, config.batch_size, ("loss_sssv", "loss_fusion"),
        lambda: sample_training_pairs(records, config.samples_per_epoch, rng),
        lambda chunk: pair_batch(chunk, ids, asv_store, cm_store),
        batch_loss,
    )


# ---------------------------------------------------------------------------
# embedding projector back-end


@dataclass
class IepModel:
    trunk: Mlp
    projector: Mlp
    margin: float
    asv_dim: int
    cm_dim: int

    def __post_init__(self):
        _check_input(self, "projector", self.trunk.spec.output_dim + self.asv_dim + self.cm_dim,
                     "trunk output + asv_dim + cm_dim")

    def tensors(self) -> list:
        return self.trunk.params.tensors() + self.projector.params.tensors()

    def score_batch(self, t: TrialTables) -> np.ndarray:
        z_enroll = iep_project(self, t.enroll_asv, t.enroll_cm)
        z_test = iep_project(self, t.test_asv, t.test_cm)
        return _pair_cosine(z_enroll, z_test, t.enroll_index, t.test_index)


def make_iep(
    asv_dim: int = DEFAULT_ASV_DIM,
    cm_dim: int = DEFAULT_CM_DIM,
    margin: float = 0.5,
    rng: np.random.Generator | None = None,
) -> IepModel:
    if rng is None:
        rng = np.random.default_rng(0)
    pair_dim = asv_dim + cm_dim
    return IepModel(
        # the trunk ends with an activation: the projector sees nonlinear features
        trunk=Mlp.init(MlpSpec(_dense(pair_dim, 256, 256, PROJECTION_DIM) + (Elu(),)), rng),
        projector=Mlp.init(MlpSpec(_dense(PROJECTION_DIM + pair_dim, PROJECTION_DIM)), rng),
        margin=margin,
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def _iep_pass(model: IepModel, asv_rows: np.ndarray, cm_rows: np.ndarray,
              tapes: tuple = (None, None)) -> np.ndarray:
    """Projections of rows of utterances.

    The projector head sees the trunk features next to the raw embeddings,
    so the output keeps a direct linear path from its inputs. Training passes
    two lists as ``tapes``, for the trunk and the projector.
    """
    tape_h, tape_z = tapes
    xy = _unit_rows(asv_rows, cm_rows)
    h = _forward(model, "trunk", xy, tape_h)
    return _forward(model, "projector", np.column_stack([h, xy]), tape_z)


def iep_project(model: IepModel, asv_rows: np.ndarray, cm_rows: np.ndarray) -> np.ndarray:
    """Project rows of utterances into the scoring space, a block of rows at a time."""
    return _blockwise(len(asv_rows), lambda r: _iep_pass(model, asv_rows[r], cm_rows[r]))


def _cosine_hinges(z: np.ndarray, margin: float) -> tuple:
    """Hinges of the triplets whose rows ``z`` stacks as ``[anchors; positives; negatives]``.

    Triplet i contributes ``max(0, cos(anchor, negative) - cos(anchor, positive)
    + margin)``. Returns the hinges, the norm of every row of ``z``, each taken
    once, and the cosines: row 0 anchor-positive, row 1 anchor-negative.
    """
    c = len(z) // 3
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity of a zero vector is undefined")
    cos = (z[:c] * z[c:].reshape(2, c, -1)).sum(axis=2) / (norms[:c] * norms[c:].reshape(2, c))
    return np.maximum(0.0, cos[1] - cos[0] + margin), norms, cos


def triplet_loss(anchors, positives, negatives, margin: float) -> float:
    """Mean cosine hinge over projected triplets (see ``_cosine_hinges``)."""
    a = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    p = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if not (a.shape == p.shape == n.shape):
        raise ValueError("anchors, positives, and negatives must have equal shapes")
    return float(_cosine_hinges(np.vstack([a, p, n]), margin)[0].mean())


def iep_batch_loss(model: IepModel, anchor_asv, anchor_cm, positive_asv, positive_cm,
                   negative_asv, negative_cm, margin: float,
                   compute_grads: bool = True) -> tuple:
    """Triplet loss over raw embeddings, with gradients for model.tensors()."""
    c = anchor_asv.shape[0]
    tape_h, tape_z = [], []
    z = _iep_pass(
        model, np.vstack([anchor_asv, positive_asv, negative_asv]),
        np.vstack([anchor_cm, positive_cm, negative_cm]), (tape_h, tape_z),
    )
    hinge, norms, cos = _cosine_hinges(z, margin)
    loss = float(hinge.mean())
    if not compute_grads:
        return loss, None
    active = (hinge > 0.0).astype(np.float64) / c
    # cos(a, b) has gradient b / (|a||b|) - cos a / |a|^2 in a; axis 0 of
    # b runs over the positives, then the negatives
    a, na = z[:c], norms[:c, None]
    b, nb = z[c:].reshape(2, c, -1), norms[c:].reshape(2, c, 1)
    dcos, cos = np.stack([-active, active])[:, :, None], cos[:, :, None]
    da = dcos * (b / (na * nb) - cos * a / (na * na))
    db = dcos * (a / (na * nb) - cos * b / (nb * nb))
    dz = np.vstack([da[1] + da[0], db.reshape(2 * c, -1)])
    proj_grads, d_proj_in = model.projector.backward(tape_z, dz)
    trunk_grads, _ = model.trunk.backward(tape_h, d_proj_in[:, :PROJECTION_DIM])
    return loss, trunk_grads.tensors() + proj_grads.tensors()


def train_iep(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore,
              config: TrainConfig) -> tuple:
    """Train the embedding projector; returns (model, loss history)."""
    rng = np.random.default_rng(config.seed)
    model = make_iep(asv_store.dim, cm_store.dim, config.margin, rng)
    ids = _protocol_ids(records, asv_store, cm_store)
    return model, _fit(
        model, config, config.triplets_per_batch, ("loss_triplet",),
        lambda: sample_triplets(records, config.samples_per_epoch, rng),
        # anchor, positive and negative embeddings, ASV then CM of each
        lambda chunk: [store.matrix(ids[chunk[:, c]])
                       for c in range(3) for store in (asv_store, cm_store)],
        lambda arrays: iep_batch_loss(model, *arrays, margin=config.margin),
    )


# ---------------------------------------------------------------------------
# baselines


@dataclass
class Baseline2Model:
    mlp: Mlp
    asv_dim: int
    cm_dim: int

    def __post_init__(self):
        _check_two_outputs(self, "mlp")

    def tensors(self) -> list:
        return self.mlp.params.tensors()

    def score_batch(self, t: TrialTables) -> np.ndarray:
        def block(rows):
            v = _forward(self, "mlp", _baseline2_input(t, t.enroll_index[rows],
                                                       t.test_index[rows]))
            return softmax(v)[:, 1]

        return _blockwise(len(t.enroll_index), block)


def _baseline2_input(t, e=slice(None), k=slice(None)) -> np.ndarray:
    """Unit-length enrollment ASV, test ASV and test CM rows, one trial a row.

    Trial i reads rows ``e[i]`` and ``k[i]`` of a TrialTables or PairBatch.
    Enrollment CM is no input.
    """
    return _unit_rows(t.enroll_asv[e], t.test_asv[k], t.test_cm[k])


def make_baseline2(
    asv_dim: int = DEFAULT_ASV_DIM,
    cm_dim: int = DEFAULT_CM_DIM,
    rng: np.random.Generator | None = None,
) -> Baseline2Model:
    if rng is None:
        rng = np.random.default_rng(0)
    return Baseline2Model(
        mlp=Mlp.init(MlpSpec(_dense(2 * asv_dim + cm_dim, 1024, 1024, 1024, 2)), rng),
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def baseline2_batch_loss(model: Baseline2Model, batch: PairBatch,
                         compute_grads: bool = True) -> tuple:
    n = batch.enroll_asv.shape[0]
    tape = []
    v = _forward(model, "mlp", _baseline2_input(batch), tape)
    losses, p_v = cce_rows(v, batch.sasv_target)
    loss = float(losses.mean())
    if not compute_grads:
        return loss, None
    grads, _ = model.mlp.backward(tape, (p_v - batch.sasv_target) / n)
    return loss, grads.tensors()


def train_baseline2(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore,
                    config: TrainConfig) -> tuple:
    rng = np.random.default_rng(config.seed)
    model = make_baseline2(asv_store.dim, cm_store.dim, rng)
    ids = _protocol_ids(records, asv_store, cm_store)
    return model, _fit(
        model, config, config.batch_size, ("loss_cce",),
        lambda: sample_training_pairs(records, config.samples_per_epoch, rng),
        lambda chunk: pair_batch(chunk, ids, asv_store, cm_store),
        lambda batch: baseline2_batch_loss(model, batch),
    )


# ---------------------------------------------------------------------------
# trial scoring


def _trial_arrays(trials: TrialList, asv_store: EmbeddingStore,
                  cm_store: EmbeddingStore) -> tuple:
    """Resolve a trial list into TrialTables; also count the CM fallbacks.

    Each distinct enrollment (speaker and utterance list) and each distinct
    test utterance gets one table row. Test utterances must exist in both
    stores; all gaps are reported in one error. An enrollment none of whose
    utterances is in the CM store falls back to the CM store-wide mean, since
    enrollment audio often ships without CM output; the second return value
    counts the enrollments that did.
    """
    test_ids = trials.test_ids
    enroll_utts = {u for _, ids in trials.enrollments for u in ids}
    missing = {f"{u} (asv)" for u in enroll_utts.union(test_ids) if u not in asv_store}
    missing |= {f"{u} (cm)" for u in test_ids if u not in cm_store}
    if missing:
        unique = sorted(missing)
        raise KeyError(
            f"{len(unique)} embedding(s) missing: " + ", ".join(unique[:20])
            + ("..." if len(unique) > 20 else "")
        )
    enroll_asv = []
    enroll_cm = []
    fallbacks = 0
    cm_mean = None
    for _, ids in trials.enrollments:
        enroll_asv.append(enrollment_embedding(asv_store, ids))
        present = [u for u in ids if u in cm_store]
        if present:
            enroll_cm.append(enrollment_embedding(cm_store, present))
        else:
            fallbacks += 1
            if cm_mean is None:
                cm_mean = cm_store.mean_vector()
            enroll_cm.append(cm_mean)
    tables = TrialTables(
        enroll_asv=np.stack(enroll_asv),
        enroll_cm=np.stack(enroll_cm),
        test_asv=asv_store.matrix(test_ids),
        test_cm=cm_store.matrix(test_ids),
        enroll_index=trials.enroll_index,
        test_index=trials.test_index,
    )
    return tables, fallbacks


def score_trials(system, trials, asv_store: EmbeddingStore,
                 cm_store: EmbeddingStore) -> ScoredTrials:
    """Score every trial; returns the scores in trial-list order.

    ``trials`` is a TrialList or any iterable of TrialRecords. ``system`` is
    a trained model, or one of the strings "baseline1" and "asv-only" for
    the training-free scorers.
    """
    if not isinstance(trials, TrialList):
        trials = TrialList.from_records(trials)
    if not len(trials):
        return ScoredTrials(trials, np.empty(0))
    if system not in ("baseline1", "asv-only") and not hasattr(system, "score_batch"):
        raise ValueError(f"unknown scoring system {system!r}")
    if hasattr(system, "asv_dim"):
        _check_dims(asv_store, cm_store, system.asv_dim, system.cm_dim)
    t, fallbacks = _trial_arrays(trials, asv_store, cm_store)
    if isinstance(system, str):
        e, k = t.enroll_index, t.test_index
        scores = _pair_cosine(t.enroll_asv, t.test_asv, e, k)
        if system == "baseline1":
            scores = scores + _pair_cosine(t.enroll_cm, t.test_cm, e, k)
    else:
        scores = system.score_batch(t)
    return ScoredTrials(trials, scores, fallbacks)


# ---------------------------------------------------------------------------
# system registry


class System(NamedTuple):
    """What the CLI, the checkpoints and the experiment script know of a system.

    ``options`` are the model attributes its name fixes, passed to ``train``;
    ``header`` maps extra checkpoint header fields to their types; the first
    of ``blocks`` reads ``asv_inputs`` ASV embeddings and one CM embedding.
    """

    model_class: type | None  # None for a training-free system
    train: Callable | None
    options: dict
    kind: str | None  # checkpoint kind; the two msfm systems share one
    blocks: tuple
    header: dict
    asv_inputs: int


_MSFM_SYSTEM = System(
    model_class=MsfmModel, train=train_msfm, options={"use_sssv_score": True}, kind="msfm",
    blocks=("enroll_encoder", "test_encoder", "verification_head", "fusion_head"),
    header={"use_sssv_score": bool}, asv_inputs=1,
)

SYSTEMS = {
    "msfm": _MSFM_SYSTEM,
    "msfm-no-sssv": _MSFM_SYSTEM._replace(options={"use_sssv_score": False}),
    "iep": System(
        model_class=IepModel, train=train_iep, options={}, kind="iep",
        blocks=("trunk", "projector"), header={"margin": float}, asv_inputs=1,
    ),
    "baseline1": System(
        model_class=None, train=None, options={}, kind=None,
        blocks=(), header={}, asv_inputs=0,
    ),
    "baseline2": System(
        model_class=Baseline2Model, train=train_baseline2, options={}, kind="baseline2",
        blocks=("mlp",), header={}, asv_inputs=2,
    ),
}


def system_name(model) -> str:
    """The SYSTEMS name of a trained model."""
    for name, system in SYSTEMS.items():
        if type(model) is system.model_class and all(
            getattr(model, key) == value for key, value in system.options.items()
        ):
            return name
    raise ValueError(f"{type(model).__name__} is not a model of any system")


# ---------------------------------------------------------------------------
# checkpoints


def _spec_to_json(spec: MlpSpec) -> list:
    return [["fc", l.in_dim, l.out_dim] if isinstance(l, FullyConnected) else ["elu"]
            for l in spec.layers]


def _spec_from_json(desc: list) -> MlpSpec:
    layers = []
    for entry in desc:
        if entry == ["elu"]:
            layers.append(Elu())
        elif (isinstance(entry, list) and len(entry) == 3 and entry[0] == "fc"
              and all(type(dim) is int for dim in entry[1:])):
            layers.append(FullyConnected(entry[1], entry[2]))
        else:
            raise ValueError(f"malformed layer {entry!r} in checkpoint")
    return MlpSpec(tuple(layers))


def _check_fields(header: dict, types: dict) -> None:
    for key, typ in types.items():
        value = header.get(key)  # exact JSON types: a bool is no int; an int is a float
        if type(value) not in ((int, float) if typ is float else (typ,)):
            raise ValueError(f"checkpoint header {key!r}: missing or not {typ.__name__}")


def save_model(model, path) -> None:
    """Write a checkpoint; loading reproduces the parameters bit-exactly."""
    system = SYSTEMS[system_name(model)]
    header = {
        "kind": system.kind,
        "asv_dim": model.asv_dim,
        "cm_dim": model.cm_dim,
        "blocks": {name: _spec_to_json(getattr(model, name).spec) for name in system.blocks},
    }
    header.update((key, getattr(model, key)) for key in system.header)
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(len(payload).to_bytes(4, "little"))
        fh.write(payload)
        for name in system.blocks:
            for tensor in getattr(model, name).params.tensors():
                fh.write(tensor.astype("<f8").tobytes())


def load_model(path):
    """Load a checkpoint written by save_model; a malformed one raises ValueError."""
    raw = Path(path).read_bytes()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ValueError("bad magic bytes: not a model checkpoint")
    offset = len(MODEL_MAGIC) + 4
    header_len = int.from_bytes(raw[len(MODEL_MAGIC) : offset], "little")
    if offset + header_len > len(raw):
        raise ValueError("truncated checkpoint header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"checkpoint header is not valid JSON: {exc}") from None
    offset += header_len
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    _check_fields(header, {"kind": str, "asv_dim": int, "cm_dim": int, "blocks": dict})
    system = next(
        (s for s in SYSTEMS.values() if s.blocks and s.kind == header["kind"]), None
    )
    if system is None:
        raise ValueError(f"unknown model kind {header['kind']!r} in checkpoint")
    _check_fields(header, system.header)
    _check_fields(header["blocks"], dict.fromkeys(system.blocks, list))
    specs = {name: _spec_from_json(header["blocks"][name]) for name in system.blocks}
    first = specs[system.blocks[0]].input_dim
    if system.asv_inputs * header["asv_dim"] + header["cm_dim"] != first:
        raise ValueError(
            f"checkpoint asv_dim {header['asv_dim']} and cm_dim {header['cm_dim']} "
            f"do not fit the {system.blocks[0]} input dimension {first}"
        )
    n_values = sum(
        (layer.in_dim + 1) * layer.out_dim for spec in specs.values() for layer in spec.fc_layers
    )
    if offset + 8 * n_values > len(raw):
        raise ValueError("truncated checkpoint")
    if offset + 8 * n_values < len(raw):
        raise ValueError("trailing bytes after checkpoint payload")
    blocks = {}
    for name, spec in specs.items():
        params = MlpParams.zeros(spec)
        for tensor in params.tensors():
            flat = np.frombuffer(raw, dtype="<f8", count=tensor.size, offset=offset)
            tensor[...] = flat.reshape(tensor.shape)
            offset += tensor.nbytes
        try:
            blocks[name] = Mlp(spec, params)
        except NonFiniteError:
            raise ValueError(f"checkpoint block {name} holds non-finite parameters") from None
    extra = {key: typ(header[key]) for key, typ in system.header.items()}
    return system.model_class(
        **blocks, **extra, asv_dim=header["asv_dim"], cm_dim=header["cm_dim"]
    )
