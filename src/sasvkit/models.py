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

from .data import EmbeddingStore, enrollment_embedding
from .metrics import ScoredTrial
from .neuralcore import (
    Elu,
    FullyConnected,
    MlpParams,
    MlpSpec,
    NonFiniteError,
    OptimizerState,
    TrainConfig,
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
    """A spec bound to its parameters."""

    spec: MlpSpec
    params: MlpParams

    @classmethod
    def init(cls, spec: MlpSpec, rng: np.random.Generator) -> "Mlp":
        return cls(spec, MlpParams.init(spec, rng))

    def forward(self, x):
        return mlp_forward(self.spec, self.params, x)

    def backward(self, tape, grad_out):
        return mlp_backward(self.spec, self.params, tape, grad_out)


def _encoder_spec(in_dim: int) -> MlpSpec:
    return MlpSpec(
        (
            FullyConnected(in_dim, 128),
            Elu(),
            FullyConnected(128, 128),
            Elu(),
            FullyConnected(128, 64),
            Elu(),
            FullyConnected(64, ENCODER_OUT_DIM),
        )
    )


def _verification_head_spec() -> MlpSpec:
    return MlpSpec(
        (
            FullyConnected(2 * ENCODER_OUT_DIM, 128),
            Elu(),
            FullyConnected(128, 64),
            Elu(),
            FullyConnected(64, 2),
        )
    )


def _fusion_head_spec(n_scores: int) -> MlpSpec:
    return MlpSpec(
        (
            FullyConnected(n_scores, 16),
            Elu(),
            FullyConnected(16, 16),
            Elu(),
            FullyConnected(16, 2),
        )
    )


def _trunk_spec(in_dim: int) -> MlpSpec:
    # ends with an activation: the projector head sees nonlinear features
    return MlpSpec(
        (
            FullyConnected(in_dim, 256),
            Elu(),
            FullyConnected(256, 256),
            Elu(),
            FullyConnected(256, PROJECTION_DIM),
            Elu(),
        )
    )


def _projector_head_spec(in_dim: int) -> MlpSpec:
    return MlpSpec((FullyConnected(in_dim, PROJECTION_DIM),))


def _baseline2_spec(in_dim: int) -> MlpSpec:
    return MlpSpec(
        (
            FullyConnected(in_dim, 1024),
            Elu(),
            FullyConnected(1024, 1024),
            Elu(),
            FullyConnected(1024, 1024),
            Elu(),
            FullyConnected(1024, 2),
        )
    )


def _row_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("cosine similarity of a zero vector is undefined")
    return (a * b).sum(axis=1) / (na * nb)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Length-normalize each row.

    Every network input block passes through this: ASV and CM embeddings
    arrive on very different scales, and without per-block normalization the
    larger block dominates the early gradient signal. Cosine scores are
    scale-invariant, so only the MLP inputs are affected.
    """
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot length-normalize a zero embedding")
    return a / norms


def _row_cce(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))).ravel()
    return lse - (logits * targets).sum(axis=1)


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

    def tensors(self) -> list:
        return (
            self.enroll_encoder.params.tensors()
            + self.test_encoder.params.tensors()
            + self.verification_head.params.tensors()
            + self.fusion_head.params.tensors()
        )

    def score_batch(self, enroll_asv, enroll_cm, test_asv, test_cm) -> np.ndarray:
        """Fused target probability for rows of trial embeddings."""
        _, _, v, _ = _msfm_pass(self, enroll_asv, enroll_cm, test_asv, test_cm)
        return softmax(v)[:, 1]


def make_msfm(
    asv_dim: int = DEFAULT_ASV_DIM,
    cm_dim: int = DEFAULT_CM_DIM,
    use_sssv_score: bool = True,
    rng: np.random.Generator | None = None,
) -> MsfmModel:
    if rng is None:
        rng = np.random.default_rng(0)
    pair_dim = asv_dim + cm_dim
    return MsfmModel(
        enroll_encoder=Mlp.init(_encoder_spec(pair_dim), rng),
        test_encoder=Mlp.init(_encoder_spec(pair_dim), rng),
        verification_head=Mlp.init(_verification_head_spec(), rng),
        fusion_head=Mlp.init(_fusion_head_spec(3 if use_sssv_score else 2), rng),
        use_sssv_score=use_sssv_score,
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def _msfm_pass(model: MsfmModel, enroll_asv, enroll_cm, test_asv, test_cm):
    """Speaker-match logits, their softmax, fusion logits, and the four tapes."""
    enroll_in = np.column_stack([_unit_rows(enroll_asv), _unit_rows(enroll_cm)])
    test_in = np.column_stack([_unit_rows(test_asv), _unit_rows(test_cm)])
    enc_e, tape_e = model.enroll_encoder.forward(enroll_in)
    enc_t, tape_t = model.test_encoder.forward(test_in)
    s, tape_s = model.verification_head.forward(np.column_stack([enc_e, enc_t]))
    p_s = softmax(s)
    columns = [_row_cosine(enroll_asv, test_asv), _row_cosine(enroll_cm, test_cm)]
    if model.use_sssv_score:
        columns.append(p_s[:, 1])
    v, tape_v = model.fusion_head.forward(np.column_stack(columns))
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
    s, p_s, v, (tape_e, tape_t, tape_s, tape_v) = _msfm_pass(
        model, batch.enroll_asv, batch.enroll_cm, batch.test_asv, batch.test_cm
    )
    l_sssv = float(_row_cce(s, batch.sv_target).mean())
    l_sf = float(_row_cce(v, batch.sasv_target).mean())
    l_total = l_sssv + l_sf
    if not compute_grads:
        return l_sssv, l_sf, l_total, None

    want_sssv = loss in ("sssv", "total")
    want_sf = loss in ("sf", "total")
    dv = (softmax(v) - batch.sasv_target) / n if want_sf else np.zeros_like(v)
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


def pair_batch(pairs, asv_store, cm_store) -> PairBatch:
    enroll_ids = [p.enroll_utterance_id for p in pairs]
    test_ids = [p.test_utterance_id for p in pairs]
    return PairBatch(
        enroll_asv=asv_store.matrix(enroll_ids),
        enroll_cm=cm_store.matrix(enroll_ids),
        test_asv=asv_store.matrix(test_ids),
        test_cm=cm_store.matrix(test_ids),
        sv_target=_one_hot_rows([p.sv_label == "same" for p in pairs]),
        sasv_target=_one_hot_rows([p.sasv_label == "target" for p in pairs]),
    )


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
    """
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
                    f"non-finite loss at epoch {epoch}, step {step}"
                ) from exc
            for i, loss in enumerate(losses):
                sums[i] += loss * len(chunk)
        row = {"epoch": epoch}
        row.update((name, total / len(items)) for name, total in zip(names, sums))
        if len(sums) > 1:
            row["loss_total"] = sum(sums) / len(items)
        history.append(row)
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

    def batch_loss(batch):
        l_sssv, l_sf, _, grads = msfm_batch_losses(model, batch)
        return l_sssv, l_sf, grads

    return model, _fit(
        model, config, config.batch_size, ("loss_sssv", "loss_fusion"),
        lambda: sample_training_pairs(records, config.samples_per_epoch, rng),
        lambda chunk: pair_batch(chunk, asv_store, cm_store),
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

    def tensors(self) -> list:
        return self.trunk.params.tensors() + self.projector.params.tensors()

    def score_batch(self, enroll_asv, enroll_cm, test_asv, test_cm) -> np.ndarray:
        z_enroll = iep_project(self, enroll_asv, enroll_cm)
        z_test = iep_project(self, test_asv, test_cm)
        return _row_cosine(z_enroll, z_test)


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
        trunk=Mlp.init(_trunk_spec(pair_dim), rng),
        projector=Mlp.init(_projector_head_spec(PROJECTION_DIM + pair_dim), rng),
        margin=margin,
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def iep_project(model: IepModel, asv_vec, cm_vec) -> np.ndarray:
    """Project one utterance (or rows of them) into the scoring space.

    The projector head sees the trunk features next to the raw embeddings,
    so the output keeps a direct linear path from its inputs.
    """
    x = np.asarray(asv_vec, dtype=np.float64)
    y = np.asarray(cm_vec, dtype=np.float64)
    single = x.ndim == 1
    x2 = _unit_rows(np.atleast_2d(x))
    y2 = _unit_rows(np.atleast_2d(y))
    h, _ = model.trunk.forward(np.column_stack([x2, y2]))
    z, _ = model.projector.forward(np.column_stack([h, x2, y2]))
    return z[0] if single else z


def triplet_loss(anchors, positives, negatives, margin: float) -> float:
    """Mean cosine hinge over projected triplets.

    Each triplet contributes ``max(0, cos(anchor, negative) -
    cos(anchor, positive) + margin)``.
    """
    a = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    p = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if not (a.shape == p.shape == n.shape):
        raise ValueError("anchors, positives, and negatives must have equal shapes")
    cos_ap = _row_cosine(a, p)
    cos_an = _row_cosine(a, n)
    return float(np.maximum(0.0, cos_an - cos_ap + margin).mean())


def _cosine_pair_grads(a, b, dcos):
    """Gradients of row-wise cosine(a, b) scaled by dcos."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    cos = ((a * b).sum(axis=1, keepdims=True)) / (na * nb)
    da = dcos[:, None] * (b / (na * nb) - cos * a / (na * na))
    db = dcos[:, None] * (a / (na * nb) - cos * b / (nb * nb))
    return da, db


def iep_batch_loss(model: IepModel, anchor_asv, anchor_cm, positive_asv, positive_cm,
                   negative_asv, negative_cm, margin: float,
                   compute_grads: bool = True) -> tuple:
    """Triplet loss over raw embeddings, with gradients for model.tensors()."""
    c = anchor_asv.shape[0]
    x = _unit_rows(np.vstack([anchor_asv, positive_asv, negative_asv]))
    y = _unit_rows(np.vstack([anchor_cm, positive_cm, negative_cm]))
    h, tape_h = model.trunk.forward(np.column_stack([x, y]))
    z, tape_z = model.projector.forward(np.column_stack([h, x, y]))
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("a projected embedding collapsed to the zero vector")
    za, zp, zn = z[:c], z[c : 2 * c], z[2 * c :]
    cos_ap = _row_cosine(za, zp)
    cos_an = _row_cosine(za, zn)
    hinge = np.maximum(0.0, cos_an - cos_ap + margin)
    loss = float(hinge.mean())
    if not compute_grads:
        return loss, None
    active = (hinge > 0.0).astype(np.float64) / c
    da_n, dn = _cosine_pair_grads(za, zn, active)
    da_p, dp = _cosine_pair_grads(za, zp, -active)
    dz = np.vstack([da_n + da_p, dp, dn])
    proj_grads, d_proj_in = model.projector.backward(tape_z, dz)
    trunk_grads, _ = model.trunk.backward(tape_h, d_proj_in[:, :PROJECTION_DIM])
    return loss, trunk_grads.tensors() + proj_grads.tensors()


def _triplet_batch(triplets, asv_store, cm_store):
    anchor_ids = [t.anchor_id for t in triplets]
    positive_ids = [t.positive_id for t in triplets]
    negative_ids = [t.negative_id for t in triplets]
    return (
        asv_store.matrix(anchor_ids),
        cm_store.matrix(anchor_ids),
        asv_store.matrix(positive_ids),
        cm_store.matrix(positive_ids),
        asv_store.matrix(negative_ids),
        cm_store.matrix(negative_ids),
    )


def train_iep(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore,
              config: TrainConfig) -> tuple:
    """Train the embedding projector; returns (model, loss history)."""
    rng = np.random.default_rng(config.seed)
    model = make_iep(asv_store.dim, cm_store.dim, config.margin, rng)
    return model, _fit(
        model, config, config.triplets_per_batch, ("loss_triplet",),
        lambda: sample_triplets(records, config.samples_per_epoch, rng),
        lambda chunk: _triplet_batch(chunk, asv_store, cm_store),
        lambda arrays: iep_batch_loss(model, *arrays, margin=config.margin),
    )


# ---------------------------------------------------------------------------
# baselines


@dataclass
class Baseline2Model:
    mlp: Mlp
    asv_dim: int
    cm_dim: int

    def tensors(self) -> list:
        return self.mlp.params.tensors()

    def score_batch(self, enroll_asv, enroll_cm, test_asv, test_cm) -> np.ndarray:
        # the enrollment CM embedding is not part of this system's input
        v, _ = self.mlp.forward(
            np.column_stack(
                [_unit_rows(enroll_asv), _unit_rows(test_asv), _unit_rows(test_cm)]
            )
        )
        return softmax(v)[:, 1]


def make_baseline2(
    asv_dim: int = DEFAULT_ASV_DIM,
    cm_dim: int = DEFAULT_CM_DIM,
    rng: np.random.Generator | None = None,
) -> Baseline2Model:
    if rng is None:
        rng = np.random.default_rng(0)
    return Baseline2Model(
        mlp=Mlp.init(_baseline2_spec(2 * asv_dim + cm_dim), rng),
        asv_dim=asv_dim,
        cm_dim=cm_dim,
    )


def baseline2_batch_loss(model: Baseline2Model, batch: PairBatch,
                         compute_grads: bool = True) -> tuple:
    n = batch.enroll_asv.shape[0]
    x = np.column_stack(
        [_unit_rows(batch.enroll_asv), _unit_rows(batch.test_asv), _unit_rows(batch.test_cm)]
    )
    v, tape = model.mlp.forward(x)
    loss = float(_row_cce(v, batch.sasv_target).mean())
    if not compute_grads:
        return loss, None
    grads, _ = model.mlp.backward(tape, (softmax(v) - batch.sasv_target) / n)
    return loss, grads.tensors()


def train_baseline2(records, asv_store: EmbeddingStore, cm_store: EmbeddingStore,
                    config: TrainConfig) -> tuple:
    rng = np.random.default_rng(config.seed)
    model = make_baseline2(asv_store.dim, cm_store.dim, rng)
    return model, _fit(
        model, config, config.batch_size, ("loss_cce",),
        lambda: sample_training_pairs(records, config.samples_per_epoch, rng),
        lambda chunk: pair_batch(chunk, asv_store, cm_store),
        lambda batch: baseline2_batch_loss(model, batch),
    )


# ---------------------------------------------------------------------------
# trial scoring


def _trial_arrays(trials, asv_store: EmbeddingStore, cm_store: EmbeddingStore):
    """Resolve embeddings for a trial list.

    Test utterances must exist in both stores; all gaps are reported in one
    error. An enrollment utterance absent from the CM store falls back to the
    store-wide mean, since enrollment audio often ships without CM output.
    """
    missing = []
    for trial in trials:
        for utt in trial.enroll_utterance_ids:
            if utt not in asv_store:
                missing.append(f"{utt} (asv)")
        if trial.test_utterance_id not in asv_store:
            missing.append(f"{trial.test_utterance_id} (asv)")
        if trial.test_utterance_id not in cm_store:
            missing.append(f"{trial.test_utterance_id} (cm)")
    if missing:
        unique = sorted(set(missing))
        raise KeyError(
            f"{len(unique)} embedding(s) missing: " + ", ".join(unique[:20])
            + ("..." if len(unique) > 20 else "")
        )
    enroll_asv_cache = {}
    enroll_cm_cache = {}
    cm_fallback = None
    for trial in trials:
        key = (trial.enroll_speaker_id, trial.enroll_utterance_ids)
        if key in enroll_asv_cache:
            continue
        enroll_asv_cache[key] = enrollment_embedding(asv_store, trial.enroll_utterance_ids)
        present = [u for u in trial.enroll_utterance_ids if u in cm_store]
        if present:
            enroll_cm_cache[key] = enrollment_embedding(cm_store, present)
        else:
            if cm_fallback is None:
                cm_fallback = cm_store.mean_vector()
            enroll_cm_cache[key] = cm_fallback
    keys = [(t.enroll_speaker_id, t.enroll_utterance_ids) for t in trials]
    test_ids = [t.test_utterance_id for t in trials]
    return (
        np.stack([enroll_asv_cache[k] for k in keys]),
        np.stack([enroll_cm_cache[k] for k in keys]),
        asv_store.matrix(test_ids),
        cm_store.matrix(test_ids),
    )


def score_trials(system, trials, asv_store: EmbeddingStore,
                 cm_store: EmbeddingStore) -> list:
    """Score every trial; returns ScoredTrial objects in trial-list order.

    ``system`` is a trained model, or one of the strings "baseline1" and
    "asv-only" for the training-free scorers.
    """
    trials = list(trials)
    if not trials:
        return []
    if system not in ("baseline1", "asv-only") and not hasattr(system, "score_batch"):
        raise ValueError(f"unknown scoring system {system!r}")
    if hasattr(system, "asv_dim"):
        _check_dims(asv_store, cm_store, system.asv_dim, system.cm_dim)
    e_asv, e_cm, t_asv, t_cm = _trial_arrays(trials, asv_store, cm_store)
    if isinstance(system, str):
        scores = _row_cosine(e_asv, t_asv)
        if system == "baseline1":
            scores = scores + _row_cosine(e_cm, t_cm)
    else:
        scores = system.score_batch(e_asv, e_cm, t_asv, t_cm)
    return [ScoredTrial(trial, float(s)) for trial, s in zip(trials, scores)]


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
    out = []
    for layer in spec.layers:
        if isinstance(layer, FullyConnected):
            out.append(["fc", layer.in_dim, layer.out_dim])
        else:
            out.append(["elu"])
    return out


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
        blocks[name] = Mlp(spec, params)
    extra = {key: typ(header[key]) for key, typ in system.header.items()}
    return system.model_class(
        **blocks, **extra, asv_dim=header["asv_dim"], cm_dim=header["cm_dim"]
    )
