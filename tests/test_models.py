import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sasvkit import models
from sasvkit.data import EmbeddingStore, TrialList, parse_trial_list
from sasvkit.metrics import (
    evaluate_system,
    format_histogram_csv,
    format_report_csv,
    format_report_text,
)
from sasvkit.models import (
    Baseline2Model,
    Mlp,
    IepModel,
    MsfmModel,
    PairBatch,
    SYSTEMS,
    TrialTables,
    _msfm_pass,
    _row_blocks,
    _trial_arrays,
    baseline2_batch_loss,
    iep_batch_loss,
    iep_project,
    load_model,
    make_baseline2,
    make_iep,
    make_msfm,
    msfm_batch_losses,
    pair_batch,
    save_model,
    score_trials,
    train_baseline2,
    train_iep,
    train_msfm,
    triplet_loss,
)
from sasvkit.cli import main
from sasvkit.neuralcore import (
    Elu,
    FullyConnected,
    MlpParams,
    MlpSpec,
    TrainConfig,
    cce_loss,
    grad_check,
    optimizer_step,
)
from sasvkit.sampling import SynthConfig, generate_synthetic
from sasvkit.data import TrialRecord

LN2 = math.log(2.0)


def one_hot(index):
    row = np.zeros(2)
    row[index] = 1.0
    return row


def small_synth(**overrides):
    settings = dict(
        n_speakers=5,
        utts_per_speaker=8,
        spoofs_per_speaker=6,
        asv_dim=12,
        cm_dim=10,
        asv_channel_dims=2,
        seed=3,
    )
    settings.update(overrides)
    return generate_synthetic(SynthConfig(**settings))


def cosine(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def one_to_one(enroll_asv, enroll_cm, test_asv, test_cm) -> TrialTables:
    """Tables in which trial i pairs enrollment row i with test row i."""
    rows = np.arange(len(test_asv))
    return TrialTables(enroll_asv, enroll_cm, test_asv, test_cm, rows, rows)


def asv_only_scores(enroll, tests) -> list:
    """asv-only scores of one enrollment vector against each test vector."""
    asv = EmbeddingStore(len(enroll), "asv")
    cm = EmbeddingStore(1, "cm")
    asv.add("e", enroll)
    cm.add("e", [1.0])
    trials = []
    for i, vector in enumerate(tests):
        asv.add(f"t{i}", vector)
        cm.add(f"t{i}", [1.0])
        trials.append(TrialRecord("spk", ("e",), f"t{i}", "target"))
    return [s.score for s in score_trials("asv-only", trials, asv, cm)]


class TestCosineScore:
    def test_known_value(self):
        assert asv_only_scores([1.0, 0.0], [[1.0, 1.0]])[0] == pytest.approx(
            0.7071067811865475, abs=1e-12
        )

    def test_identical_and_opposite(self):
        v = [0.3, -1.2, 0.5]
        same, opposite = asv_only_scores(v, [v, [-x for x in v]])
        assert same == pytest.approx(1.0, abs=1e-12)
        assert opposite == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            asv_only_scores([0.0, 0.0], [[1.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        # enrollment and test rows of unequal width cannot be compared
        model = make_msfm(6, 5)
        with pytest.raises(ValueError):
            model.score_batch(
                one_to_one(np.ones((1, 6)), np.ones((1, 5)), np.ones((1, 7)), np.ones((1, 5)))
            )


class TestFactories:
    def test_msfm_block_dimensions(self):
        model = make_msfm(192, 160)
        assert model.enroll_encoder.spec.input_dim == 352
        assert model.enroll_encoder.spec.output_dim == 160
        assert model.test_encoder.spec.input_dim == 352
        assert model.verification_head.spec.input_dim == 320
        assert model.verification_head.spec.output_dim == 2
        assert model.fusion_head.spec.input_dim == 3
        assert model.fusion_head.spec.output_dim == 2

    def test_msfm_fusion_arity_without_sssv(self):
        model = make_msfm(192, 160, use_sssv_score=False)
        assert model.fusion_head.spec.input_dim == 2

    def test_iep_block_dimensions(self):
        model = make_iep(192, 160)
        assert model.trunk.spec.input_dim == 352
        assert model.trunk.spec.output_dim == 128
        # trunk output is an activation: the projector sees nonlinear features
        assert isinstance(model.trunk.spec.layers[-1], Elu)
        assert model.projector.spec.input_dim == 128 + 352
        assert model.projector.spec.output_dim == 128
        assert len(model.projector.spec.layers) == 1

    def test_baseline2_dimensions(self):
        model = make_baseline2(192, 160)
        widths = [layer.out_dim for layer in model.mlp.spec.fc_layers]
        assert model.mlp.spec.input_dim == 2 * 192 + 160
        assert widths == [1024, 1024, 1024, 2]

    def test_factory_seeding_is_deterministic(self):
        a = make_msfm(8, 6, rng=np.random.default_rng(5))
        b = make_msfm(8, 6, rng=np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a.tensors(), b.tensors()))


class TestZeroWeightInvariants:
    def zeroed(self, model):
        for tensor in model.tensors():
            tensor[...] = 0.0
        return model

    def ones_batch(self, sv_label):
        return PairBatch(
            np.ones((1, 6)), np.ones((1, 5)), np.ones((1, 6)), np.ones((1, 5)),
            one_hot(sv_label)[None, :], one_hot(1)[None, :],
        )

    def test_sssv_outputs_zero_logits(self):
        model = self.zeroed(make_msfm(6, 5))
        s, *_ = _msfm_pass(model, self.ones_batch(1))
        assert np.array_equal(s, np.zeros((1, 2)))

    def test_total_loss_is_two_ln_two(self):
        model = self.zeroed(make_msfm(6, 5))
        l_sssv, l_sf, l_total, _ = msfm_batch_losses(
            model, self.ones_batch(1), compute_grads=False
        )
        assert l_sssv == pytest.approx(LN2, abs=1e-12)
        assert l_sf == pytest.approx(LN2, abs=1e-12)
        assert l_total == pytest.approx(2 * LN2, abs=1e-12)

    def test_baseline2_scores_half(self):
        model = self.zeroed(make_baseline2(6, 5))
        scores = model.score_batch(one_to_one(np.ones((1, 6)), None, np.ones((1, 6)), np.ones((1, 5))))
        assert scores[0] == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def mean_cce_loss(logits, targets) -> float:
        return float(np.mean([cce_loss(row, target) for row, target in zip(logits, targets)]))

    @pytest.mark.parametrize("use_sssv", [True, False])
    def test_msfm_losses_are_gate_4_cce_loss(self, use_sssv):
        # random weights, not zeros: each training loss is cce_loss of each row
        rng = np.random.default_rng(12)
        model = make_msfm(6, 5, use_sssv_score=use_sssv, rng=rng)
        batch = random_pair_batch(rng, 7, 6, 5)
        l_sssv, l_sf, _, _ = msfm_batch_losses(model, batch, compute_grads=False)
        s, _, v, _ = _msfm_pass(model, batch)
        assert abs(l_sssv - self.mean_cce_loss(s, batch.sv_target)) <= 1e-12
        assert abs(l_sf - self.mean_cce_loss(v, batch.sasv_target)) <= 1e-12

    def test_baseline2_loss_is_gate_4_cce_loss(self):
        rng = np.random.default_rng(13)
        model = narrow_baseline2()
        batch = random_pair_batch(rng, 7, 6, 5)
        loss, _ = baseline2_batch_loss(model, batch, compute_grads=False)
        v = models._forward(model, "mlp", models._baseline2_input(batch))
        assert abs(loss - self.mean_cce_loss(v, batch.sasv_target)) <= 1e-12


class TestMsfmForward:
    def test_score_batch_matches_single_forward(self):
        rng = np.random.default_rng(2)
        model = make_msfm(6, 5, rng=rng)
        e_asv, e_cm = rng.normal(size=(3, 6)), rng.normal(size=(3, 5))
        t_asv, t_cm = rng.normal(size=(3, 6)), rng.normal(size=(3, 5))
        batch_scores = model.score_batch(one_to_one(e_asv, e_cm, t_asv, t_cm))
        for i in range(3):
            rows = slice(i, i + 1)
            (score,) = model.score_batch(one_to_one(e_asv[rows], e_cm[rows], t_asv[rows], t_cm[rows]))
            assert batch_scores[i] == pytest.approx(score, abs=1e-12)


class TestTripletLoss:
    def test_inactive_hinge_is_zero(self):
        loss = triplet_loss([[1.0, 0.0]], [[1.0, 0.0]], [[-1.0, 0.0]], margin=0.5)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_gives_margin(self):
        loss = triplet_loss([[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]], margin=0.5)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_known_partial_overlap(self):
        negative = [[0.2, math.sqrt(0.96)]]
        loss = triplet_loss([[1.0, 0.0]], [[0.0, 1.0]], negative, margin=0.5)
        assert loss == pytest.approx(0.7, abs=1e-12)

    def test_mean_over_triplets(self):
        anchors = [[1.0, 0.0], [1.0, 0.0]]
        positives = [[1.0, 0.0], [0.0, 1.0]]
        negatives = [[-1.0, 0.0], [0.0, 1.0]]
        loss = triplet_loss(anchors, positives, negatives, margin=0.5)
        assert loss == pytest.approx(0.25, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            triplet_loss([[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], margin=0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            triplet_loss([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]], margin=0.5)

    @pytest.mark.parametrize("margin", [0.05, 0.5])
    def test_iep_training_loss_is_gate_4_triplet_loss(self, margin):
        # the loss iep trains on is triplet_loss of the projected rows
        rng = np.random.default_rng(14)
        model = make_iep(6, 5, rng=rng)
        rows = [rng.normal(size=(9, dim)) for _ in range(3) for dim in (6, 5)]
        loss, _ = iep_batch_loss(model, *rows, margin=margin, compute_grads=False)
        projected = [iep_project(model, rows[i], rows[i + 1]) for i in (0, 2, 4)]
        assert abs(loss - triplet_loss(*projected, margin=margin)) <= 1e-12


class TestIepProject:
    def test_projection_length(self):
        model = make_iep(12, 10)
        z = iep_project(model, np.ones((1, 12)), np.ones((1, 10)))
        assert z.shape == (1, 128)
        zb = iep_project(model, np.ones((4, 12)), np.ones((4, 10)))
        assert zb.shape == (4, 128)

    def test_skip_path_passes_raw_embeddings(self):
        model = make_iep(12, 10, rng=np.random.default_rng(0))
        for tensor in model.trunk.params.tensors():
            tensor[...] = 0.0
        rng = np.random.default_rng(1)
        x1, x2 = rng.normal(size=(1, 12)), rng.normal(size=(1, 12))
        y = rng.normal(size=(1, 10))
        z1 = iep_project(model, x1, y)
        z2 = iep_project(model, x2, y)
        assert not np.allclose(z1, z2)

    def test_zero_embedding_rejected(self):
        model = make_iep(12, 10)
        with pytest.raises(ValueError, match="zero"):
            iep_project(model, np.zeros((1, 12)), np.ones((1, 10)))


def random_pair_batch(rng, n, asv_dim, cm_dim):
    return PairBatch(
        enroll_asv=rng.normal(size=(n, asv_dim)),
        enroll_cm=rng.normal(size=(n, cm_dim)),
        test_asv=rng.normal(size=(n, asv_dim)),
        test_cm=rng.normal(size=(n, cm_dim)),
        sv_target=np.array([one_hot(i % 2) for i in range(n)]),
        sasv_target=np.array([one_hot(int(i == 0)) for i in range(n)]),
    )


class TestGradients:
    @pytest.mark.parametrize("selector", ["sssv", "sf", "total"])
    @pytest.mark.parametrize("use_sssv", [True, False])
    def test_msfm_matches_finite_differences(self, selector, use_sssv):
        rng = np.random.default_rng(9)
        model = make_msfm(6, 5, use_sssv_score=use_sssv, rng=rng)
        batch = random_pair_batch(rng, 4, 6, 5)
        _, _, _, grads = msfm_batch_losses(model, batch, loss=selector)

        def loss_fn():
            l_sssv, l_sf, l_total, _ = msfm_batch_losses(model, batch, compute_grads=False)
            return {"sssv": l_sssv, "sf": l_sf, "total": l_total}[selector]

        err = grad_check(
            model.tensors(), loss_fn, grads,
            max_entries_per_tensor=40, rng=np.random.default_rng(4),
        )
        assert err < 1e-5

    def test_sssv_loss_leaves_fusion_head_untouched(self):
        rng = np.random.default_rng(10)
        model = make_msfm(6, 5, rng=rng)
        batch = random_pair_batch(rng, 4, 6, 5)
        _, _, _, grads = msfm_batch_losses(model, batch, loss="sssv")
        n_fusion = len(model.fusion_head.params.tensors())
        for grad in grads[-n_fusion:]:
            assert np.all(grad == 0.0)

    def test_fusion_loss_reaches_encoders_only_through_sssv_score(self):
        rng = np.random.default_rng(11)
        batch = random_pair_batch(rng, 4, 6, 5)
        with_score = make_msfm(6, 5, use_sssv_score=True, rng=np.random.default_rng(0))
        _, _, _, grads = msfm_batch_losses(with_score, batch, loss="sf")
        encoder_span = len(with_score.enroll_encoder.params.tensors()) * 2
        assert any(np.any(g != 0.0) for g in grads[:encoder_span])
        without = make_msfm(6, 5, use_sssv_score=False, rng=np.random.default_rng(0))
        _, _, _, grads = msfm_batch_losses(without, batch, loss="sf")
        encoder_span = len(without.enroll_encoder.params.tensors()) * 2
        assert all(np.all(g == 0.0) for g in grads[:encoder_span])

    def test_iep_matches_finite_differences(self):
        # seed 5 gives a mix of active and inactive hinges, all of them a
        # comfortable distance from the kink so finite differences are valid
        rng = np.random.default_rng(5)
        model = make_iep(6, 5, rng=rng)
        arrays = [
            rng.normal(size=(5, 6)) if i % 2 == 0 else rng.normal(size=(5, 5))
            for i in range(6)
        ]
        _, grads = iep_batch_loss(model, *arrays, margin=0.5)

        def loss_fn():
            loss, _ = iep_batch_loss(model, *arrays, margin=0.5, compute_grads=False)
            return loss

        err = grad_check(
            model.tensors(), loss_fn, grads,
            max_entries_per_tensor=40, rng=np.random.default_rng(5),
        )
        assert err < 1e-5

    def test_baseline2_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        model = make_baseline2(6, 5, rng=rng)
        batch = random_pair_batch(rng, 4, 6, 5)
        _, grads = baseline2_batch_loss(model, batch)

        def loss_fn():
            loss, _ = baseline2_batch_loss(model, batch, compute_grads=False)
            return loss

        err = grad_check(
            model.tensors(), loss_fn, grads,
            max_entries_per_tensor=15, rng=np.random.default_rng(6),
        )
        assert err < 1e-5

    def test_separated_triplets_with_zero_margin_freeze_weights(self):
        rng = np.random.default_rng(14)
        model = make_iep(6, 5, rng=rng)
        anchor_asv, anchor_cm = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
        negative_asv, negative_cm = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
        loss, grads = iep_batch_loss(
            model, anchor_asv, anchor_cm, anchor_asv, anchor_cm,
            negative_asv, negative_cm, margin=0.0,
        )
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)
        before = [t.copy() for t in model.tensors()]
        optimizer_step(model.tensors(), grads, TrainConfig(optimizer="sgd"))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.tensors()))


class TestTraining:
    def config(self, **overrides):
        settings = dict(epochs=3, samples_per_epoch=150, batch_size=32,
                        triplets_per_batch=32, seed=17)
        settings.update(overrides)
        return TrainConfig(**settings)

    def test_msfm_loss_decreases(self):
        ds = small_synth()
        _, history = train_msfm(ds.train_records, ds.asv_store, ds.cm_store, self.config())
        assert history[-1]["loss_total"] < history[0]["loss_total"]

    def test_iep_loss_decreases(self):
        ds = small_synth()
        _, history = train_iep(ds.train_records, ds.asv_store, ds.cm_store, self.config())
        assert history[-1]["loss_triplet"] < history[0]["loss_triplet"]

    def test_baseline2_loss_decreases(self):
        ds = small_synth()
        _, history = train_baseline2(
            ds.train_records, ds.asv_store, ds.cm_store, self.config(learning_rate=1e-4)
        )
        assert history[-1]["loss_cce"] < history[0]["loss_cce"]

    def test_training_is_bit_deterministic(self):
        ds = small_synth()
        m1, h1 = train_msfm(ds.train_records, ds.asv_store, ds.cm_store, self.config())
        m2, h2 = train_msfm(ds.train_records, ds.asv_store, ds.cm_store, self.config())
        assert h1 == h2
        assert all(np.array_equal(a, b) for a, b in zip(m1.tensors(), m2.tensors()))

    def test_seed_changes_outcome(self):
        ds = small_synth()
        m1, _ = train_msfm(ds.train_records, ds.asv_store, ds.cm_store, self.config(seed=1))
        m2, _ = train_msfm(ds.train_records, ds.asv_store, ds.cm_store, self.config(seed=2))
        assert any(not np.array_equal(a, b) for a, b in zip(m1.tensors(), m2.tensors()))

    @pytest.mark.parametrize("train", [train_msfm, train_iep, train_baseline2])
    def test_trained_model_is_float64_and_scores_like_its_checkpoint(self, tmp_path, train):
        ds = small_synth()
        model, _ = train(ds.train_records, ds.asv_store, ds.cm_store,
                         self.config(epochs=1, samples_per_epoch=64))
        for tensor in model.tensors():
            assert tensor.dtype == np.float64
            assert np.array_equal(tensor, tensor.astype(np.float32))  # trained in float32
        save_model(model, tmp_path / "model.ckpt")
        reloaded = load_model(tmp_path / "model.ckpt")
        scores = score_trials(model, ds.eval_trials, ds.asv_store, ds.cm_store).scores
        again = score_trials(reloaded, ds.eval_trials, ds.asv_store, ds.cm_store).scores
        assert np.array_equal(scores, again)

    def test_non_finite_parameters_after_the_last_step_name_the_block(self):
        ds = small_synth()
        config = self.config(epochs=1, samples_per_epoch=32, learning_rate=1e308)
        with pytest.raises(RuntimeError, match="^non-finite parameters of block "
                                               "enroll_encoder after the last step$"):
            train_msfm(ds.train_records, ds.asv_store, ds.cm_store, config)

    def test_non_finite_loss_aborts_with_location(self):
        ds = small_synth()
        config = self.config(optimizer="sgd", learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="epoch 0"):
                train_msfm(ds.train_records, ds.asv_store, ds.cm_store, config)

    def test_sssv_blocks_train_even_when_score_unused(self):
        ds = small_synth()
        config = self.config()
        trained, history = train_msfm(
            ds.train_records, ds.asv_store, ds.cm_store, config, use_sssv_score=False
        )
        fresh = make_msfm(
            ds.asv_store.dim, ds.cm_store.dim, False, np.random.default_rng(config.seed)
        )
        moved = [
            not np.array_equal(a, b)
            for a, b in zip(trained.enroll_encoder.params.tensors(),
                            fresh.enroll_encoder.params.tensors())
        ]
        assert all(moved)
        assert all("loss_sssv" in entry for entry in history)

    def test_store_dimension_mismatch_rejected(self):
        ds = small_synth()
        model = make_msfm(ds.asv_store.dim + 1, ds.cm_store.dim)
        with pytest.raises(ValueError, match="dimension"):
            score_trials(model, ds.eval_trials, ds.asv_store, ds.cm_store)


def tiny_stores():
    asv = EmbeddingStore(2, "asv")
    cm = EmbeddingStore(2, "cm")
    asv.add("e1", [1.0, 0.0])
    asv.add("e2", [0.0, 1.0])
    asv.add("t1", [1.0, 1.0])
    cm.add("e1", [1.0, 0.0])
    cm.add("e2", [1.0, 0.0])
    cm.add("t1", [0.0, 1.0])
    return asv, cm


class TestScoreTrials:
    def test_baseline1_is_sum_of_cosines(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e1",), "t1", "target")
        scored = score_trials("baseline1", [trial], asv, cm)
        expected = cosine([1.0, 0.0], [1.0, 1.0]) + cosine(
            [1.0, 0.0], [0.0, 1.0]
        )
        assert scored[0].score == pytest.approx(expected, abs=1e-12)

    def test_asv_only_ignores_cm(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e1",), "t1", "target")
        scored = score_trials("asv-only", [trial], asv, cm)
        assert scored[0].score == pytest.approx(
            cosine([1.0, 0.0], [1.0, 1.0]), abs=1e-12
        )

    def test_multi_utterance_enrollment_is_averaged(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e1", "e2"), "t1", "target")
        scored = score_trials("asv-only", [trial], asv, cm)
        expected = cosine([0.5, 0.5], [1.0, 1.0])
        assert scored[0].score == pytest.approx(expected, abs=1e-12)

    def test_missing_test_embedding_lists_ids(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e1",), "ghost", "target")
        with pytest.raises(KeyError, match="ghost"):
            score_trials("baseline1", [trial], asv, cm)

    def test_enrollment_cm_falls_back_to_store_mean(self):
        asv = EmbeddingStore(2, "asv")
        cm = EmbeddingStore(2, "cm")
        asv.add("enroll_only", [1.0, 0.0])
        asv.add("t1", [1.0, 1.0])
        cm.add("t1", [0.0, 1.0])
        cm.add("other", [1.0, 1.0])
        trial = TrialRecord("spkA", ("enroll_only",), "t1", "target")
        scored = score_trials("baseline1", [trial], asv, cm)
        fallback = np.array([0.5, 1.0])  # mean of the two stored cm vectors
        expected = cosine([1.0, 0.0], [1.0, 1.0]) + cosine(
            fallback, [0.0, 1.0]
        )
        assert scored[0].score == pytest.approx(expected, abs=1e-12)

    def test_unknown_system_rejected(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e1",), "t1", "target")
        with pytest.raises(ValueError, match="unknown scoring system"):
            score_trials("baseline3", [trial], asv, cm)

    def test_empty_trial_list(self):
        asv, cm = tiny_stores()
        assert score_trials("baseline1", [], asv, cm) == []

    def test_scores_follow_trial_order(self):
        ds = small_synth()
        scored = score_trials("baseline1", ds.eval_trials, ds.asv_store, ds.cm_store)
        assert [s.trial for s in scored] == list(ds.eval_trials)

    def test_trained_models_score_all_trials(self):
        ds = small_synth()
        config = TrainConfig(epochs=2, samples_per_epoch=100, seed=1)
        for trainer in (train_msfm, train_iep):
            model, _ = trainer(ds.train_records, ds.asv_store, ds.cm_store, config)
            scored = score_trials(model, ds.eval_trials, ds.asv_store, ds.cm_store)
            assert len(scored) == len(ds.eval_trials)
            assert all(np.isfinite(s.score) for s in scored)
            report = evaluate_system(scored)
            assert report.eer_percent["sasv"] is not None


def shared_item_trials():
    """Stores and 150 trials among 45 enrollments and 50 test utterances.

    Enrollments and test utterances repeat across trials, and speaker S00's
    enrollment utterances have no CM embedding. Above 40 distinct rows per
    table, every matrix product runs in the kernel it runs in for 150 rows.
    """
    rng = np.random.default_rng(12)
    asv, cm = EmbeddingStore(6, "asv"), EmbeddingStore(5, "cm")
    enrollment = {}
    for s in range(45):
        enrollment[f"S{s:02d}"] = (f"S{s:02d}_e0", f"S{s:02d}_e1")
        for utt in enrollment[f"S{s:02d}"]:
            asv.add(utt, rng.normal(size=6))
            if s:
                cm.add(utt, rng.normal(size=5))
    for i in range(50):
        asv.add(f"T{i:02d}", rng.normal(size=6))
        cm.add(f"T{i:02d}", rng.normal(size=5))
    speakers = [f"S{s:02d}" for s in range(45)] + [f"S{s:02d}" for s in rng.integers(0, 45, 105)]
    tests = [f"T{i:02d}" for i in range(50)] * 3
    labels = rng.choice(["target", "nontarget", "spoof"], 150)
    trials = [TrialRecord(spk, enrollment[spk], test, label)
              for spk, test, label in zip(speakers, tests, labels)]
    return trials, asv, cm


def row_cosine(a, b):
    """Row-wise cosine with the arithmetic of one enrollment and test row per trial."""
    return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def untrained(name):
    if name in ("baseline1", "asv-only"):
        return name
    system = SYSTEMS[name]
    factory = {MsfmModel: make_msfm, IepModel: make_iep, Baseline2Model: make_baseline2}
    return factory[system.model_class](6, 5, rng=np.random.default_rng(3), **system.options)


class TestGatherOnceScoring:
    @pytest.mark.parametrize("name", [*SYSTEMS, "asv-only"])
    def test_whole_list_matches_each_trial_alone(self, name):
        trials, asv, cm = shared_item_trials()
        system = untrained(name)
        whole = np.array([s.score for s in score_trials(system, trials, asv, cm)])
        alone = np.array([score_trials(system, [t], asv, cm)[0].score for t in trials])
        if isinstance(system, str):
            assert np.array_equal(whole, alone)
        else:
            # BLAS computes a one-row product with another kernel, which may
            # round the last bit differently
            np.testing.assert_allclose(whole, alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", [*SYSTEMS, "asv-only"])
    def test_gathered_tables_score_like_one_row_per_trial(self, name):
        # gather-once scoring reproduces, bit for bit, the arithmetic that
        # gives each trial its own enrollment and test rows
        trials, asv, cm = shared_item_trials()
        system = untrained(name)
        tables, _ = _trial_arrays(TrialList.from_records(trials), asv, cm)
        e, k = tables.enroll_index, tables.test_index
        assert len(tables.enroll_asv) == 45 and len(tables.test_asv) == 50
        per_trial = one_to_one(tables.enroll_asv[e], tables.enroll_cm[e],
                               tables.test_asv[k], tables.test_cm[k])
        if isinstance(system, str):
            expected = row_cosine(per_trial.enroll_asv, per_trial.test_asv)
            if system == "baseline1":
                expected = expected + row_cosine(per_trial.enroll_cm, per_trial.test_cm)
        else:
            expected = system.score_batch(per_trial)
        got = np.array([s.score for s in score_trials(system, trials, asv, cm)])
        assert np.array_equal(got, expected)

    def test_cm_fallbacks_are_counted_once_per_enrollment(self):
        trials, asv, cm = shared_item_trials()
        assert sum(t.enroll_speaker_id == "S00" for t in trials) > 1
        scored = score_trials("baseline1", trials, asv, cm)
        assert scored.cm_fallbacks == 1
        assert score_trials("baseline1", trials[1:2], asv, cm).cm_fallbacks == 0

    def test_all_gaps_are_listed_in_one_message(self):
        asv, cm = tiny_stores()
        trials = [
            TrialRecord("spkA", ("e1", "lost"), "ghost", "target"),
            TrialRecord("spkB", ("e2",), "t1", "spoof"),
            TrialRecord("spkA", ("e1", "lost"), "ghost", "nontarget"),
        ]
        with pytest.raises(KeyError) as err:
            score_trials("baseline1", trials, asv, cm)
        assert err.value.args[0] == "3 embedding(s) missing: ghost (asv), ghost (cm), lost (asv)"


def parsed_trials(trials):
    """The same trials as a trial list parsed from text."""
    enrollment = {t.enroll_speaker_id: t.enroll_utterance_ids for t in trials}
    text = "".join(f"{t.enroll_speaker_id} {t.test_utterance_id} {t.label}\n" for t in trials)
    return parse_trial_list(text, enrollment)


class TestColumnarScoring:
    @pytest.mark.parametrize("name", [*SYSTEMS, "asv-only"])
    def test_parsed_list_and_records_score_the_same_bytes(self, name):
        trials, asv, cm = shared_item_trials()
        system = untrained(name)
        parsed = parsed_trials(trials)
        assert list(parsed) == trials
        from_list = score_trials(system, trials, asv, cm)
        from_columns = score_trials(system, parsed, asv, cm)
        assert from_columns.scores.tobytes() == from_list.scores.tobytes()
        assert from_columns.cm_fallbacks == from_list.cm_fallbacks == 1
        assert [s.trial for s in from_columns] == trials

    def test_evaluate_system_on_columns_and_on_a_list_agree(self):
        trials, asv, cm = shared_item_trials()
        scored = score_trials("baseline1", parsed_trials(trials), asv, cm)
        columnar, listed = evaluate_system(scored, bins=7), evaluate_system(list(scored), bins=7)
        for fmt in (format_report_text, format_report_csv, format_histogram_csv):
            assert fmt(columnar) == fmt(listed)
        assert columnar.label_counts == listed.label_counts
        assert columnar.eer_percent == listed.eer_percent

    def test_empty_list_scores_nothing(self):
        asv, cm = tiny_stores()
        scored = score_trials("baseline1", parse_trial_list("", {}), asv, cm)
        assert len(scored) == 0 and scored == []


BLOCK = models._ROW_BLOCK


def block_trials(n_trials: int, n_enroll: int, n_tests: int) -> tuple:
    """Stores and a trial list over ``n_enroll`` enrollments and ``n_tests`` test utterances.

    Trial i pairs enrollment ``i % n_enroll`` with test utterance ``i % n_tests``.
    """
    rng = np.random.default_rng(21)
    asv, cm = EmbeddingStore(6, "asv"), EmbeddingStore(5, "cm")
    enrollments = [(f"S{s}", (f"S{s}_e",)) for s in range(n_enroll)]
    test_ids = [f"T{i}" for i in range(n_tests)]
    for utt in [ids[0] for _, ids in enrollments] + test_ids:
        asv.add(utt, rng.normal(size=6))
        cm.add(utt, rng.normal(size=5))
    rows = np.arange(n_trials)
    trials = TrialList(enrollments, test_ids, rows % n_enroll, rows % n_tests,
                       rng.integers(0, 3, n_trials).astype(np.int8))
    return trials, asv, cm


def narrow_baseline2() -> Baseline2Model:
    """baseline2's layout at width 64 on 6-dim ASV and 5-dim CM stores.

    Its 64 -> 2 output layer rounds differently in calls of up to about 600
    rows, so a short block would show.
    """
    spec = MlpSpec((FullyConnected(17, 64), Elu(), FullyConnected(64, 64), Elu(),
                    FullyConnected(64, 64), Elu(), FullyConnected(64, 2)))
    return Baseline2Model(Mlp.init(spec, np.random.default_rng(5)), asv_dim=6, cm_dim=5)


BLOCKED_SYSTEMS = {
    "msfm": lambda: make_msfm(6, 5, rng=np.random.default_rng(3)),
    "msfm-no-sssv": lambda: make_msfm(6, 5, use_sssv_score=False, rng=np.random.default_rng(3)),
    "iep": lambda: make_iep(6, 5, rng=np.random.default_rng(3)),
    "baseline2": narrow_baseline2,
}


class TestRowBlocks:
    @pytest.mark.parametrize("block, sizes", [
        (8, range(42)),
        (BLOCK, [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK // 2, 2 * BLOCK + 1, 3 * BLOCK - 1]),
    ])
    def test_blocks_cover_every_row_once_in_order(self, block, sizes, monkeypatch):
        monkeypatch.setattr(models, "_ROW_BLOCK", block)
        for n in sizes:
            blocks = _row_blocks(n)
            assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
            if len(blocks) > 1:
                assert min(rows.stop - rows.start for rows in blocks) >= block // 2

    def test_fewer_rows_than_a_block_are_one_block(self):
        for n in (1, 17, BLOCK - 1, BLOCK):
            assert _row_blocks(n) == [slice(0, n)]

    def test_short_tail_is_merged(self):
        assert _row_blocks(2 * BLOCK + 1) == [slice(0, BLOCK), slice(BLOCK, 2 * BLOCK + 1)]
        assert _row_blocks(BLOCK + BLOCK // 2) == [slice(0, BLOCK),
                                                   slice(BLOCK, BLOCK + BLOCK // 2)]
        assert _row_blocks(BLOCK + BLOCK // 2 - 1) == [slice(0, BLOCK + BLOCK // 2 - 1)]


class TestBlockedScoring:
    @pytest.mark.parametrize("name", BLOCKED_SYSTEMS)
    @pytest.mark.parametrize("n", [BLOCK + BLOCK // 2, 4 * BLOCK + 1, 6 * BLOCK - 1])
    def test_blocked_scores_are_bit_identical_to_one_block(self, name, n, monkeypatch):
        # every trial has its own test utterance, so the table networks run
        # in blocks too; the lists end in the shortest block kept, a merged
        # one-row tail and a block one row short of full
        trials, asv, cm = block_trials(n, 97, n)
        system = BLOCKED_SYSTEMS[name]()
        blocked = score_trials(system, trials, asv, cm).scores
        monkeypatch.setattr(models, "_ROW_BLOCK", n + 1)
        whole = score_trials(system, trials, asv, cm).scores
        assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("name", ["msfm", "iep", "baseline2"])
    def test_scoring_memory_does_not_grow_with_the_trial_list(self, name):
        # the same tables under 2 and under 8 blocks of trials: only O(n)
        # score and index arrays may add to the peak, not per-trial rows of a
        # network's input or tape
        system = BLOCKED_SYSTEMS[name]()
        peaks = []
        for blocks in (2, 8):
            trials, asv, cm = block_trials(blocks * BLOCK, 64, 1024)
            tracemalloc.start()
            try:
                score_trials(system, trials, asv, cm)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 6 * BLOCK * 64

    def test_a_scoring_block_holds_no_tape(self):
        # baseline2 at its real width scores one block of trials while holding
        # the block's input and at most two activations; a tape would hold
        # three activations besides the one being computed
        system = make_baseline2(6, 5, rng=np.random.default_rng(3))
        trials, asv, cm = block_trials(BLOCK, 64, BLOCK)
        tracemalloc.start()
        try:
            score_trials(system, trials, asv, cm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activation = BLOCK * 1024 * 8
        assert peak < BLOCK * 17 * 8 + 3 * activation


def two_layer_baseline2(first_bias: float, second_weight: float) -> Baseline2Model:
    """A baseline2 model on 6-dim ASV and 5-dim CM stores with one ELU layer."""
    spec = MlpSpec((FullyConnected(17, 4), Elu(), FullyConnected(4, 2)))
    params = MlpParams.zeros(spec)
    params.biases[0][:] = first_bias
    params.weights[1][:] = second_weight
    return Baseline2Model(Mlp(spec, params), asv_dim=6, cm_dim=5)


def hidden_minus_inf_baseline2() -> Baseline2Model:
    """A baseline2 model whose second layer's output is -inf on every row.

    The first ELU outputs 1 everywhere, four products of -1e308 sum to -inf,
    the second ELU maps -inf to -1, and the output layer reads finite -4.
    """
    spec = MlpSpec((FullyConnected(17, 4), Elu(), FullyConnected(4, 4), Elu(),
                    FullyConnected(4, 2)))
    params = MlpParams.zeros(spec)
    params.biases[0][:] = 1.0
    params.weights[1][:] = -1e308
    params.weights[2][:] = 1.0
    return Baseline2Model(Mlp(spec, params), asv_dim=6, cm_dim=5)


class TestOverflowingWeights:
    def test_hidden_overflow_to_minus_inf_is_named(self):
        trials, asv, cm = shared_item_trials()
        model = hidden_minus_inf_baseline2()
        w, b = model.mlp.params.weights, model.mlp.params.biases
        elu = lambda a: np.where(a > 0, a, np.expm1(a))  # noqa: E731
        with np.errstate(all="ignore"):
            hidden = elu(elu(np.ones((3, 17)) @ w[0].T + b[0]) @ w[1].T + b[1])
            out = hidden @ w[2].T + b[2]
        assert np.isfinite(out).all()  # an output check alone would miss it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^activations of block mlp overflowed$"):
                score_trials(model, trials, asv, cm)

    def test_overflowed_block_is_named(self):
        trials, asv, cm = shared_item_trials()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^activations of block mlp overflowed$"):
                score_trials(two_layer_baseline2(1e308, 1.0), trials, asv, cm)

    def test_large_elu_input_is_no_overflow(self):
        # every ELU input is 1e300: expm1 overflows, but the positive branch
        # is the one the ELU takes, and the next layer brings it back to ~1
        trials, asv, cm = shared_item_trials()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scored = score_trials(two_layer_baseline2(1e300, 1e-300), trials, asv, cm)
        assert np.isfinite(scored.scores).all()


def checkpoint_bytes(header, payload: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return b"SASVMDL1" + len(text).to_bytes(4, "little") + text + payload


def without(header: dict, key: str) -> dict:
    return {k: v for k, v in header.items() if k != key}


def with_layers(header: dict, block: str, layers: list) -> bytes:
    """A checkpoint of ``header`` whose ``block`` holds ``layers``, all parameters zero."""
    header = dict(header, blocks=dict(header["blocks"], **{block: layers}))
    fc = [layer for spec in header["blocks"].values() for layer in spec if layer[0] == "fc"]
    return checkpoint_bytes(header, bytes(8 * sum((i + 1) * o for _, i, o in fc)))


def with_outputs(header: dict, block: str, outputs: int) -> bytes:
    """A checkpoint of ``header`` whose ``block`` ends in ``outputs``, all parameters zero."""
    *layers, (_, in_dim, _) = header["blocks"][block]
    return with_layers(header, block, layers + [["fc", in_dim, outputs]])


def with_inputs(header: dict, block: str, inputs: int) -> bytes:
    """A checkpoint of ``header`` whose ``block`` reads ``inputs``, all parameters zero."""
    (_, _, out_dim), *layers = header["blocks"][block]
    return with_layers(header, block, [["fc", inputs, out_dim]] + layers)


BASELINE2_HEADER = {"kind": "baseline2", "asv_dim": 6, "cm_dim": 5,
                    "blocks": {"mlp": [["fc", 17, 4], ["elu"], ["fc", 4, 2]]}}
# the projector reads the trunk's 4 outputs next to the 6 + 5 raw inputs
IEP_HEADER = {"kind": "iep", "asv_dim": 6, "cm_dim": 5, "margin": 0.5,
              "blocks": {"trunk": [["fc", 11, 4], ["elu"]], "projector": [["fc", 15, 3]]}}


def with_first_layer(header: dict, layer) -> dict:
    encoder = [layer] + header["blocks"]["enroll_encoder"][1:]
    return dict(header, blocks=dict(header["blocks"], enroll_encoder=encoder))


NAN = np.array([np.nan], dtype="<f8").tobytes()
INF = np.array([np.inf], dtype="<f8").tobytes()

# (case, file bytes from a valid header and payload, expected message)
MALFORMED_CHECKPOINTS = [
    ("shorter-than-12-bytes", lambda h, p: b"SASVMDL1\x01", "truncated checkpoint header"),
    ("header-not-an-object", lambda h, p: checkpoint_bytes([h], p), "not a JSON object"),
    ("no-kind", lambda h, p: checkpoint_bytes(without(h, "kind"), p), "'kind'"),
    ("no-blocks", lambda h, p: checkpoint_bytes(without(h, "blocks"), p), "'blocks'"),
    ("no-asv-dim", lambda h, p: checkpoint_bytes(without(h, "asv_dim"), p), "'asv_dim'"),
    ("short-layer", lambda h, p: checkpoint_bytes(with_first_layer(h, ["fc"]), p),
     "malformed layer"),
    ("dims-disagree", lambda h, p: checkpoint_bytes(dict(h, asv_dim=7), p), "do not fit"),
    ("nan-in-first-block", lambda h, p: checkpoint_bytes(h, NAN + p[8:]),
     "checkpoint block enroll_encoder holds non-finite parameters"),
    ("inf-in-last-block", lambda h, p: checkpoint_bytes(h, p[:-8] + INF),
     "checkpoint block fusion_head holds non-finite parameters"),
    # the score is output 1 of a softmax head
    ("fusion-head-one-output", lambda h, p: with_outputs(h, "fusion_head", 1),
     "block fusion_head ends in 1 output"),
    ("verification-head-one-output", lambda h, p: with_outputs(h, "verification_head", 1),
     "block verification_head ends in 1 output"),
    ("verification-head-four-outputs", lambda h, p: with_outputs(h, "verification_head", 4),
     "block verification_head ends in 4 output"),
    ("baseline2-one-output", lambda h, p: with_outputs(BASELINE2_HEADER, "mlp", 1),
     "block mlp ends in 1 output"),
    ("baseline2-four-outputs", lambda h, p: with_outputs(BASELINE2_HEADER, "mlp", 4),
     "block mlp ends in 4 output"),
    # input widths that disagree with the blocks or settings feeding them
    ("sssv-flag-flipped", lambda h, p: checkpoint_bytes(dict(h, use_sssv_score=False), p),
     r"^block fusion_head reads 3 input\(s\); expected 2 \(use_sssv_score=False\)$"),
    ("fusion-head-four-inputs", lambda h, p: with_inputs(h, "fusion_head", 4),
     r"^block fusion_head reads 4 input\(s\); expected 3 \(use_sssv_score=True\)$"),
    ("verification-head-input", lambda h, p: with_inputs(h, "verification_head", 321),
     r"^block verification_head reads 321 input\(s\); expected 320 \(both encoders' outputs\)$"),
    ("encoders-disagree", lambda h, p: with_inputs(h, "test_encoder", 10),
     r"^block test_encoder reads 10 input\(s\); expected 11 \(enroll_encoder's input\)$"),
    ("iep-projector-input", lambda h, p: with_inputs(IEP_HEADER, "projector", 14),
     r"^block projector reads 14 input\(s\); expected 15 \(trunk output \+ asv_dim \+ cm_dim\)$"),
]


def valid_checkpoint(path: Path) -> bytes:
    save_model(make_msfm(6, 5, rng=np.random.default_rng(8)), path)
    return path.read_bytes()


def split_checkpoint(raw: bytes) -> tuple:
    header_len = int.from_bytes(raw[8:12], "little")
    return json.loads(raw[12 : 12 + header_len]), raw[12 + header_len :]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_fuzz")


class TestCheckpoints:
    @pytest.mark.parametrize(
        "build, message", [case[1:] for case in MALFORMED_CHECKPOINTS],
        ids=[case[0] for case in MALFORMED_CHECKPOINTS],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, run_cli, build, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(build(*split_checkpoint(valid_checkpoint(path))))
        with pytest.raises(ValueError, match=message):
            load_model(path)
        result = run_cli("evaluate", "--model", "msfm", "--checkpoint", path,
                         "--out", tmp_path / "eval")
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1, result.stderr

    def check_damaged(self, fuzz_dir, raw: bytes, capfd) -> None:
        """A damaged file loads or raises ValueError; through the CLI it fails cleanly."""
        path = fuzz_dir / "damaged.ckpt"
        path.write_bytes(raw)
        try:
            load_model(path)
            return
        except ValueError:
            pass
        capfd.readouterr()
        code = main(["evaluate", "--model", "msfm", "--checkpoint", str(path),
                     "--out", str(fuzz_dir / "eval")])
        assert code == 1
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR sasvkit: "), lines

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation_fuzz(self, fuzz_dir, capfd, fraction):
        raw = valid_checkpoint(fuzz_dir / "valid.ckpt")
        self.check_damaged(fuzz_dir, raw[: int(fraction * len(raw))], capfd)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(position=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
    def test_byte_flip_fuzz(self, fuzz_dir, capfd, position, bit):
        # flips land in the magic, the length field or the JSON header
        raw = bytearray(valid_checkpoint(fuzz_dir / "valid.ckpt"))
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        raw[int(position * header_end)] ^= 1 << bit
        self.check_damaged(fuzz_dir, bytes(raw), capfd)

    def roundtrip(self, model, tmp_path, name):
        path = tmp_path / name
        save_model(model, path)
        return load_model(path), path

    def test_softmax_head_of_any_hidden_width_loads(self, tmp_path):
        # only the two outputs are fixed: baseline2 with a 4-wide hidden layer
        path = tmp_path / "narrow.ckpt"
        path.write_bytes(with_outputs(BASELINE2_HEADER, "mlp", 2))
        model = load_model(path)
        assert isinstance(model, Baseline2Model)
        assert [l.out_dim for l in model.mlp.spec.fc_layers] == [4, 2]

    def test_small_iep_of_consistent_widths_loads(self, tmp_path):
        path = tmp_path / "small_iep.ckpt"
        path.write_bytes(with_layers(IEP_HEADER, "projector", [["fc", 15, 3]]))
        model = load_model(path)
        assert isinstance(model, IepModel)
        assert model.projector.spec.input_dim == 15

    def test_msfm_roundtrip_is_bit_exact(self, tmp_path):
        model = make_msfm(7, 5, use_sssv_score=False, rng=np.random.default_rng(1))
        loaded, _ = self.roundtrip(model, tmp_path, "m.ckpt")
        assert isinstance(loaded, MsfmModel)
        assert loaded.use_sssv_score is False
        assert (loaded.asv_dim, loaded.cm_dim) == (7, 5)
        assert all(np.array_equal(a, b) for a, b in zip(model.tensors(), loaded.tensors()))

    def test_iep_roundtrip_keeps_margin(self, tmp_path):
        model = make_iep(7, 5, margin=0.25, rng=np.random.default_rng(2))
        loaded, _ = self.roundtrip(model, tmp_path, "i.ckpt")
        assert isinstance(loaded, IepModel)
        assert loaded.margin == 0.25
        assert all(np.array_equal(a, b) for a, b in zip(model.tensors(), loaded.tensors()))

    def test_iep_integer_margin_roundtrip(self, tmp_path):
        # the margin is written as given, so an int margin stays an int in the header
        model = make_iep(7, 5, margin=1, rng=np.random.default_rng(2))
        loaded, path = self.roundtrip(model, tmp_path, "i.ckpt")
        header, payload = split_checkpoint(path.read_bytes())
        assert type(header["margin"]) is int
        assert loaded.margin == 1.0 and isinstance(loaded.margin, float)
        path.write_bytes(checkpoint_bytes(dict(header, margin=True), payload))
        with pytest.raises(ValueError, match="'margin': missing or not float"):
            load_model(path)

    def test_baseline2_roundtrip(self, tmp_path):
        model = make_baseline2(7, 5, rng=np.random.default_rng(3))
        loaded, _ = self.roundtrip(model, tmp_path, "b.ckpt")
        assert isinstance(loaded, Baseline2Model)
        assert all(np.array_equal(a, b) for a, b in zip(model.tensors(), loaded.tensors()))

    def test_save_is_byte_deterministic(self, tmp_path):
        model = make_iep(7, 5, rng=np.random.default_rng(4))
        save_model(model, tmp_path / "a.ckpt")
        save_model(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = make_baseline2(4, 3, rng=np.random.default_rng(5))
        path = tmp_path / "t.ckpt"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = make_baseline2(4, 3, rng=np.random.default_rng(6))
        path = tmp_path / "g.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)


class TestBaseline1:
    def test_score_is_plain_sum(self):
        asv, cm = tiny_stores()
        trial = TrialRecord("spkA", ("e2",), "t1", "target")
        (summed,) = score_trials("baseline1", [trial], asv, cm)
        (asv_only,) = score_trials("asv-only", [trial], asv, cm)
        expected = asv_only.score + cosine([1.0, 0.0], [0.0, 1.0])
        assert summed.score == pytest.approx(expected, abs=1e-12)


class TestPairBatchConstruction:
    def test_one_hot_targets_follow_labels(self):
        ds = small_synth()
        from sasvkit.sampling import PAIR_SCENARIOS, sample_training_pairs

        ids = np.array([r.utterance_id for r in ds.train_records], dtype=object)
        pairs = sample_training_pairs(ds.train_records, 40, np.random.default_rng(0))
        batch = pair_batch(pairs, ids, ds.asv_store, ds.cm_store)
        for i, (enroll, test, code) in enumerate(pairs.tolist()):
            scenario = PAIR_SCENARIOS[code]
            assert batch.sv_target[i, 1] == (1.0 if scenario.endswith("-same") else 0.0)
            assert batch.sasv_target[i, 1] == (1.0 if scenario == "bonafide-same" else 0.0)
            assert np.array_equal(batch.enroll_asv[i], ds.asv_store.get(ids[enroll]))
            assert np.array_equal(batch.test_cm[i], ds.cm_store.get(ids[test]))
