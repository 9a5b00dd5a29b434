import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sasvkit.data import EmbeddingStore
from sasvkit.metrics import evaluate_system
from sasvkit.models import (
    Baseline2Model,
    IepModel,
    MsfmModel,
    PairBatch,
    _msfm_pass,
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
from sasvkit.neuralcore import Elu, TrainConfig, grad_check, optimizer_step
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
            model.score_batch(np.ones((1, 6)), np.ones((1, 5)), np.ones((1, 7)), np.ones((1, 5)))


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
        s, *_ = _msfm_pass(model, np.ones((1, 6)), np.ones((1, 5)), np.ones((1, 6)), np.ones((1, 5)))
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
        scores = model.score_batch(np.ones((1, 6)), None, np.ones((1, 6)), np.ones((1, 5)))
        assert scores[0] == pytest.approx(0.5, abs=1e-12)


class TestMsfmForward:
    def test_score_batch_matches_single_forward(self):
        rng = np.random.default_rng(2)
        model = make_msfm(6, 5, rng=rng)
        e_asv, e_cm = rng.normal(size=(3, 6)), rng.normal(size=(3, 5))
        t_asv, t_cm = rng.normal(size=(3, 6)), rng.normal(size=(3, 5))
        batch_scores = model.score_batch(e_asv, e_cm, t_asv, t_cm)
        for i in range(3):
            rows = slice(i, i + 1)
            (score,) = model.score_batch(e_asv[rows], e_cm[rows], t_asv[rows], t_cm[rows])
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


class TestIepProject:
    def test_projection_length(self):
        model = make_iep(12, 10)
        z = iep_project(model, np.ones(12), np.ones(10))
        assert z.shape == (128,)
        zb = iep_project(model, np.ones((4, 12)), np.ones((4, 10)))
        assert zb.shape == (4, 128)

    def test_skip_path_passes_raw_embeddings(self):
        model = make_iep(12, 10, rng=np.random.default_rng(0))
        for tensor in model.trunk.params.tensors():
            tensor[...] = 0.0
        rng = np.random.default_rng(1)
        x1, x2 = rng.normal(size=12), rng.normal(size=12)
        y = rng.normal(size=10)
        z1 = iep_project(model, x1, y)
        z2 = iep_project(model, x2, y)
        assert not np.allclose(z1, z2)

    def test_zero_embedding_rejected(self):
        model = make_iep(12, 10)
        with pytest.raises(ValueError, match="zero"):
            iep_project(model, np.zeros(12), np.ones(10))


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


def checkpoint_bytes(header, payload: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return b"SASVMDL1" + len(text).to_bytes(4, "little") + text + payload


def without(header: dict, key: str) -> dict:
    return {k: v for k, v in header.items() if k != key}


def with_first_layer(header: dict, layer) -> dict:
    encoder = [layer] + header["blocks"]["enroll_encoder"][1:]
    return dict(header, blocks=dict(header["blocks"], enroll_encoder=encoder))


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

    def check_damaged(self, fuzz_dir, raw: bytes, caplog) -> None:
        """A damaged file loads or raises ValueError; through the CLI it fails cleanly."""
        path = fuzz_dir / "damaged.ckpt"
        path.write_bytes(raw)
        try:
            load_model(path)
            return
        except ValueError:
            pass
        caplog.clear()
        code = main(["evaluate", "--model", "msfm", "--checkpoint", str(path),
                     "--out", str(fuzz_dir / "eval")])
        assert code == 1
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        assert "\n" not in caplog.records[0].getMessage()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation_fuzz(self, fuzz_dir, caplog, fraction):
        raw = valid_checkpoint(fuzz_dir / "valid.ckpt")
        self.check_damaged(fuzz_dir, raw[: int(fraction * len(raw))], caplog)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(position=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
    def test_byte_flip_fuzz(self, fuzz_dir, caplog, position, bit):
        # flips land in the magic, the length field or the JSON header
        raw = bytearray(valid_checkpoint(fuzz_dir / "valid.ckpt"))
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        raw[int(position * header_end)] ^= 1 << bit
        self.check_damaged(fuzz_dir, bytes(raw), caplog)

    def roundtrip(self, model, tmp_path, name):
        path = tmp_path / name
        save_model(model, path)
        return load_model(path), path

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
        from sasvkit.sampling import sample_training_pairs

        pairs = sample_training_pairs(ds.train_records, 40, np.random.default_rng(0))
        batch = pair_batch(pairs, ds.asv_store, ds.cm_store)
        for i, pair in enumerate(pairs):
            assert batch.sv_target[i, 1] == (1.0 if pair.sv_label == "same" else 0.0)
            assert batch.sasv_target[i, 1] == (
                1.0 if pair.sasv_label == "target" else 0.0
            )
