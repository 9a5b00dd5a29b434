"""Tests for pair/triplet sampling and the synthetic corpus generator."""

import collections
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit import sampling
from sasvkit.cli import main
from sasvkit.data import UtteranceRecord, parse_enrollment_map, parse_trial_list
from sasvkit.sampling import (
    PAIR_SCENARIO_WEIGHTS,
    PAIR_SCENARIOS,
    NEGATIVE_KINDS,
    SynthConfig,
    apportion_counts,
    generate_synthetic,
    sample_training_pairs,
    sample_triplets,
    synth_bytes,
)
from test_acceptance import small_corpus


def make_records(n_speakers=4, bona_per_speaker=5, spoof_per_speaker=3):
    records = []
    for s in range(n_speakers):
        speaker = f"SPK{s}"
        for i in range(bona_per_speaker):
            records.append(UtteranceRecord(f"{speaker}_b{i}", speaker, "bonafide"))
        for i in range(spoof_per_speaker):
            records.append(UtteranceRecord(f"{speaker}_f{i}", speaker, "spoof", "A01"))
    return records


class TestApportionment:
    def test_canonical_2000(self):
        assert apportion_counts(2000, PAIR_SCENARIO_WEIGHTS) == (901, 499, 300, 300)

    def test_exact_666(self):
        assert apportion_counts(666, PAIR_SCENARIO_WEIGHTS) == (300, 166, 100, 100)

    def test_equal_weights_tie_break_prefers_earlier(self):
        assert apportion_counts(3, (1.0, 1.0)) == (2, 1)

    def test_zero_total(self):
        assert apportion_counts(0, PAIR_SCENARIO_WEIGHTS) == (0, 0, 0, 0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            apportion_counts(10, (1.0, 0.0))
        with pytest.raises(ValueError):
            apportion_counts(10, ())

    @given(st.integers(0, 5000), st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
    def test_counts_sum_to_total(self, total, weights):
        counts = apportion_counts(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)

    @given(st.integers(0, 2000))
    def test_each_count_within_one_of_quota(self, total):
        counts = apportion_counts(total, PAIR_SCENARIO_WEIGHTS)
        weight_sum = sum(PAIR_SCENARIO_WEIGHTS)
        for c, w in zip(counts, PAIR_SCENARIO_WEIGHTS):
            assert abs(c - total * w / weight_sum) < 1.0 + 1e-9


def pair_labels(records, pairs):
    """(enroll id, test id, scenario) of each row of sample_training_pairs."""
    return [(records[e].utterance_id, records[t].utterance_id, PAIR_SCENARIOS[c])
            for e, t, c in pairs.tolist()]


def triplet_labels(records, triplets):
    """(anchor id, positive id, negative id, kind) of each row of sample_triplets."""
    return [(records[a].utterance_id, records[p].utterance_id, records[n].utterance_id,
             NEGATIVE_KINDS[k]) for a, p, n, k in triplets.tolist()]


def assert_pair_invariants(records, pairs):
    for e, t, c in pairs.tolist():
        enroll, test = records[e], records[t]
        assert enroll.is_bonafide
        assert test.is_bonafide == (c < 2)
        assert (enroll.speaker_id == test.speaker_id) == (c % 2 == 0)
        if c == 0:
            assert e != t


def assert_triplet_invariants(records, triplets):
    for a, p, n, k in triplets.tolist():
        anchor, positive, negative = records[a], records[p], records[n]
        assert anchor.is_bonafide and positive.is_bonafide
        assert a != p
        assert anchor.speaker_id == positive.speaker_id
        if NEGATIVE_KINDS[k] == "same-speaker-spoof":
            assert not negative.is_bonafide
            assert negative.speaker_id == anchor.speaker_id
        else:
            assert negative.is_bonafide
            assert negative.speaker_id != anchor.speaker_id


def satisfiable(records, code) -> bool:
    """Whether any (enroll, test) row pair meets scenario ``code``, by brute force."""
    return any(
        e.is_bonafide and t.is_bonafide == (code < 2)
        and (e.speaker_id == t.speaker_id) == (code % 2 == 0) and i != j
        for i, e in enumerate(records) for j, t in enumerate(records)
    )


small_protocols = st.lists(
    st.tuples(st.integers(0, 3), st.booleans()), max_size=14
).map(lambda rows: [
    UtteranceRecord(f"U{i}", f"SPK{s}", "bonafide" if bona else "spoof",
                    None if bona else "A01")
    for i, (s, bona) in enumerate(rows)
])


class TestSampleTrainingPairs:
    def test_scenario_counts_match_apportionment(self):
        records = make_records()
        pairs = sample_training_pairs(records, 2000, np.random.default_rng(0))
        assert pairs.shape == (2000, 3) and pairs.dtype == np.intp
        by_scenario = collections.Counter(PAIR_SCENARIOS[c] for c in pairs[:, 2])
        assert by_scenario["bonafide-same"] == 901
        assert by_scenario["bonafide-diff"] == 499
        assert by_scenario["spoof-same"] == 300
        assert by_scenario["spoof-diff"] == 300

    def test_pair_invariants(self):
        records = make_records()
        assert_pair_invariants(
            records, sample_training_pairs(records, 400, np.random.default_rng(1))
        )

    @settings(max_examples=150, deadline=None)
    @given(small_protocols, st.integers(0, 29), st.integers(0, 2**32 - 1))
    def test_small_protocols_meet_invariants_or_name_the_scenario(self, records, count,
                                                                 seed):
        counts = apportion_counts(count, PAIR_SCENARIO_WEIGHTS)
        try:
            pairs = sample_training_pairs(records, count, np.random.default_rng(seed))
        except ValueError as exc:
            named = re.match(r"scenario (\S+) is unsatisfiable: ", str(exc))
            assert named, exc
            code = PAIR_SCENARIOS.index(named[1])
            assert counts[code] > 0 and not satisfiable(records, code)
            assert all(satisfiable(records, c) for c in range(code) if counts[c])
            return
        assert all(satisfiable(records, c) for c in range(4) if counts[c])
        assert pairs.shape == (count, 3)
        assert tuple(np.bincount(pairs[:, 2], minlength=4)) == counts
        assert_pair_invariants(records, pairs)

    def test_unsatisfiable_scenario_is_named(self):
        # a single speaker makes every cross-speaker scenario impossible
        records = make_records(n_speakers=1)
        with pytest.raises(ValueError, match="bonafide-diff"):
            sample_training_pairs(records, 100, np.random.default_rng(0))

    def test_no_spoofs_is_reported(self):
        records = make_records(spoof_per_speaker=0)
        with pytest.raises(ValueError, match="spoof-same"):
            sample_training_pairs(records, 100, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        records = make_records()
        a = sample_training_pairs(records, 300, np.random.default_rng(42))
        b = sample_training_pairs(records, 300, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        records = make_records()
        a = sample_training_pairs(records, 300, np.random.default_rng(1))
        b = sample_training_pairs(records, 300, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_within_scenario_coverage_is_broad(self):
        # uniform in-scenario sampling should touch every speaker
        records = make_records(n_speakers=6)
        pairs = sample_training_pairs(records, 3000, np.random.default_rng(3))
        enrolled = {records[e].speaker_id for e in pairs[:, 0]}
        assert len(enrolled) == 6


class TestSampleTriplets:
    def test_basic_invariants(self):
        records = make_records()
        triplets = sample_triplets(records, 500, np.random.default_rng(0))
        assert triplets.shape == (500, 4) and triplets.dtype == np.intp
        assert_triplet_invariants(records, triplets)

    @settings(max_examples=150, deadline=None)
    @given(small_protocols, st.integers(0, 29), st.integers(0, 2**32 - 1))
    def test_small_protocols_meet_invariants_or_are_rejected(self, records, count, seed):
        speakers = {r.speaker_id for r in records}
        bona = collections.Counter(r.speaker_id for r in records if r.is_bonafide)
        spoofed = {r.speaker_id for r in records if not r.is_bonafide}
        possible = any(
            bona[s] >= 2 and (s in spoofed or sum(bona.values()) > bona[s]) for s in speakers
        )
        try:
            triplets = sample_triplets(records, count, np.random.default_rng(seed))
        except ValueError as exc:
            assert str(exc) == (
                "no speaker with two bonafide utterances and an available negative"
            )
            assert not possible
            return
        assert possible
        assert triplets.shape == (count, 4)
        assert_triplet_invariants(records, triplets)

    def test_single_speaker_uses_spoof_negatives(self):
        records = [
            UtteranceRecord("b1", "S", "bonafide"),
            UtteranceRecord("b2", "S", "bonafide"),
            UtteranceRecord("f1", "S", "spoof", "A01"),
        ]
        triplets = triplet_labels(records, sample_triplets(records, 50, np.random.default_rng(0)))
        assert all(t[3] == "same-speaker-spoof" for t in triplets)
        assert all(t[2] == "f1" for t in triplets)

    def test_no_spoofs_uses_other_speakers(self):
        records = make_records(n_speakers=2, spoof_per_speaker=0)
        triplets = sample_triplets(records, 50, np.random.default_rng(0))
        assert all(NEGATIVE_KINDS[k] == "other-speaker-bonafide" for k in triplets[:, 3])

    def test_both_kinds_drawn_evenly(self):
        records = make_records()
        triplets = sample_triplets(records, 4000, np.random.default_rng(7))
        kinds = collections.Counter(NEGATIVE_KINDS[k] for k in triplets[:, 3])
        ratio = kinds["same-speaker-spoof"] / len(triplets)
        assert 0.45 < ratio < 0.55

    def test_impossible_corpus_rejected(self):
        records = [UtteranceRecord("b1", "S", "bonafide")]
        with pytest.raises(ValueError):
            sample_triplets(records, 10, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        records = make_records()
        a = sample_triplets(records, 200, np.random.default_rng(9))
        b = sample_triplets(records, 200, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestPinnedStream:
    """sha256 of the draws on the acceptance corpus, recorded from the
    object-based samplers that the row arrays replaced: any change to the
    random stream, to the pool layout or to the order of draws fails here."""

    PAIRS = {
        0: "b1a8fae6339bbac3afc2f5f6f90dc25a1217e9e4c7634b7c8748368598fde0d0",
        1: "4ba0a21d62f057ff0fecece7b0d89e6be6b27060eae0337a50d7931f43df5ab1",
        2: "9706a28c8ff1b7b03f069631ec55ba0082ae9e52f746e452792c0ac63ba2a43a",
    }
    TRIPLETS = {
        0: "d6e84596c7e7e22df93c80e25c3fc78da915cb02f08190ad3670053dbc507607",
        1: "d9a633dc906b1b85af26b639c4a8330894643743b04b583ce83453680e8275a4",
        2: "ccd5e1ce243f6cd74a8fa9f83fe8f4078ef16c7556366a2835278989fb38923c",
    }

    @staticmethod
    def digest(rows) -> str:
        return hashlib.sha256("\n".join(" ".join(r) for r in rows).encode()).hexdigest()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairs_and_triplets_keep_their_stream(self, seed):
        records = small_corpus().train_records
        pairs = sample_training_pairs(records, 2000, np.random.default_rng(seed))
        triplets = sample_triplets(records, 2000, np.random.default_rng(seed))
        assert self.digest(pair_labels(records, pairs)) == self.PAIRS[seed]
        assert self.digest(triplet_labels(records, triplets)) == self.TRIPLETS[seed]


def small_synth(**overrides):
    defaults = dict(
        n_speakers=6,
        utts_per_speaker=8,
        spoofs_per_speaker=6,
        asv_dim=24,
        cm_dim=16,
        seed=99,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerateSynthetic:
    def test_store_contents_and_dims(self):
        config = small_synth()
        ds = generate_synthetic(config)
        n_utts = config.n_speakers * (config.utts_per_speaker + config.spoofs_per_speaker)
        assert len(ds.asv_store) == n_utts
        assert len(ds.cm_store) == n_utts
        assert ds.asv_store.dim == config.asv_dim
        assert ds.cm_store.dim == config.cm_dim

    def test_asv_vectors_unit_norm(self):
        ds = generate_synthetic(small_synth())
        for _, vec in ds.asv_store.items():
            # stored at float32 precision, so the norm is 1 up to that rounding
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_train_records_exclude_enrollment_and_test_audio(self):
        config = small_synth()
        ds = generate_synthetic(config)
        train_ids = {r.utterance_id for r in ds.train_records}
        for speaker, utts in ds.enrollment.items():
            assert not train_ids.intersection(utts)
        for trials in (ds.dev_trials, ds.eval_trials):
            for trial in trials:
                assert trial.test_utterance_id not in train_ids

    def test_trial_composition(self):
        config = small_synth()
        ds = generate_synthetic(config)
        labels = collections.Counter(t.label for t in ds.eval_trials)
        assert labels["target"] == config.n_speakers * 1
        assert labels["nontarget"] == config.n_speakers * config.nontarget_neighbors * 1
        assert labels["spoof"] == config.n_speakers * 1
        for trial in ds.eval_trials:
            assert trial.enroll_utterance_ids == ds.enrollment[trial.enroll_speaker_id]

    def test_deterministic_given_seed(self):
        a = generate_synthetic(small_synth())
        b = generate_synthetic(small_synth())
        assert a.train_records == b.train_records
        assert a.dev_trials == b.dev_trials
        for utt_id, vec in a.asv_store.items():
            np.testing.assert_array_equal(vec, b.asv_store.get(utt_id))
        for utt_id, vec in a.cm_store.items():
            np.testing.assert_array_equal(vec, b.cm_store.get(utt_id))

    def test_different_seed_changes_vectors(self):
        a = generate_synthetic(small_synth(seed=1))
        b = generate_synthetic(small_synth(seed=2))
        some_id = a.asv_store.ids()[0]
        assert not np.array_equal(a.asv_store.get(some_id), b.asv_store.get(some_id))

    def test_single_speaker_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_speakers=1)

    def test_cm_clusters_are_linearly_separable(self):
        # with separation 8 the sign of the first coordinate splits the
        # classes with error well under 0.1 percent
        config = SynthConfig(
            n_speakers=25,
            utts_per_speaker=200,
            spoofs_per_speaker=200,
            asv_dim=8,
            cm_dim=160,
            cm_separation=8.0,
            asv_channel_dims=2,
            seed=5,
        )
        ds = generate_synthetic(config)
        wrong = 0
        total = 0
        for utt_id, vec in ds.cm_store.items():
            is_bona = "_B" in utt_id
            predicted_bona = vec[0] > 0
            wrong += int(is_bona != predicted_bona)
            total += 1
        assert total == 10000
        assert wrong / total < 0.001

    def test_spoof_spread_equal_to_noise_makes_asv_blind(self):
        # spoofs drawn exactly like bonafide audio: the cosine score cannot
        # separate target from spoof trials, so the two populations overlap
        config = SynthConfig(
            n_speakers=12,
            utts_per_speaker=40,
            spoofs_per_speaker=40,
            asv_dim=64,
            cm_dim=8,
            asv_noise=0.1,
            spoof_asv_spread=0.1,
            seed=11,
        )
        ds = generate_synthetic(config)
        from sasvkit.data import enrollment_embedding

        target_scores = []
        spoof_scores = []
        for trial in ds.eval_trials:
            if trial.label == "nontarget":
                continue
            e = enrollment_embedding(ds.asv_store, trial.enroll_utterance_ids)
            t = ds.asv_store.get(trial.test_utterance_id)
            score = float(e @ t / (np.linalg.norm(e) * np.linalg.norm(t)))
            (target_scores if trial.label == "target" else spoof_scores).append(score)
        t_mean = np.mean(target_scores)
        s_mean = np.mean(spoof_scores)
        pooled = np.std(target_scores + spoof_scores)
        assert abs(t_mean - s_mean) < 0.5 * pooled

    def test_cm_speaker_trait_is_shared_across_bonafide_and_spoof(self):
        # a speaker's spoofed audio imitates their voice, so after removing
        # each class cluster's global mean, the per-speaker residuals of the
        # bonafide and spoofed CM embeddings point the same way
        config = SynthConfig(
            n_speakers=10,
            utts_per_speaker=24,
            spoofs_per_speaker=24,
            asv_dim=16,
            cm_dim=160,
            cm_speaker_scale=5.0,
            asv_channel_dims=4,
            seed=21,
        )
        ds = generate_synthetic(config)
        by_speaker = {}
        for utt_id, vec in ds.cm_store.items():
            speaker = utt_id.split("_")[0]
            kind = "bona" if "_B" in utt_id else "spoof"
            by_speaker.setdefault(speaker, {"bona": [], "spoof": []})[kind].append(vec)
        bona_means = {s: np.mean(d["bona"], axis=0) for s, d in by_speaker.items()}
        spoof_means = {s: np.mean(d["spoof"], axis=0) for s, d in by_speaker.items()}
        bona_center = np.mean(list(bona_means.values()), axis=0)
        spoof_center = np.mean(list(spoof_means.values()), axis=0)
        for speaker in by_speaker:
            a = bona_means[speaker] - bona_center
            b = spoof_means[speaker] - spoof_center
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos > 0.5

    def test_channel_noise_is_confined_to_leading_coordinates(self):
        config = SynthConfig(
            n_speakers=8,
            utts_per_speaker=12,
            spoofs_per_speaker=8,
            asv_dim=64,
            cm_dim=8,
            asv_noise=0.01,
            spoof_asv_spread=0.011,
            asv_channel_dims=8,
            asv_channel_scale=5.0,
            seed=13,
        )
        ds = generate_synthetic(config)
        vectors = np.stack([ds.asv_store.get(u) for u in ds.asv_store.ids()])
        leading = np.abs(vectors[:, :8]).mean()
        trailing = np.abs(vectors[:, 8:]).mean()
        assert leading > 5 * trailing

    def test_channel_config_validation(self):
        with pytest.raises(ValueError, match="asv_channel_dims"):
            SynthConfig(asv_dim=16, asv_channel_dims=24)
        with pytest.raises(ValueError, match="asv_channel_scale"):
            SynthConfig(asv_channel_scale=-0.1)
        with pytest.raises(ValueError, match="cm_speaker_scale"):
            SynthConfig(cm_speaker_scale=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SynthConfig(seed=-1)


class TestPinnedSynth:
    """sha256 of every file ``synth`` writes, recorded from the generator that
    drew one vector at a time and added it to the stores row by row: any
    change to the random stream, to the arithmetic or to a writer fails here."""

    EDGE = ["--seed", "5", "--set", "n_speakers=7", "--set", "utts_per_speaker=9",
            "--set", "spoofs_per_speaker=5", "--set", "enroll_per_speaker=2",
            "--set", "nontarget_neighbors=3", "--set", "asv_dim=7", "--set", "cm_dim=3",
            "--set", "cm_speaker_scale=0", "--set", "asv_channel_dims=7"]
    DEFAULT_TEXT = {
        "enrollment.txt": "d335b2a86cc6e3f4dcda01e6c906d8f67b3458919c26da50c8d4a62144f4d7d5",
        "protocol.txt": "f11ce10a1371832fe625e983c17a194d0514b1caf9b98198766b6df9c9fbb9fa",
        "trials_dev.txt": "3dc03d967b286e01432ba26626593b569c54b97dc22c3502bf1a216c5409aceb",
        "trials_eval.txt": "1c86dd748853cd5b173ba05c6b2d11efc99a49805435614e4387fd0d1b835618",
    }
    CONFIGS = {
        "default": ([], {
            "asv.emb": "09ac2c2b05b7d294f18c6b00d05e1ca8b50d445674a890df5182b1aba4eb407c",
            "cm.emb": "5e3124367621e741c76a0940c62c30e63df1ffb5c7ec94a5b38c57ecd90cf8cb",
            "resolved_config.txt":
                "dacdbdca6256f62ea94c3d056da4a965d6757b74607c0b55334866dce512de6d",
            **DEFAULT_TEXT,
        }),
        "no-channel": (["--set", "asv_channel_dims=0"], {
            "asv.emb": "89d992cef46fcb9fcbc7572b6b1c2b191286fe5721f30f79018f85d64ba32756",
            "cm.emb": "dc97db30b924fe71a23616478260d8831a44748610465dfdb3bc30c072be93fb",
            "resolved_config.txt":
                "ddd4519ee793684e25c3497fad38d56a0d2fe12260eefb7846fa37ff952c13d2",
            **DEFAULT_TEXT,
        }),
        "edge": (EDGE, {
            "asv.emb": "89b9e92afd7d0702317a09339fd2a777a840875a5067e717017ded43ccf2e296",
            "cm.emb": "8c7e4844eed20b88f9400d3b1588839c01ec15a4e1dfb7d33bbc586b46500edd",
            "enrollment.txt": "a38556ee1e604b2d68dc23fad230630023e48587a9b336178ee66416d10ec7d0",
            "protocol.txt": "1e458ba7b324b9f6538d258367f2efc53884ff5e6f61ae597ae80c501601a429",
            "resolved_config.txt":
                "82dfe7be5666e3c4b62ade68d0d53e7eebc4d3540c1ab9700fc7fdc49a563fcc",
            "trials_dev.txt": "f989c28d528aabff143d045d619307ad53091e97c4d5492c5c30e6083feb2a84",
            "trials_eval.txt": "be03642b2618ceeb8e615b6c5260a7e5bd502682cc306edfb4c8269de8f50795",
        }),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_synth_keeps_its_bytes(self, tmp_path, name):
        args, expected = self.CONFIGS[name]
        assert main(["synth", "--out", str(tmp_path), *args]) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == expected

    def test_trial_lists_equal_a_parse_of_the_written_files(self, tmp_path):
        settings = dict(n_speakers=6, utts_per_speaker=8, spoofs_per_speaker=6,
                        nontarget_neighbors=3, seed=99)
        ds = generate_synthetic(SynthConfig(**settings))
        assert main(["synth", "--out", str(tmp_path),
                     *(f"--set={key}={value}" for key, value in settings.items())]) == 0
        enrollment = parse_enrollment_map((tmp_path / "enrollment.txt").read_text())
        for name, trials in (("trials_dev.txt", ds.dev_trials),
                             ("trials_eval.txt", ds.eval_trials)):
            parsed = parse_trial_list((tmp_path / name).read_text(), enrollment)
            assert trials.enrollments == parsed.enrollments
            assert trials.test_ids == parsed.test_ids
            for column in ("enroll_index", "test_index", "label_codes"):
                got, want = getattr(trials, column), getattr(parsed, column)
                assert got.dtype == want.dtype and np.array_equal(got, want), column


class TestSynthMemory:
    """``synth_bytes`` counts the two float32 stores and the largest draw."""

    @pytest.mark.parametrize("overrides, draws", [
        ({}, 1),  # the default corpus is one block
        (dict(n_speakers=200, asv_dim=8, cm_dim=4, asv_channel_dims=2), 3),
        (dict(n_speakers=3, utts_per_speaker=3000, spoofs_per_speaker=3000, asv_dim=4,
              cm_dim=2, asv_channel_dims=1), 3),  # a speaker larger than a block
    ])
    def test_counts_the_stores_and_the_largest_draw(self, monkeypatch, overrides, draws):
        config = SynthConfig(**overrides)
        sizes = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                sizes.append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(sampling.np.random, "default_rng", Recording)
        ds = generate_synthetic(config)
        stores = ds.asv_store._matrix.nbytes + ds.cm_store._matrix.nbytes
        assert len(sizes) == draws
        assert synth_bytes(config) == stores + 8 * max(sizes)
