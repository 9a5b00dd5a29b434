"""Training-pair and triplet sampling, plus a synthetic embedding generator.

Score-fusion training draws enroll/test pairs from four scenarios (bonafide
same-speaker, bonafide different-speaker, spoofed same-speaker, spoofed
different-speaker) at the ratio 3 : 1.66 : 1 : 1. Scenario counts come from
largest-remainder apportionment, so a request for 2000 pairs yields exactly
(901, 499, 300, 300) every time. A pair is labeled target only when the test
side is a bonafide utterance of the enrolled speaker; the speaker-match label
is positive for both same-speaker scenarios, spoofed or not. Enrollment sides
are always bonafide.

The synthetic generator mimics the score geometry this pipeline is built for:
spoofed ASV embeddings scatter around the attacked speaker's mean direction
with a wider spread than bonafide ones, and CM embeddings fall into two
Gaussian clusters (bonafide vs. spoof) regardless of speaker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import EmbeddingStore, TrialRecord, UtteranceRecord

PAIR_SCENARIOS = ("bonafide-same", "bonafide-diff", "spoof-same", "spoof-diff")
PAIR_SCENARIO_WEIGHTS = (3.0, 1.66, 1.0, 1.0)
NEGATIVE_KINDS = ("same-speaker-spoof", "other-speaker-bonafide")


@dataclass(frozen=True)
class TrainingPair:
    """One enroll/test training example with both supervision labels."""

    enroll_utterance_id: str
    test_utterance_id: str
    sasv_label: str  # "target" | "nontarget"
    sv_label: str  # "same" | "different"
    scenario: str

    def __post_init__(self):
        if self.scenario not in PAIR_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        expected_sv = "same" if self.scenario.endswith("-same") else "different"
        if self.sv_label != expected_sv:
            raise ValueError(f"sv_label {self.sv_label!r} contradicts {self.scenario}")
        expected_sasv = "target" if self.scenario == "bonafide-same" else "nontarget"
        if self.sasv_label != expected_sasv:
            raise ValueError(f"sasv_label {self.sasv_label!r} contradicts {self.scenario}")


@dataclass(frozen=True)
class Triplet:
    """Anchor/positive from one speaker's bonafide audio, plus a negative."""

    anchor_id: str
    positive_id: str
    negative_id: str
    negative_kind: str

    def __post_init__(self):
        if self.anchor_id == self.positive_id:
            raise ValueError("anchor and positive must be distinct utterances")
        if self.negative_kind not in NEGATIVE_KINDS:
            raise ValueError(f"unknown negative kind {self.negative_kind!r}")


def apportion_counts(total: int, weights: Sequence[float]) -> tuple:
    """Integer counts proportional to weights via largest remainders.

    Ties in the remainders favor the earlier entry, which keeps the result
    deterministic.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    weight_sum = float(sum(weights))
    quotas = [total * w / weight_sum for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    remainders = sorted(
        range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return tuple(counts)


class _SpeakerTable:
    """Per-speaker bonafide/spoof utterance lists with flat index arrays."""

    def __init__(self, records):
        self.speakers = []
        self.bona = {}
        self.spoof = {}
        for rec in records:
            if rec.speaker_id not in self.bona:
                self.speakers.append(rec.speaker_id)
                self.bona[rec.speaker_id] = []
                self.spoof[rec.speaker_id] = []
            bucket = self.bona if rec.is_bonafide else self.spoof
            bucket[rec.speaker_id].append(rec.utterance_id)
        self.flat_bona = []
        self.bona_offset = {}
        for s in self.speakers:
            self.bona_offset[s] = len(self.flat_bona)
            self.flat_bona.extend(self.bona[s])
        self.flat_spoof = []
        self.spoof_offset = {}
        for s in self.speakers:
            self.spoof_offset[s] = len(self.flat_spoof)
            self.flat_spoof.extend(self.spoof[s])

    def counts(self, speaker):
        return len(self.bona[speaker]), len(self.spoof[speaker])


def _weighted_speaker_choice(rng, speakers, weights):
    """Pick (speaker, residual index) uniformly over sum(weights) slots."""
    cumulative = np.cumsum(weights)
    k = int(rng.integers(cumulative[-1]))
    idx = int(np.searchsorted(cumulative, k, side="right"))
    prev = 0 if idx == 0 else int(cumulative[idx - 1])
    return speakers[idx], k - prev


def _pick_other(flat, offset, count, residual):
    """Index into flat skipping the block [offset, offset+count)."""
    return flat[residual if residual < offset else residual + count]


def _draw_pair(table: _SpeakerTable, scenario: str, rng) -> TrainingPair:
    total_bona = len(table.flat_bona)
    total_spoof = len(table.flat_spoof)
    if scenario == "bonafide-same":
        speakers = [s for s in table.speakers if len(table.bona[s]) >= 2]
        weights = [len(table.bona[s]) * (len(table.bona[s]) - 1) for s in speakers]
        if not speakers:
            raise ValueError("scenario bonafide-same is unsatisfiable: "
                             "no speaker has two bonafide utterances")
        speaker, r = _weighted_speaker_choice(rng, speakers, weights)
        utts = table.bona[speaker]
        i, j = divmod(r, len(utts) - 1)
        if j >= i:
            j += 1
        return TrainingPair(utts[i], utts[j], "target", "same", scenario)
    if scenario == "bonafide-diff":
        speakers = [s for s in table.speakers
                    if table.bona[s] and total_bona > len(table.bona[s])]
        weights = [len(table.bona[s]) * (total_bona - len(table.bona[s])) for s in speakers]
        if not speakers:
            raise ValueError("scenario bonafide-diff is unsatisfiable: "
                             "need bonafide audio from two speakers")
        speaker, r = _weighted_speaker_choice(rng, speakers, weights)
        n = len(table.bona[speaker])
        i, j = divmod(r, total_bona - n)
        enroll = table.bona[speaker][i]
        test = _pick_other(table.flat_bona, table.bona_offset[speaker], n, j)
        return TrainingPair(enroll, test, "nontarget", "different", scenario)
    if scenario == "spoof-same":
        speakers = [s for s in table.speakers if table.bona[s] and table.spoof[s]]
        weights = [len(table.bona[s]) * len(table.spoof[s]) for s in speakers]
        if not speakers:
            raise ValueError("scenario spoof-same is unsatisfiable: no speaker has "
                             "both bonafide and spoofed utterances")
        speaker, r = _weighted_speaker_choice(rng, speakers, weights)
        i, j = divmod(r, len(table.spoof[speaker]))
        return TrainingPair(
            table.bona[speaker][i], table.spoof[speaker][j], "nontarget", "same", scenario
        )
    if scenario == "spoof-diff":
        speakers = [s for s in table.speakers
                    if table.bona[s] and total_spoof > len(table.spoof[s])]
        weights = [len(table.bona[s]) * (total_spoof - len(table.spoof[s]))
                   for s in speakers]
        if not speakers:
            raise ValueError("scenario spoof-diff is unsatisfiable: need spoofed audio "
                             "attributed to a different speaker")
        speaker, r = _weighted_speaker_choice(rng, speakers, weights)
        n_sp = len(table.spoof[speaker])
        i, j = divmod(r, total_spoof - n_sp)
        enroll = table.bona[speaker][i]
        test = _pick_other(table.flat_spoof, table.spoof_offset[speaker], n_sp, j)
        return TrainingPair(enroll, test, "nontarget", "different", scenario)
    raise ValueError(f"unknown scenario {scenario!r}")


def sample_training_pairs(records, count: int, rng: np.random.Generator) -> list:
    """Draw `count` pairs at the fixed scenario ratio, uniform within scenario."""
    if count < 0:
        raise ValueError("count must be non-negative")
    table = _SpeakerTable(records)
    scenario_counts = apportion_counts(count, PAIR_SCENARIO_WEIGHTS)
    pairs = []
    for scenario, n in zip(PAIR_SCENARIOS, scenario_counts):
        for _ in range(n):
            pairs.append(_draw_pair(table, scenario, rng))
    return pairs


def sample_triplets(records, count: int, rng: np.random.Generator) -> list:
    """Draw anchor/positive/negative triplets for metric learning.

    Anchor and positive are distinct bonafide utterances of one speaker. The
    negative is either a spoof aimed at that speaker or another speaker's
    bonafide utterance, with an even draw between the kinds whenever both are
    available.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    table = _SpeakerTable(records)
    total_bona = len(table.flat_bona)
    eligible = [
        s
        for s in table.speakers
        if len(table.bona[s]) >= 2
        and (table.spoof[s] or total_bona > len(table.bona[s]))
    ]
    if not eligible:
        raise ValueError(
            "no speaker with two bonafide utterances and an available negative"
        )
    weights = [len(table.bona[s]) * (len(table.bona[s]) - 1) for s in eligible]
    triplets = []
    for _ in range(count):
        speaker, r = _weighted_speaker_choice(rng, eligible, weights)
        utts = table.bona[speaker]
        i, j = divmod(r, len(utts) - 1)
        if j >= i:
            j += 1
        kinds = []
        if table.spoof[speaker]:
            kinds.append("same-speaker-spoof")
        if total_bona > len(utts):
            kinds.append("other-speaker-bonafide")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "same-speaker-spoof":
            negative = table.spoof[speaker][int(rng.integers(len(table.spoof[speaker])))]
        else:
            n = len(utts)
            residual = int(rng.integers(total_bona - n))
            negative = _pick_other(table.flat_bona, table.bona_offset[speaker], n, residual)
        triplets.append(Triplet(utts[i], utts[j], negative, kind))
    return triplets


@dataclass
class SynthConfig:
    """Settings for the synthetic embedding corpus.

    Bonafide ASV embeddings sit near their speaker's unit-norm mean direction
    with per-coordinate noise `asv_noise`; spoofed ones scatter around the
    attacked speaker's mean with the (wider) `spoof_asv_spread`. CM embeddings
    form two unit-variance Gaussian clusters whose means are `cm_separation`
    apart, placed symmetrically about the origin along the first axis. On top
    of its cluster mean, every CM embedding carries a per-speaker trait vector
    of length `cm_speaker_scale` — countermeasure front-ends retain some voice
    identity, and spoofed audio imitates the attacked speaker's voice, so the
    trait is shared between a speaker's bonafide and spoofed utterances.

    To mimic session variability, every ASV embedding additionally picks up
    channel noise of per-coordinate scale `asv_channel_scale` confined to the
    first `asv_channel_dims` coordinates. Plain cosine scoring cannot ignore
    the polluted coordinates, while trained back-ends can learn to.
    """

    n_speakers: int = 50
    utts_per_speaker: int = 24
    spoofs_per_speaker: int = 24
    asv_dim: int = 192
    cm_dim: int = 160
    asv_noise: float = 0.13
    spoof_asv_spread: float = 0.144
    cm_separation: float = 12.0
    cm_speaker_scale: float = 5.0
    asv_channel_dims: int = 24
    asv_channel_scale: float = 0.16
    seed: int = 1234
    enroll_per_speaker: int = 3
    nontarget_neighbors: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers to form nontarget trials")
        if self.enroll_per_speaker < 1:
            raise ValueError("enroll_per_speaker must be at least 1")
        if self.utts_per_speaker < self.enroll_per_speaker + 3:
            raise ValueError(
                "utts_per_speaker must cover enrollment plus train/dev/eval audio"
            )
        if self.spoofs_per_speaker < 3:
            raise ValueError("spoofs_per_speaker must be at least 3")
        if self.asv_dim < 1 or self.cm_dim < 1:
            raise ValueError("embedding dimensions must be positive")
        if self.asv_noise <= 0 or self.spoof_asv_spread <= 0 or self.cm_separation <= 0:
            raise ValueError("noise, spread, and separation must be positive")
        if self.cm_speaker_scale < 0:
            raise ValueError("cm_speaker_scale must be non-negative")
        if not (0 <= self.asv_channel_dims <= self.asv_dim):
            raise ValueError("asv_channel_dims must lie in [0, asv_dim]")
        if self.asv_channel_scale < 0:
            raise ValueError("asv_channel_scale must be non-negative")
        if not (1 <= self.nontarget_neighbors < self.n_speakers):
            raise ValueError("nontarget_neighbors must lie in [1, n_speakers)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class SyntheticDataset:
    """Everything the pipeline needs: inventory, stores, and trial lists."""

    train_records: list
    asv_store: EmbeddingStore
    cm_store: EmbeddingStore
    enrollment: dict
    dev_trials: list
    eval_trials: list


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def _split_three(items, n_dev, n_eval):
    n_train = len(items) - n_dev - n_eval
    return items[:n_train], items[n_train : n_train + n_dev], items[n_train + n_dev :]


def generate_synthetic(config: SynthConfig) -> SyntheticDataset:
    """Deterministically build a synthetic corpus from the configuration."""
    rng = np.random.default_rng(config.seed)
    asv_store = EmbeddingStore(config.asv_dim, "asv")
    cm_store = EmbeddingStore(config.cm_dim, "cm")
    half = 0.5 * config.cm_separation
    cm_bona_mean = np.zeros(config.cm_dim)
    cm_bona_mean[0] = half
    cm_spoof_mean = -cm_bona_mean

    speakers = [f"S{i:04d}" for i in range(config.n_speakers)]
    bona_ids = {}
    spoof_ids = {}
    def draw_asv(mean, scale):
        noise = scale * rng.standard_normal(config.asv_dim)
        if config.asv_channel_dims and config.asv_channel_scale > 0:
            noise[: config.asv_channel_dims] += (
                config.asv_channel_scale * rng.standard_normal(config.asv_channel_dims)
            )
        return _unit(mean + noise)

    for speaker in speakers:
        mean = _unit(rng.standard_normal(config.asv_dim))
        trait = config.cm_speaker_scale * _unit(rng.standard_normal(config.cm_dim))
        ids = []
        for i in range(config.utts_per_speaker):
            utt = f"{speaker}_B{i:03d}"
            asv = draw_asv(mean, config.asv_noise)
            cm = cm_bona_mean + trait + rng.standard_normal(config.cm_dim)
            asv_store.add(utt, asv)
            cm_store.add(utt, cm)
            ids.append(utt)
        bona_ids[speaker] = ids
        ids = []
        for i in range(config.spoofs_per_speaker):
            utt = f"{speaker}_F{i:03d}"
            asv = draw_asv(mean, config.spoof_asv_spread)
            cm = cm_spoof_mean + trait + rng.standard_normal(config.cm_dim)
            asv_store.add(utt, asv)
            cm_store.add(utt, cm)
            ids.append(utt)
        spoof_ids[speaker] = ids

    # bonafide audio: enrollment first, then a train pool, then dev/eval tests
    n_free = config.utts_per_speaker - config.enroll_per_speaker
    n_dev_b = n_eval_b = max(1, n_free // 4)
    n_dev_s = n_eval_s = max(1, config.spoofs_per_speaker // 4)

    train_records = []
    enrollment = {}
    dev_trials = []
    eval_trials = []
    splits = {}
    for speaker in speakers:
        utts = bona_ids[speaker]
        enrollment[speaker] = tuple(utts[: config.enroll_per_speaker])
        train_b, dev_b, eval_b = _split_three(
            utts[config.enroll_per_speaker :], n_dev_b, n_eval_b
        )
        train_s, dev_s, eval_s = _split_three(spoof_ids[speaker], n_dev_s, n_eval_s)
        splits[speaker] = (dev_b, eval_b, dev_s, eval_s)
        for utt in train_b:
            train_records.append(UtteranceRecord(utt, speaker, "bonafide", None))
        for k, utt in enumerate(train_s):
            train_records.append(
                UtteranceRecord(utt, speaker, "spoof", f"A{1 + k % 3:02d}")
            )

    for part, trials in (("dev", dev_trials), ("eval", eval_trials)):
        for idx, speaker in enumerate(speakers):
            dev_b, eval_b, dev_s, eval_s = splits[speaker]
            own_bona = dev_b if part == "dev" else eval_b
            own_spoof = dev_s if part == "dev" else eval_s
            enroll = enrollment[speaker]
            for utt in own_bona:
                trials.append(TrialRecord(speaker, enroll, utt, "target"))
            for step in range(1, config.nontarget_neighbors + 1):
                other = speakers[(idx + step) % len(speakers)]
                other_b = splits[other][0] if part == "dev" else splits[other][1]
                for utt in other_b:
                    trials.append(TrialRecord(speaker, enroll, utt, "nontarget"))
            for utt in own_spoof:
                trials.append(TrialRecord(speaker, enroll, utt, "spoof"))

    return SyntheticDataset(
        train_records=train_records,
        asv_store=asv_store,
        cm_store=cm_store,
        enrollment=enrollment,
        dev_trials=dev_trials,
        eval_trials=eval_trials,
    )
