"""Training-pair and triplet sampling, plus a synthetic embedding generator.

Score-fusion training draws enroll/test pairs from four scenarios (bonafide
same-speaker, bonafide different-speaker, spoofed same-speaker, spoofed
different-speaker) at the ratio 3 : 1.66 : 1 : 1. Scenario counts come from
largest-remainder apportionment, so a request for 2000 pairs yields exactly
(901, 499, 300, 300) every time. A pair is labeled target only when the test
side is a bonafide utterance of the enrolled speaker; the speaker-match label
is positive for both same-speaker scenarios, spoofed or not. Enrollment sides
are always bonafide. Metric learning draws anchor/positive/negative triplets.

Both samplers return integer arrays of protocol row numbers plus a scenario
or negative-kind code, one draw per row; the trainers map rows to utterance
ids once and gather embeddings by them. Each speaker's utterances are one
contiguous block of a flat pool, so every draw is a weighted speaker choice
by a search in a running sum, then a position within the chosen choices.
Pairs draw a whole scenario at once; triplets loop, because each triplet's
later draws are bounded by its speaker.

The synthetic generator mimics the score geometry this pipeline is built for:
spoofed ASV embeddings scatter around the attacked speaker's mean direction
with a wider spread than bonafide ones, and CM embeddings fall into two
Gaussian clusters (bonafide vs. spoof) regardless of speaker.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .data import EmbeddingStore, TrialRecord, UtteranceRecord

PAIR_SCENARIOS = ("bonafide-same", "bonafide-diff", "spoof-same", "spoof-diff")
PAIR_SCENARIO_WEIGHTS = (3.0, 1.66, 1.0, 1.0)
NEGATIVE_KINDS = ("same-speaker-spoof", "other-speaker-bonafide")


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


class _Pool(NamedTuple):
    """Protocol rows of one class, bonafide or spoof, grouped by speaker.

    Speaker s owns ``rows[start[s] : start[s] + count[s]]``. Speakers come in
    order of first appearance in the protocol, and so do the rows within a
    speaker. Both pools of a protocol list the same speakers.
    """

    rows: np.ndarray
    start: np.ndarray
    count: np.ndarray


def _pools(records) -> tuple:
    """The bonafide and the spoof _Pool of a protocol."""
    speakers = {}
    for row, rec in enumerate(records):
        bona, spoof = speakers.setdefault(rec.speaker_id, ([], []))
        (bona if rec.is_bonafide else spoof).append(row)
    pools = []
    for side in (0, 1):
        groups = [lists[side] for lists in speakers.values()]
        count = np.array([len(g) for g in groups], dtype=np.intp)
        rows = np.array([row for g in groups for row in g], dtype=np.intp)
        pools.append(_Pool(rows, np.cumsum(count) - count, count))
    return tuple(pools)


# why a pair scenario has no pair to draw, by scenario code
_UNSATISFIABLE = (
    "no speaker has two bonafide utterances",
    "need bonafide audio from two speakers",
    "no speaker has both bonafide and spoofed utterances",
    "need spoofed audio attributed to a different speaker",
)


def _draw(rng, n: int, enroll_count, test_count) -> tuple:
    """``n`` uniform draws over all (speaker, enroll, test) choices.

    Speaker s offers ``enroll_count[s] * test_count[s]`` choices; the total
    must be positive. Returns the speaker, the enroll position and the test
    position of each draw. A speaker without choices adds nothing to the
    running sum, so ``searchsorted(side="right")`` never lands on it.
    """
    weights = enroll_count * test_count
    cumulative = np.cumsum(weights)
    k = rng.integers(cumulative[-1], size=n)
    speaker = np.searchsorted(cumulative, k, side="right")
    i, j = np.divmod(k - cumulative[speaker] + weights[speaker], test_count[speaker])
    return speaker, i, j


def sample_training_pairs(records, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` pairs at the fixed scenario ratio, uniform within scenario.

    Returns a ``(count, 3)`` intp array, one pair a row: the enroll row and
    the test row of ``records``, and the index of the pair's scenario in
    ``PAIR_SCENARIOS``. Rows are grouped by scenario in that order. The
    labels follow from the code: the speakers match when it is even, and the
    pair is a target only for code 0 (bonafide-same).

    Each scenario's pairs take one vectorised draw, one bounded integer per
    pair, which yields the same integers and leaves ``rng`` in the same state
    as drawing them one at a time. A scenario raises ValueError only when it
    gets a pair but has none to draw.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    bona, spoof = _pools(records)
    counts = apportion_counts(count, PAIR_SCENARIO_WEIGHTS)
    pairs = np.empty((count, 3), dtype=np.intp)
    for code, (n, stop) in enumerate(zip(counts, itertools.accumulate(counts))):
        if n == 0:
            continue
        pool = bona if code < 2 else spoof
        same = code % 2 == 0
        if same:  # the speaker's own utterances, but for bonafide-same the enroll one
            test_count = pool.count - 1 if code == 0 else pool.count
        else:
            test_count = len(pool.rows) - pool.count
        if not np.any(bona.count * test_count):
            raise ValueError(f"scenario {PAIR_SCENARIOS[code]} is unsatisfiable: "
                             f"{_UNSATISFIABLE[code]}")
        speaker, i, j = _draw(rng, n, bona.count, test_count)
        if same:
            if code == 0:
                j += j >= i  # skip the enroll utterance
            j += pool.start[speaker]
        else:
            # j counts the other speakers' rows: skip the speaker's own block
            j += np.where(j >= pool.start[speaker], pool.count[speaker], 0)
        block = pairs[stop - n : stop]
        block[:, 0] = bona.rows[bona.start[speaker] + i]
        block[:, 1] = pool.rows[j]
        block[:, 2] = code
    return pairs


def sample_triplets(records, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw anchor/positive/negative triplets for metric learning.

    Anchor and positive are distinct bonafide utterances of one speaker. The
    negative is either a spoof aimed at that speaker or another speaker's
    bonafide utterance, with an even draw between the kinds whenever both are
    available. Returns a ``(count, 4)`` intp array, one triplet a row: the
    anchor, positive and negative rows of ``records``, and the index of the
    negative's kind in ``NEGATIVE_KINDS``.

    Unlike pairs, triplets are drawn one at a time: the bound of a triplet's
    kind draw and of its negative draw depend on its speaker draw, so a
    vectorised draw would change the stream.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    bona, spoof = _pools(records)
    total_bona = len(bona.rows)
    bona_rows, bona_start, bona_count = (a.tolist() for a in bona)
    spoof_rows, spoof_start, spoof_count = (a.tolist() for a in spoof)
    # each speaker's available negative kinds, as codes into NEGATIVE_KINDS
    kinds = [((0,) if n_spoof else ()) + ((1,) if total_bona > n_bona else ())
             for n_bona, n_spoof in zip(bona_count, spoof_count)]
    weights = [n * (n - 1) if k else 0 for n, k in zip(bona_count, kinds)]
    cumulative = list(itertools.accumulate(weights))
    if not any(weights):
        raise ValueError(
            "no speaker with two bonafide utterances and an available negative"
        )
    triplets = np.empty((count, 4), dtype=np.intp)
    for t in range(count):
        k = int(rng.integers(cumulative[-1]))
        s = bisect.bisect_right(cumulative, k)
        i, j = divmod(k - cumulative[s] + weights[s], bona_count[s] - 1)
        if j >= i:
            j += 1
        kind = kinds[s][int(rng.integers(len(kinds[s])))]
        if kind == 0:
            negative = spoof_rows[spoof_start[s] + int(rng.integers(spoof_count[s]))]
        else:
            r = int(rng.integers(total_bona - bona_count[s]))
            negative = bona_rows[r if r < bona_start[s] else r + bona_count[s]]
        triplets[t] = bona_rows[bona_start[s] + i], bona_rows[bona_start[s] + j], negative, kind
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
