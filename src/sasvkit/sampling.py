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

from .data import EmbeddingStore, TrialList, UtteranceRecord

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
    dev_trials: TrialList
    eval_trials: TrialList


_DRAW_BLOCK = 4096  # utterances per draw: bounds the float64 temporaries


def _block_speakers(config: SynthConfig) -> int:
    """Speakers per draw: those of about _DRAW_BLOCK utterances, at least one."""
    return max(1, _DRAW_BLOCK // (config.utts_per_speaker + config.spoofs_per_speaker))


def _channel_dims(config: SynthConfig) -> int:
    """Coordinates that draw channel noise: none when its scale is zero."""
    return config.asv_channel_dims if config.asv_channel_scale > 0 else 0


def _normals_per_speaker(config: SynthConfig) -> int:
    utterances = config.utts_per_speaker + config.spoofs_per_speaker
    per_utterance = config.asv_dim + _channel_dims(config) + config.cm_dim
    return config.asv_dim + config.cm_dim + utterances * per_utterance


def synth_bytes(config: SynthConfig) -> int:
    """Bytes of ``generate_synthetic``'s largest arrays: its two float32
    stores and one float64 draw block, whose other temporaries are smaller."""
    rows = config.n_speakers * (config.utts_per_speaker + config.spoofs_per_speaker)
    block = min(config.n_speakers, _block_speakers(config))
    return 4 * rows * (config.asv_dim + config.cm_dim) + 8 * block * _normals_per_speaker(config)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Divide every row of ``x`` (any leading axes) by its norm, in place.

    The norm is ``sqrt(row @ row)``: a (1, d) @ (d, 1) matmul runs the BLAS
    dot that ``np.linalg.norm`` runs on one vector, so every row gets the bits
    of ``row / np.linalg.norm(row)``. A norm along an axis sums in another
    order and differs in the last bit. A row whose squares overflow has an
    inf norm, and dividing by it would leave a zero row: that is refused too.
    """
    norms = np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0]
    if not norms.all():
        raise ValueError("cannot normalize a zero vector")
    if not np.isfinite(norms).all():
        raise ValueError("cannot normalize a vector whose norm overflows")
    x /= norms
    return x


def _draw_embeddings(config: SynthConfig, rng: np.random.Generator) -> tuple:
    """The float32 ASV and CM matrices, one row per utterance.

    Row ``s * (utts_per_speaker + spoofs_per_speaker) + i`` is utterance i of
    speaker s, its bonafide utterances first. Each block of speakers takes one
    ``standard_normal`` call; the generator fills it in order, so the stream
    is the one that drawing vector by vector would take: per speaker its ASV
    mean direction and its CM trait, then per utterance its ASV noise, its
    channel noise and its CM noise.
    """
    n_bona, n_spoof = config.utts_per_speaker, config.spoofs_per_speaker
    per_speaker = n_bona + n_spoof
    a, c, channel = config.asv_dim, config.cm_dim, _channel_dims(config)
    # per utterance of a speaker: its ASV noise scale and its CM cluster mean
    noise_scale = np.repeat([config.asv_noise, config.spoof_asv_spread], [n_bona, n_spoof])
    cm_bona_mean = np.zeros(c)
    cm_bona_mean[0] = 0.5 * config.cm_separation
    cm_means = np.repeat([cm_bona_mean, -cm_bona_mean], [n_bona, n_spoof], axis=0)
    asv = np.empty((config.n_speakers * per_speaker, a), dtype=np.float32)
    cm = np.empty((config.n_speakers * per_speaker, c), dtype=np.float32)
    block = _block_speakers(config)
    for first in range(0, config.n_speakers, block):
        n = min(block, config.n_speakers - first)
        draw = rng.standard_normal(n * _normals_per_speaker(config)).reshape(n, -1)
        rows = slice(first * per_speaker, (first + n) * per_speaker)
        utterances = draw[:, a + c :].reshape(n, per_speaker, -1)
        noise, channel_noise, cm_noise = np.split(utterances, [a, a + channel], axis=2)
        # a setting large enough to overflow leaves non-finite rows, which the
        # stores refuse
        with np.errstate(over="ignore", invalid="ignore"):
            means = _unit_rows(draw[:, :a])
            traits = config.cm_speaker_scale * _unit_rows(draw[:, a : a + c])
            noise *= noise_scale[:, None]
            noise[..., :channel] += config.asv_channel_scale * channel_noise
            noise += means[:, None]
            asv[rows].reshape(noise.shape)[...] = _unit_rows(noise)
            cm_noise += cm_means + traits[:, None]  # (cluster mean + trait) + noise
            cm[rows].reshape(cm_noise.shape)[...] = cm_noise
    return asv, cm


def generate_synthetic(config: SynthConfig) -> SyntheticDataset:
    """Deterministically build a synthetic corpus from the configuration."""
    rng = np.random.default_rng(config.seed)
    n_bona, n_spoof = config.utts_per_speaker, config.spoofs_per_speaker
    per_speaker = n_bona + n_spoof
    speakers = [f"S{i:04d}" for i in range(config.n_speakers)]
    suffixes = [f"_B{i:03d}" for i in range(n_bona)] + [f"_F{i:03d}" for i in range(n_spoof)]
    ids = [speaker + suffix for speaker in speakers for suffix in suffixes]
    asv, cm = _draw_embeddings(config, rng)
    asv_store = EmbeddingStore._from_matrix("asv", ids, asv)
    cm_store = EmbeddingStore._from_matrix("cm", ids, cm)

    # bonafide audio: enrollment first, then a train pool, then dev/eval tests;
    # spoofed audio: a train pool, then dev/eval tests
    n_enroll = config.enroll_per_speaker
    n_test_b = max(1, (n_bona - n_enroll) // 4)  # each of dev and eval
    n_test_s = max(1, n_spoof // 4)
    n_train_b = n_bona - n_enroll - 2 * n_test_b
    n_train_s = n_spoof - 2 * n_test_s
    systems = [f"A{1 + k % 3:02d}" for k in range(n_train_s)]
    enrollment = {}
    train_records = []
    for s, speaker in enumerate(speakers):
        own = ids[s * per_speaker : (s + 1) * per_speaker]
        enrollment[speaker] = tuple(own[:n_enroll])
        train_records += [UtteranceRecord(utt, speaker, "bonafide", None)
                          for utt in own[n_enroll : n_enroll + n_train_b]]
        train_records += [UtteranceRecord(utt, speaker, "spoof", system)
                          for utt, system in zip(own[n_bona:], systems)]

    id_array = np.array(ids)
    speaker_rows = np.arange(config.n_speakers)[:, None]
    neighbors = (speaker_rows + np.arange(1, config.nontarget_neighbors + 1)) % config.n_speakers
    # codes 0, 1, 2: target, nontarget, spoof, the order of TRIAL_LABELS
    codes = np.repeat(np.arange(3, dtype=np.int8),
                      [n_test_b, config.nontarget_neighbors * n_test_b, n_test_s])
    enrolled = np.repeat(speakers, len(codes)).tolist()

    def trial_list(part: int) -> TrialList:
        """Per speaker: its own bonafide tests, its neighbors' and its own spoofs."""
        bona = n_enroll + n_train_b + part * n_test_b + np.arange(n_test_b)
        spoof = n_bona + n_train_s + part * n_test_s + np.arange(n_test_s)
        rows = np.hstack([
            speaker_rows * per_speaker + bona,
            (neighbors[..., None] * per_speaker + bona).reshape(config.n_speakers, -1),
            speaker_rows * per_speaker + spoof,
        ])
        return TrialList.from_columns(enrolled, id_array[rows.ravel()].tolist(),
                                      np.tile(codes, config.n_speakers), enrollment)

    return SyntheticDataset(
        train_records=train_records,
        asv_store=asv_store,
        cm_store=cm_store,
        enrollment=enrollment,
        dev_trials=trial_list(0),
        eval_trials=trial_list(1),
    )
