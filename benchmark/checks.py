"""Correctness checks on the files the commands write.

The readers here are independent of sasvkit: they parse the binary store,
enrollment map, trial list and score file themselves, so a defect in the
package's own parsers cannot hide a wrong score.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

_STORE_MAGIC = b"SASVEMB1"


def read_store(path) -> tuple:
    """(id -> row index, float64 matrix) from a binary embedding store."""
    raw = Path(path).read_bytes()
    if raw[:8] != _STORE_MAGIC:
        raise ValueError(f"{path}: not a binary embedding store")
    dim, count = struct.unpack_from("<II", raw, 8)
    matrix = np.empty((count, dim), dtype=np.float32)
    index = {}
    offset = 16
    for row in range(count):
        (id_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        index[raw[offset : offset + id_len].decode("utf-8")] = row
        offset += id_len
        matrix[row] = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset)
        offset += 4 * dim
    return index, matrix.astype(np.float64)


def read_enrollment(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            speaker, utts = line.split()
            out[speaker] = tuple(u for u in utts.split(",") if u)
    return out


def read_rows(path) -> list:
    """Whitespace-split rows of a trial list or score file."""
    return [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_scores(path) -> np.ndarray:
    return np.array([float(row[2]) for row in read_rows(path)])


def read_eers(report_csv) -> dict:
    """metric -> EER percent from report.csv."""
    lines = Path(report_csv).read_text(encoding="utf-8").splitlines()[1:]
    return {fields[0]: float(fields[1]) for fields in (l.split(",") for l in lines)}


def same_report(evaluate_dir, report_dir) -> None:
    """``report`` must reproduce ``evaluate``'s EERs and thresholds exactly."""
    for name in ("report.txt", "report.csv", "histogram.csv"):
        a = (Path(evaluate_dir) / name).read_bytes()
        b = (Path(report_dir) / name).read_bytes()
        if a != b:
            raise AssertionError(f"{name} from report differs from evaluate's")


def eer_below(report_csv, metric: str, bound: float) -> None:
    eer = read_eers(report_csv)[metric]
    if not eer < bound:
        raise AssertionError(f"{metric.upper()}-EER {eer:.2f}% is not below {bound}%")


def losses_fall(train_log) -> None:
    """Every epoch loss is finite and the last is below the first."""
    losses = []
    for line in Path(train_log).read_text(encoding="utf-8").splitlines():
        if line.startswith("epoch "):
            losses.append(float(line.split()[-1].split("=", 1)[1]))
    if not losses or not all(math.isfinite(v) for v in losses):
        raise AssertionError(f"non-finite or absent epoch losses: {losses}")
    if len(losses) > 1 and not losses[-1] < losses[0]:
        raise AssertionError(f"last epoch loss {losses[-1]} is not below the first {losses[0]}")


def _enroll_means(index, matrix, enrollment, speakers) -> np.ndarray:
    means = {s: matrix[[index[u] for u in enrollment[s]]].mean(axis=0) for s in set(speakers)}
    return np.stack([means[s] for s in speakers])


def _cosine(a, b) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


def baseline1_matches(corpus, scores_path, tolerance: float = 1e-12) -> None:
    """baseline1 scores equal an independent ASV-cosine plus CM-cosine sum."""
    corpus = Path(corpus)
    asv_index, asv = read_store(corpus / "asv.emb")
    cm_index, cm = read_store(corpus / "cm.emb")
    enrollment = read_enrollment(corpus / "enrollment.txt")
    trials = read_rows(corpus / "trials_eval.txt")
    speakers = [t[0] for t in trials]
    tests = [t[1] for t in trials]
    expected = _cosine(
        _enroll_means(asv_index, asv, enrollment, speakers), asv[[asv_index[u] for u in tests]]
    ) + _cosine(
        _enroll_means(cm_index, cm, enrollment, speakers), cm[[cm_index[u] for u in tests]]
    )
    got = read_scores(scores_path)
    if got.shape != expected.shape:
        raise AssertionError(f"{got.size} scores for {expected.size} trials")
    worst = float(np.max(np.abs(got - expected)))
    if not worst <= tolerance:
        raise AssertionError(f"baseline1 scores deviate by {worst:.3g} > {tolerance}")


def subset_rescores(sasvkit, corpus, checkpoint, scores_path, seed: int,
                    size: int = 64, tolerance: float = 1e-9) -> None:
    """A seeded random subset of trials, re-scored alone, keeps its scores.

    This guards the trial -> row mapping of any batched scoring path: each
    trial must get the score it gets in a call of its own small batch.
    """
    corpus = Path(corpus)
    enrollment = read_enrollment(corpus / "enrollment.txt")
    trials = read_rows(corpus / "trials_eval.txt")
    got = read_scores(scores_path)
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(len(trials), size=min(size, len(trials)), replace=False))
    subset = [
        sasvkit.data.TrialRecord(trials[i][0], enrollment[trials[i][0]], trials[i][1], trials[i][2])
        for i in picks
    ]
    needed = {u for t in subset for u in (t.test_utterance_id, *t.enroll_utterance_ids)}
    stores = []
    for kind in ("asv", "cm"):
        index, matrix = read_store(corpus / f"{kind}.emb")
        store = sasvkit.data.EmbeddingStore(matrix.shape[1], kind)
        for utt in sorted(needed):
            store.add(utt, matrix[index[utt]])
        stores.append(store)
    model = sasvkit.models.load_model(checkpoint)
    rescored = np.array([s.score for s in sasvkit.models.score_trials(model, subset, *stores)])
    worst = float(np.max(np.abs(rescored - got[picks])))
    if not worst <= tolerance:
        raise AssertionError(f"re-scored subset deviates by {worst:.3g} > {tolerance}")
