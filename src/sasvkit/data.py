"""Embedding stores and protocol / trial-list file handling.

Two embedding kinds flow through the pipeline: speaker-verification ("asv")
embeddings and countermeasure ("cm") embeddings. Stores keep one vector per
utterance id. On disk a store is either a small binary format (magic
``SASVEMB1``, little-endian, single-precision vectors) or a TSV file with the
utterance id followed by the vector components. A store holds its vectors in
single precision, the precision of the binary format, so that the binary round
trip is bit-exact; it hands them out in double precision.

Protocol files use the ASVspoof layout: five whitespace-separated columns
``speaker utterance _ system key``. Trial lists carry three columns
``enroll_speaker test_utterance label`` and are resolved against a separate
enrollment map ``speaker utt1,utt2,...``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STORE_MAGIC = b"SASVEMB1"
STORE_KINDS = ("asv", "cm")
SPOOF_KEYS = ("bonafide", "spoof")
TRIAL_LABELS = ("target", "nontarget", "spoof")


@dataclass(frozen=True)
class UtteranceRecord:
    """One protocol row: an utterance, its speaker, and its spoofing status."""

    utterance_id: str
    speaker_id: str
    spoof_key: str
    system_id: str | None = None

    def __post_init__(self):
        if self.spoof_key not in SPOOF_KEYS:
            raise ValueError(f"spoof_key must be one of {SPOOF_KEYS}, got {self.spoof_key!r}")
        if not self.utterance_id or not self.speaker_id:
            raise ValueError("utterance_id and speaker_id must be non-empty")

    @property
    def is_bonafide(self) -> bool:
        return self.spoof_key == "bonafide"


@dataclass(frozen=True)
class TrialRecord:
    """A verification trial: enrolled speaker vs. one test utterance."""

    enroll_speaker_id: str
    enroll_utterance_ids: tuple
    test_utterance_id: str
    label: str

    def __post_init__(self):
        object.__setattr__(self, "enroll_utterance_ids", tuple(self.enroll_utterance_ids))
        if not self.enroll_utterance_ids:
            raise ValueError("a trial needs at least one enrollment utterance")
        if self.label not in TRIAL_LABELS:
            raise ValueError(f"label must be one of {TRIAL_LABELS}, got {self.label!r}")


def _to_float32(values: np.ndarray) -> np.ndarray:
    """``values`` as float32; a value beyond float32's range becomes inf, quietly.

    Stores check finiteness after this cast, so such a value is refused as
    non-finite instead of being stored as inf.
    """
    with np.errstate(over="ignore"):
        return values.astype(np.float32, copy=False)


class EmbeddingStore:
    """Mapping from utterance id to a fixed-dimension embedding vector.

    The vectors are the rows of one float32 matrix, the precision of the
    binary file format, found through an id -> row dict, so gathering any set
    of ids is one fancy index. A store loaded from a binary file of
    fixed-width records keeps its matrix as a read-only view into the file's
    bytes; ``add`` then grows the rows into a new array. ``matrix`` and
    ``mean_vector`` return float64; ``get`` and ``items`` return read-only
    float32 rows.
    """

    def __init__(self, dim: int, kind: str):
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        if kind not in STORE_KINDS:
            raise ValueError(f"kind must be one of {STORE_KINDS}, got {kind!r}")
        self.dim = int(dim)
        self.kind = kind
        self._rows: dict[str, int] = {}
        # rows past len(self) are spare capacity
        self._matrix = np.empty((0, self.dim), dtype=np.float32)

    @classmethod
    def _from_matrix(cls, kind: str, utterance_ids: list, matrix: np.ndarray) -> "EmbeddingStore":
        """A store whose row i is ``matrix[i]`` under ``utterance_ids[i]``.

        Applies the checks of ``add`` to all rows at once and reports the
        first offending row of each kind.
        """
        store = cls(matrix.shape[1], kind)
        if "" in utterance_ids:
            raise ValueError("utterance id must be non-empty")
        store._rows = dict(zip(utterance_ids, range(len(utterance_ids))))
        if len(store._rows) != len(utterance_ids):
            seen = set()
            for utterance_id in utterance_ids:
                if utterance_id in seen:
                    raise ValueError(f"duplicate utterance id {utterance_id!r}")
                seen.add(utterance_id)
        stored = _to_float32(matrix)
        # min and max are nan or inf exactly when some value is, and build no
        # store-sized mask; the offending row is looked for only on failure
        if stored.size and not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
            first = utterance_ids[int(np.argmin(np.isfinite(stored).all(axis=1)))]
            raise ValueError(f"vector for {first!r} contains non-finite values")
        store._matrix = stored
        return store

    def add(self, utterance_id: str, vector) -> None:
        if not utterance_id:
            raise ValueError("utterance id must be non-empty")
        if utterance_id in self._rows:
            raise ValueError(f"duplicate utterance id {utterance_id!r}")
        arr = _to_float32(np.asarray(vector, dtype=np.float64))
        if arr.shape != (self.dim,):
            raise ValueError(
                f"vector for {utterance_id!r} has shape {arr.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"vector for {utterance_id!r} contains non-finite values")
        row = len(self._rows)
        if row == len(self._matrix):
            grown = np.empty((max(16, 2 * row), self.dim), dtype=np.float32)
            grown[:row] = self._matrix[:row]
            self._matrix = grown
        self._matrix[row] = arr
        self._rows[utterance_id] = row

    def _vectors(self) -> np.ndarray:
        """Read-only view of the stored rows, in insertion order."""
        view = self._matrix[: len(self._rows)]
        view.flags.writeable = False
        return view

    def get(self, utterance_id: str) -> np.ndarray:
        try:
            row = self._rows[utterance_id]
        except KeyError:
            raise KeyError(f"utterance {utterance_id!r} not in {self.kind} store") from None
        return self._vectors()[row]

    def __contains__(self, utterance_id: str) -> bool:
        return utterance_id in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def ids(self) -> list:
        return list(self._rows)

    def items(self) -> list:
        return list(zip(self._rows, self._vectors()))

    def index(self, utterance_ids) -> np.ndarray:
        """Row numbers of the given ids, in order; reports all missing ids at once."""
        rows = self._rows
        try:
            index = [rows[u] for u in utterance_ids]
        except KeyError:
            missing = [u for u in utterance_ids if u not in rows]
            raise KeyError(
                f"{len(missing)} utterance(s) missing from {self.kind} store: "
                + ", ".join(sorted(missing)[:10])
                + ("..." if len(missing) > 10 else "")
            ) from None
        return np.array(index, dtype=np.intp)

    def matrix(self, utterance_ids) -> np.ndarray:
        """Rows for the given ids as float64, in order; reports all missing ids at once."""
        return self._matrix[self.index(utterance_ids)].astype(np.float64)

    def mean_vector(self) -> np.ndarray:
        """Store-wide mean, used as the zero-information stand-in vector."""
        if not self._rows:
            raise ValueError(f"{self.kind} store is empty")
        return np.mean(self._vectors(), axis=0, dtype=np.float64)


def enrollment_embedding(store: EmbeddingStore, utterance_ids) -> np.ndarray:
    """Arithmetic mean of the enrollment utterances' vectors."""
    ids = list(utterance_ids)
    if not ids:
        raise ValueError("enrollment needs at least one utterance id")
    return store.matrix(ids).mean(axis=0)


_WRITE_BLOCK = 4096  # records per write: bounds the temporary buffers


def write_embedding_store(store: EmbeddingStore, path, fmt: str = "binary") -> None:
    path = Path(path)
    if fmt == "binary":
        ids = store.ids()
        rows = store._vectors()
        vec_bytes = 4 * store.dim
        with open(path, "wb") as fh:
            fh.write(STORE_MAGIC + struct.pack("<II", store.dim, len(store)))
            for start in range(0, len(ids), _WRITE_BLOCK):
                vectors = memoryview(rows[start : start + _WRITE_BLOCK].astype("<f4").tobytes())
                parts = []
                for row, utt_id in enumerate(ids[start : start + _WRITE_BLOCK]):
                    encoded = utt_id.encode("utf-8")
                    if len(encoded) > 0xFFFF:
                        raise ValueError(f"utterance id too long: {utt_id!r}")
                    parts += (len(encoded).to_bytes(2, "little"), encoded,
                              vectors[row * vec_bytes : (row + 1) * vec_bytes])
                fh.write(b"".join(parts))
    elif fmt == "tsv":
        with open(path, "w", encoding="utf-8") as fh:
            for utt_id, vec in store.items():
                fh.write(utt_id + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")
    else:
        raise ValueError(f"unknown store format {fmt!r}")


def _load_binary_store(raw: bytes, kind: str) -> EmbeddingStore:
    if raw[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise ValueError("bad magic bytes: not an embedding store")
    offset = len(STORE_MAGIC)
    if len(raw) < offset + 8:
        raise ValueError("truncated store header")
    dim, count = struct.unpack_from("<II", raw, offset)
    offset += 8
    empty = EmbeddingStore(dim, kind)  # rejects a zero dimension
    vec_bytes = 4 * dim
    # every record takes at least its length field and its vector: a count
    # the file cannot hold is rejected before anything is allocated for it
    if count * (2 + vec_bytes) > len(raw) - offset:
        raise ValueError(
            f"truncated store: header declares {count} records of dimension {dim}, "
            f"but only {len(raw) - offset} bytes follow"
        )
    fixed = _fixed_width_records(raw, offset, count, vec_bytes)
    if fixed is not None:
        return EmbeddingStore._from_matrix(kind, *fixed)
    ids = []
    starts = []  # byte offset of each record's vector
    for i in range(count):
        if len(raw) < offset + 2:
            raise ValueError(f"truncated store: record {i} header missing")
        id_end = offset + 2 + (raw[offset] | raw[offset + 1] << 8)
        if len(raw) < id_end + vec_bytes:
            raise ValueError(f"truncated store: record {i} incomplete")
        try:
            ids.append(raw[offset + 2 : id_end].decode("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"store record {i}: utterance id is not UTF-8") from None
        starts.append(id_end)
        offset = id_end + vec_bytes
    if offset != len(raw):
        raise ValueError("trailing bytes after last store record")
    if not count:
        return empty
    # one gather: row r of the window view is the vec_bytes bytes from offset r
    windows = np.lib.stride_tricks.sliding_window_view(
        np.frombuffer(raw, dtype=np.uint8), vec_bytes
    )
    vectors = windows[np.array(starts, dtype=np.intp)].view("<f4")
    return EmbeddingStore._from_matrix(kind, ids, vectors)


def _fixed_width_records(raw: bytes, offset: int, count: int, vec_bytes: int):
    """The ids and the vector matrix of records whose ids all have one length.

    Applies when the records from ``offset`` to the end of ``raw`` all have
    the first record's id length and every id is ASCII. Returns None
    otherwise, and the record-by-record loop then names what is wrong. The
    matrix is a strided, read-only view into ``raw``, so a loaded store holds
    one buffer of about the file's size.
    """
    if not count:
        return None
    width = raw[offset] | raw[offset + 1] << 8
    record = 2 + width + vec_bytes
    if len(raw) - offset != count * record:
        return None
    body = np.frombuffer(raw, np.uint8, count * record, offset).reshape(count, record)
    lengths = np.ndarray((count,), "<u2", raw, offset, (record,))
    if not (lengths == width).all():
        return None
    encoded = body[:, 2 : 2 + width].tobytes()
    if not encoded.isascii():
        return None
    text = encoded.decode("ascii")
    ids = [text[i * width : (i + 1) * width] for i in range(count)]
    return ids, body[:, 2 + width :].view("<f4")


def _load_tsv_store(text: str, kind: str) -> EmbeddingStore:
    store = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ValueError(f"line {lineno}: expected an id and at least one component")
        try:
            vec = np.array([float(v) for v in fields[1:]])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric embedding component") from None
        if store is None:
            store = EmbeddingStore(len(fields) - 1, kind)
        if len(fields) - 1 != store.dim:
            raise ValueError(
                f"line {lineno}: dimension {len(fields) - 1} differs from first row ({store.dim})"
            )
        try:
            store.add(fields[0], vec)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if store is None:
        raise ValueError("empty embedding store file")
    return store


def _decode(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None


def read_text(path) -> str:
    """A UTF-8 text file's contents; an error names the file and the first bad byte."""
    return _decode(Path(path).read_bytes(), path)


def load_embedding_store(path, kind: str) -> EmbeddingStore:
    """Load a store from disk, sniffing binary vs. TSV by the magic bytes."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(STORE_MAGIC)] == STORE_MAGIC:
        return _load_binary_store(raw, kind)
    return _load_tsv_store(_decode(raw, path), kind)


def parse_cm_protocol(text: str) -> list:
    """Parse a five-column ASVspoof protocol into utterance records."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(fields)}")
        speaker, utt, _, system, key = fields
        records.append(
            UtteranceRecord(
                utterance_id=utt,
                speaker_id=speaker,
                spoof_key="bonafide" if key == "bonafide" else "spoof",
                system_id=None if system == "-" else system,
            )
        )
    return records


def write_protocol(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            system = rec.system_id if rec.system_id is not None else "-"
            fh.write(f"{rec.speaker_id} {rec.utterance_id} - {system} {rec.spoof_key}\n")


def parse_enrollment_map(text: str) -> dict:
    """Parse ``speaker utt1,utt2,...`` lines into a speaker -> ids mapping."""
    mapping: dict[str, tuple] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'speaker utt1,utt2,...'")
        speaker, utts = fields
        if speaker in mapping:
            raise ValueError(f"line {lineno}: duplicate speaker {speaker!r}")
        ids = tuple(u for u in utts.split(",") if u)
        if not ids:
            raise ValueError(f"line {lineno}: speaker {speaker!r} has no utterances")
        mapping[speaker] = ids
    return mapping


def write_enrollment_map(mapping: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for speaker, ids in mapping.items():
            fh.write(f"{speaker} {','.join(ids)}\n")


_LABEL_CODES = {label: i for i, label in enumerate(TRIAL_LABELS)}


def _distinct(values) -> tuple:
    """The distinct values in first-appearance order, and each value's index."""
    distinct = list(dict.fromkeys(values))
    position = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(position.__getitem__, values), np.intp, len(values))


class TrialList(Sequence):
    """A trial list held as columns.

    ``enrollments`` holds the distinct (speaker, utterance tuple) pairs and
    ``test_ids`` the distinct test utterances, each in order of first
    appearance. Trial ``i`` pairs ``enrollments[enroll_index[i]]`` with
    ``test_ids[test_index[i]]`` under label ``TRIAL_LABELS[label_codes[i]]``.
    It reads as a sequence of TrialRecords, built on demand.
    """

    def __init__(self, enrollments: list, test_ids: list, enroll_index: np.ndarray,
                 test_index: np.ndarray, label_codes: np.ndarray):
        self.enrollments = enrollments
        self.test_ids = test_ids
        self.enroll_index = enroll_index
        self.test_index = test_index
        self.label_codes = label_codes

    @classmethod
    def from_columns(cls, speakers: list, tests: list, label_codes: np.ndarray,
                     enrollment_map: dict) -> "TrialList":
        """The trials whose enrolled speakers, test utterances and label codes
        are ``speakers``, ``tests`` and ``label_codes``.

        Each distinct speaker is resolved against ``enrollment_map``; an error
        names the first one that is missing or has no utterances.
        """
        distinct, enroll_index = _distinct(speakers)
        enrollments = []
        for speaker in distinct:
            if speaker not in enrollment_map:
                raise ValueError(f"speaker {speaker!r} missing from the enrollment map")
            ids = tuple(enrollment_map[speaker])
            if not ids:
                raise ValueError("a trial needs at least one enrollment utterance")
            enrollments.append((speaker, ids))
        test_ids, test_index = _distinct(tests)
        return cls(enrollments, test_ids, enroll_index, test_index, label_codes)

    @classmethod
    def from_records(cls, records) -> "TrialList":
        records = list(records)
        enrollments, enroll_index = _distinct(
            [(t.enroll_speaker_id, t.enroll_utterance_ids) for t in records])
        test_ids, test_index = _distinct([t.test_utterance_id for t in records])
        codes = np.fromiter((_LABEL_CODES[t.label] for t in records), np.int8, len(records))
        return cls(enrollments, test_ids, enroll_index, test_index, codes)

    def __len__(self) -> int:
        return len(self.label_codes)

    def __getitem__(self, i):
        speaker, ids = self.enrollments[self.enroll_index[i]]
        return TrialRecord(speaker, ids, self.test_ids[self.test_index[i]],
                           TRIAL_LABELS[self.label_codes[i]])

    def __iter__(self):
        for e, k, c in zip(self.enroll_index.tolist(), self.test_index.tolist(),
                           self.label_codes.tolist()):
            speaker, ids = self.enrollments[e]
            yield TrialRecord(speaker, ids, self.test_ids[k], TRIAL_LABELS[c])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def enroll_speakers(self) -> list:
        """The enrolled speaker of each trial."""
        speakers = np.array([speaker for speaker, _ in self.enrollments], dtype=object)
        return speakers[self.enroll_index].tolist()

    def test_utterances(self) -> list:
        """The test utterance of each trial."""
        return np.array(self.test_ids, dtype=object)[self.test_index].tolist()


def _text_columns(text: str, width: int):
    """The fields of ``width``-field lines as ``width`` columns, blank lines skipped.

    Returns None if some line has another number of fields.
    """
    if not set(map(len, map(str.split, text.splitlines()))) <= {0, width}:
        return None
    # every line break is whitespace, so the text's fields are the lines' fields
    fields = text.split()
    return [fields[i::width] for i in range(width)]


def _check_trial_lines(text: str) -> None:
    """Raise for the first malformed line of a trial list."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(fields)}")
        if fields[2] not in TRIAL_LABELS:
            raise ValueError(
                f"line {lineno}: label must be one of {TRIAL_LABELS}, got {fields[2]!r}"
            )


def parse_trial_list(text: str, enrollment_map: dict) -> TrialList:
    """Parse ``enroll_speaker test_utterance label`` lines into a TrialList.

    Every line is checked before any speaker is resolved against the
    enrollment map; errors name the first offending line or speaker.
    """
    columns = _text_columns(text, 3)
    if columns is None or not set(columns[2]) <= _LABEL_CODES.keys():
        _check_trial_lines(text)
    speakers, tests, labels = columns
    codes = np.fromiter(map(_LABEL_CODES.__getitem__, labels), np.int8, len(labels))
    return TrialList.from_columns(speakers, tests, codes, enrollment_map)


def write_trial_list(trials, path) -> None:
    """Write ``enroll_speaker test_utterance label`` lines, in one write.

    ``trials`` is a TrialList or any iterable of TrialRecords.
    """
    if not isinstance(trials, TrialList):
        trials = TrialList.from_records(trials)
    labels = map(TRIAL_LABELS.__getitem__, trials.label_codes.tolist())
    lines = zip(trials.enroll_speakers(), trials.test_utterances(), labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{speaker} {test} {label}\n" for speaker, test, label in lines))
