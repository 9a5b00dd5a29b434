"""Tests for embedding stores and protocol parsing."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sasvkit.data import (
    TRIAL_LABELS,
    EmbeddingStore,
    TrialRecord,
    UtteranceRecord,
    _fixed_width_records,
    enrollment_embedding,
    load_embedding_store,
    parse_cm_protocol,
    parse_enrollment_map,
    parse_trial_list,
    write_embedding_store,
    write_enrollment_map,
    write_protocol,
    write_trial_list,
)

PROTOCOL_SAMPLE = """\
LA_0079 LA_T_1138215 - - bonafide
LA_0079 LA_T_1271820 - A01 spoof
LA_0081 LA_T_1331467 - - bonafide
"""


class TestProtocolParsing:
    def test_basic_rows(self):
        records = parse_cm_protocol(PROTOCOL_SAMPLE)
        assert len(records) == 3
        assert records[0] == UtteranceRecord("LA_T_1138215", "LA_0079", "bonafide", None)
        assert records[1].spoof_key == "spoof"
        assert records[1].system_id == "A01"

    def test_unknown_key_maps_to_spoof(self):
        records = parse_cm_protocol("SPK1 U1 - A07 tts\n")
        assert records[0].spoof_key == "spoof"

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_cm_protocol("S U - - bonafide\nS U - bonafide\n")

    def test_blank_lines_skipped(self):
        records = parse_cm_protocol("\nS U - - bonafide\n\n")
        assert len(records) == 1

    def test_round_trip(self, tmp_path):
        records = parse_cm_protocol(PROTOCOL_SAMPLE)
        out = tmp_path / "protocol.txt"
        write_protocol(records, out)
        assert parse_cm_protocol(out.read_text()) == records


class TestEnrollmentMap:
    def test_parse(self):
        mapping = parse_enrollment_map("SPK1 U1,U2,U3\nSPK2 U9\n")
        assert mapping == {"SPK1": ("U1", "U2", "U3"), "SPK2": ("U9",)}

    def test_duplicate_speaker_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_enrollment_map("S U1\nS U2\n")

    def test_empty_utterances_rejected(self):
        with pytest.raises(ValueError):
            parse_enrollment_map("S ,\n")

    def test_round_trip(self, tmp_path):
        mapping = {"A": ("U1", "U2"), "B": ("U3",)}
        out = tmp_path / "enroll.txt"
        write_enrollment_map(mapping, out)
        assert parse_enrollment_map(out.read_text()) == mapping


class TestTrialList:
    def test_resolution_against_map(self):
        mapping = {"SPK1": ("U1", "U2")}
        trials = parse_trial_list("SPK1 U7 target\nSPK1 U8 spoof\n", mapping)
        assert trials[0] == TrialRecord("SPK1", ("U1", "U2"), "U7", "target")
        assert trials[1].label == "spoof"

    def test_bonafide_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            parse_trial_list("SPK1 U7 bonafide\n", {"SPK1": ("U1",)})

    def test_missing_speaker_rejected(self):
        with pytest.raises(ValueError, match="enrollment map"):
            parse_trial_list("SPK9 U7 target\n", {"SPK1": ("U1",)})

    def test_wrong_columns_named(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trial_list("SPK1 target\n", {"SPK1": ("U1",)})

    def test_round_trip(self, tmp_path):
        mapping = {"A": ("U1",), "B": ("U2",)}
        trials = [
            TrialRecord("A", ("U1",), "T1", "target"),
            TrialRecord("B", ("U2",), "T2", "nontarget"),
        ]
        out = tmp_path / "trials.txt"
        write_trial_list(trials, out)
        assert parse_trial_list(out.read_text(), mapping) == trials

    def test_empty_enrollment_rejected(self):
        with pytest.raises(ValueError):
            TrialRecord("A", (), "T1", "target")


def reference_trial_list(text: str, enrollment_map: dict) -> list:
    """The line-by-line parser that built one TrialRecord per line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(fields)}")
        if fields[2] not in TRIAL_LABELS:
            raise ValueError(
                f"line {lineno}: label must be one of {TRIAL_LABELS}, got {fields[2]!r}"
            )
        rows.append(fields)
    trials = []
    for speaker, test_utt, label in rows:
        if speaker not in enrollment_map:
            raise ValueError(f"speaker {speaker!r} missing from the enrollment map")
        trials.append(TrialRecord(speaker, enrollment_map[speaker], test_utt, label))
    return trials


FUZZ_ENROLLMENT = {"S0": ("U1",), "S1": ("U1", "U2")}
FIELDS = st.sampled_from(
    ["S0", "S1", "S9", "U1", "U2", *TRIAL_LABELS, "bonafide", "0.25", "-1e3", "nan", "\u00fc"]
)
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\u3000"])
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])


def garbled_text(valid_line, fields=FIELDS):
    """Valid lines mixed with lines of any fields, separators and line breaks."""
    line = st.one_of(valid_line, valid_line, st.lists(fields, max_size=5))
    return st.lists(st.tuples(line, SEPARATORS, LINE_BREAKS), max_size=8).map(
        lambda rows: "".join(sep.join(f) + end for f, sep, end in rows))


class TestTrialListColumns:
    def test_columns_hold_distinct_items(self):
        trials = parse_trial_list("S1 T1 target\nS0 T2 spoof\nS1 T2 nontarget\n",
                                  FUZZ_ENROLLMENT)
        assert trials.enrollments == [("S1", ("U1", "U2")), ("S0", ("U1",))]
        assert trials.test_ids == ["T1", "T2"]
        assert trials.enroll_index.tolist() == [0, 1, 0]
        assert trials.test_index.tolist() == [0, 1, 1]
        assert [TRIAL_LABELS[c] for c in trials.label_codes] == ["target", "spoof", "nontarget"]
        assert trials[-1] == TrialRecord("S1", ("U1", "U2"), "T2", "nontarget")
        with pytest.raises(IndexError):
            trials[3]

    @settings(max_examples=300, deadline=None)
    @given(text=garbled_text(st.tuples(st.sampled_from(["S0", "S1"]),
                                       st.sampled_from(["T1", "T2", "U1"]),
                                       st.sampled_from(TRIAL_LABELS))))
    def test_parses_like_the_line_by_line_parser(self, text):
        try:
            expected = reference_trial_list(text, FUZZ_ENROLLMENT)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                parse_trial_list(text, FUZZ_ENROLLMENT)
            assert str(err.value) == str(exc)
            return
        trials = parse_trial_list(text, FUZZ_ENROLLMENT)
        assert len(trials) == len(expected)
        assert [trials[i] for i in range(len(trials))] == expected
        assert list(trials) == expected


def make_store(dim=4, kind="asv", n=5, seed=0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim, kind)
    for i in range(n):
        store.add(f"U{i:03d}", rng.standard_normal(dim))
    return store


class TestEmbeddingStore:
    def test_add_and_get(self):
        store = EmbeddingStore(2, "cm")
        store.add("U1", [0.5, -0.25])
        np.testing.assert_array_equal(store.get("U1"), [0.5, -0.25])
        assert "U1" in store
        assert len(store) == 1

    def test_duplicate_id_rejected(self):
        store = EmbeddingStore(2, "asv")
        store.add("U1", [0.0, 0.0])
        with pytest.raises(ValueError, match="duplicate"):
            store.add("U1", [1.0, 1.0])

    def test_dim_mismatch_rejected(self):
        store = EmbeddingStore(3, "asv")
        with pytest.raises(ValueError):
            store.add("U1", [1.0, 2.0])

    def test_non_finite_rejected(self):
        store = EmbeddingStore(2, "asv")
        with pytest.raises(ValueError):
            store.add("U1", [np.nan, 0.0])

    def test_missing_id_error_names_store_kind(self):
        store = EmbeddingStore(2, "cm")
        with pytest.raises(KeyError, match="cm store"):
            store.get("nope")

    def test_matrix_lists_all_missing(self):
        store = make_store(n=2)
        with pytest.raises(KeyError) as err:
            store.matrix(["U000", "X1", "X2"])
        assert "X1" in str(err.value) and "X2" in str(err.value)

    def test_lookup_is_pure(self):
        store = make_store()
        a = store.get("U001")
        b = store.get("U001")
        np.testing.assert_array_equal(a, b)

    def test_single_precision_rounding_on_insert(self):
        store = EmbeddingStore(1, "asv")
        value = 0.1  # not representable in float32
        store.add("U1", [value])
        assert store.get("U1")[0] == np.float64(np.float32(value))

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_value_beyond_single_precision_is_refused(self, recwarn, value):
        store = EmbeddingStore(2, "cm")
        with pytest.raises(ValueError, match="'U1' contains non-finite values"):
            store.add("U1", [value, 0.5])
        with pytest.raises(ValueError, match="'U2' contains non-finite values"):
            EmbeddingStore._from_matrix("cm", ["U1", "U2"], np.array([[0.5, 0.5], [0.5, value]]))
        assert len(store) == 0 and not recwarn.list

    def test_holds_float32_and_hands_out_float64(self, tmp_path):
        store = make_store(dim=3, n=4)
        write_embedding_store(store, tmp_path / "s.emb")
        for held in (store, load_embedding_store(tmp_path / "s.emb", "asv")):
            assert held._matrix.dtype == np.float32
            assert held.matrix(["U001", "U000"]).dtype == np.float64
            assert held.mean_vector().dtype == np.float64

    @pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (17, 5), (4099, 192), (48000, 8)])
    def test_means_equal_float64_recomputations(self, n, dim):
        rng = np.random.default_rng(n + dim)
        ids = [f"U{i}" for i in range(n)]
        matrix = (rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, (n, 1)))
        store = EmbeddingStore._from_matrix("cm", ids, matrix.astype(np.float32))
        wide = store._vectors().astype(np.float64)
        assert np.array_equal(store.mean_vector(), np.mean(wide, axis=0))
        enroll = ids[::3]
        assert np.array_equal(enrollment_embedding(store, enroll),
                              np.mean(wide[::3], axis=0))

    def test_mean_vector(self):
        store = EmbeddingStore(2, "cm")
        store.add("A", [1.0, 0.0])
        store.add("B", [3.0, 2.0])
        np.testing.assert_allclose(store.mean_vector(), [2.0, 1.0])

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingStore(4, "xvector")

    def test_growth_past_initial_capacity(self, tmp_path):
        # 40 rows outgrow the first two capacities; every accessor still
        # agrees with a plain dict of float32-rounded vectors
        rng = np.random.default_rng(5)
        store = EmbeddingStore(3, "asv")
        reference = {}
        for i in range(40):
            vector = rng.standard_normal(3)
            store.add(f"U{i:02d}", vector)
            reference[f"U{i:02d}"] = vector.astype(np.float32).astype(np.float64)
        rows = np.stack(list(reference.values()))
        assert len(store) == 40 and store.ids() == list(reference)
        for utt_id, vec in reference.items():
            np.testing.assert_array_equal(store.get(utt_id), vec)
        assert [u for u, _ in store.items()] == list(reference)
        for (_, got), vec in zip(store.items(), reference.values()):
            np.testing.assert_array_equal(got, vec)
        picks = ["U39", "U00", "U17", "U17"]
        np.testing.assert_array_equal(store.matrix(picks), np.stack([reference[u] for u in picks]))
        np.testing.assert_array_equal(store.mean_vector(), np.mean(rows, axis=0))
        path = tmp_path / "grown.emb"
        write_embedding_store(store, path)
        loaded = load_embedding_store(path, "asv")
        np.testing.assert_array_equal(loaded.matrix(loaded.ids()), rows)
        assert loaded.ids() == list(reference)

    def test_returned_rows_cannot_change_the_store(self):
        store = make_store(n=3)
        with pytest.raises(ValueError):
            store.get("U000")[0] = 1.0
        store.matrix(["U000"])[0, 0] = 1.0
        assert store.get("U000")[0] != 1.0


class TestStoreSerialization:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        store = make_store(dim=7, n=9, seed=3)
        path = tmp_path / "store.emb"
        write_embedding_store(store, path, fmt="binary")
        loaded = load_embedding_store(path, "asv")
        assert loaded.dim == store.dim
        assert loaded.ids() == store.ids()
        for utt_id, vec in store.items():
            np.testing.assert_array_equal(loaded.get(utt_id), vec)

    def test_tsv_round_trip_within_tolerance(self, tmp_path):
        store = make_store(dim=5, n=6, seed=4, kind="cm")
        path = tmp_path / "store.tsv"
        write_embedding_store(store, path, fmt="tsv")
        loaded = load_embedding_store(path, "cm")
        for utt_id, vec in store.items():
            np.testing.assert_allclose(loaded.get(utt_id), vec, atol=1e-6)

    def test_tsv_parse_minimal(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("utt1\t0.1\t0.2\n")
        store = load_embedding_store(path, "asv")
        assert store.dim == 2
        assert len(store) == 1

    def test_tsv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("utt1\t0.1\t0.2\nutt2\t0.3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embedding_store(path, "asv")

    def test_truncated_binary_rejected(self, tmp_path):
        store = make_store()
        path = tmp_path / "store.emb"
        write_embedding_store(store, path, fmt="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_embedding_store(path, "asv")

    def test_trailing_garbage_rejected(self, tmp_path):
        store = make_store()
        path = tmp_path / "store.emb"
        write_embedding_store(store, path, fmt="binary")
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError):
            load_embedding_store(path, "asv")

    def test_duplicate_in_file_rejected(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("utt1\t0.1\nutt1\t0.2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embedding_store(path, "asv")

    def test_non_finite_in_file_rejected(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("utt1\tnan\n")
        with pytest.raises(ValueError):
            load_embedding_store(path, "asv")

    def test_tsv_value_beyond_single_precision_rejected(self, tmp_path, run_cli):
        path = tmp_path / "x.tsv"
        path.write_text("u0\t0.25\t0.5\nu1\t1e39\t0.5\n")
        message = "line 2: vector for 'u1' contains non-finite values"
        with pytest.raises(ValueError, match=message):
            load_embedding_store(path, "asv")
        (tmp_path / "enrollment.txt").write_text("S0 u0\n")
        (tmp_path / "trials.txt").write_text("S0 u1 target\n")
        result = run_cli("evaluate", "--model", "baseline1", "--asv-store", path,
                         "--cm-store", path, "--trials", tmp_path / "trials.txt",
                         "--enrollment", tmp_path / "enrollment.txt", "--out", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"ERROR sasvkit: {message}"]

    @pytest.mark.parametrize("fmt", ["binary", "tsv"])
    def test_round_trip_keeps_the_bytes(self, tmp_path, fmt):
        first, second = tmp_path / "first", tmp_path / "second"
        write_embedding_store(make_store(dim=6, n=40, seed=5), first, fmt=fmt)
        write_embedding_store(load_embedding_store(first, "asv"), second, fmt=fmt)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(1, 16),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_binary_round_trip_property(self, tmp_path_factory, dim, n, seed):
        tmp = tmp_path_factory.mktemp("store")
        store = make_store(dim=dim, n=n, seed=seed)
        path = tmp / "s.emb"
        write_embedding_store(store, path, fmt="binary")
        loaded = load_embedding_store(path, "asv")
        for utt_id, vec in store.items():
            np.testing.assert_array_equal(loaded.get(utt_id), vec)


def binary_store_bytes(dim: int, records, count=None) -> bytes:
    """A binary store with the given (id, vector) records; ``count`` overrides the header."""
    out = [b"SASVEMB1", struct.pack("<II", dim, len(records) if count is None else count)]
    for utt_id, vector in records:
        encoded = utt_id.encode("utf-8")
        out += [struct.pack("<H", len(encoded)), encoded, np.asarray(vector, "<f4").tobytes()]
    return b"".join(out)


GOOD_RECORDS = [("a", [1.0, 2.0]), ("bb", [3.0, 4.0]), ("c", [5.0, 6.0])]
FIXED_RECORDS = [("aa", [1.0, 2.0]), ("bb", [3.0, 4.0]), ("cc", [5.0, 6.0])]

# (case, file bytes, expected message)
MALFORMED_STORES = [
    ("non-finite", binary_store_bytes(2, [("a", [1.0, 2.0]), ("b", [np.inf, 0.0])]),
     "vector for 'b' contains non-finite values"),
    ("duplicate-id", binary_store_bytes(2, GOOD_RECORDS + [("bb", [0.0, 1.0])]),
     "duplicate utterance id 'bb'"),
    ("empty-id", binary_store_bytes(2, [("a", [1.0, 2.0]), ("", [0.0, 1.0])]),
     "utterance id must be non-empty"),
    ("record-cut", binary_store_bytes(2, GOOD_RECORDS)[:-3],
     "truncated store: record 2 incomplete"),
    ("header-cut", binary_store_bytes(2, GOOD_RECORDS)[:12], "truncated store header"),
    ("trailing", binary_store_bytes(2, GOOD_RECORDS) + b"xx",
     "trailing bytes after last store record"),
    ("huge-count", binary_store_bytes(2, GOOD_RECORDS, count=2**32 - 1),
     "truncated store: header declares 4294967295 records"),
    ("huge-dim", binary_store_bytes(2**32 - 1, [("a", [])], count=1),
     "truncated store: header declares 1 records of dimension 4294967295"),
    ("zero-dim", binary_store_bytes(0, []), "dimension must be positive"),
    ("id-not-utf8", binary_store_bytes(2, GOOD_RECORDS).replace(b"bb", b"\xff\xfe"),
     "store record 1: utterance id is not UTF-8"),
    # every id one length: the fixed-width path
    ("fixed-duplicate-id", binary_store_bytes(2, FIXED_RECORDS + [("bb", [0.0, 1.0])]),
     "duplicate utterance id 'bb'"),
    ("fixed-empty-ids", binary_store_bytes(2, [("", [1.0, 2.0]), ("", [0.0, 1.0])]),
     "utterance id must be non-empty"),
    ("fixed-id-not-utf8", binary_store_bytes(2, FIXED_RECORDS).replace(b"bb", b"\xff\xfe"),
     "store record 1: utterance id is not UTF-8"),
    ("fixed-trailing", binary_store_bytes(2, FIXED_RECORDS) + b"xx",
     "trailing bytes after last store record"),
    ("fixed-length-flipped", binary_store_bytes(2, FIXED_RECORDS).replace(b"\x02\x00bb",
                                                                       b"\x03\x00bb"),
     "truncated store: record 2 incomplete"),
]


class TestFixedWidthRecords:
    def test_applies_only_when_every_id_has_the_first_length(self):
        fixed = binary_store_bytes(2, FIXED_RECORDS)
        ids, vectors = _fixed_width_records(fixed, 16, len(FIXED_RECORDS), 8)
        assert ids == ["aa", "bb", "cc"]
        np.testing.assert_array_equal(vectors, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert _fixed_width_records(binary_store_bytes(2, GOOD_RECORDS), 16, 3, 8) is None

    def test_both_paths_load_the_same_store(self, tmp_path):
        # two-byte UTF-8 ids of one length are left to the record-by-record loop
        for records in (FIXED_RECORDS, GOOD_RECORDS, [("é", [1.0, 2.0]), ("ü", [3.0, 4.0])]):
            path = tmp_path / "s.emb"
            path.write_bytes(binary_store_bytes(2, records))
            store = load_embedding_store(path, "asv")
            assert store.ids() == [u for u, _ in records]
            np.testing.assert_array_equal(store.matrix(store.ids()), [v for _, v in records])


    def test_loaded_rows_are_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "s.emb"
        path.write_bytes(binary_store_bytes(2, FIXED_RECORDS))
        store = load_embedding_store(path, "asv")
        assert not store._matrix.flags.writeable and not store._matrix.flags.owndata
        with pytest.raises(ValueError):
            store._matrix[0, 0] = 0.0
        row = store.get("bb")
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
        np.testing.assert_array_equal(row, [3.0, 4.0])

    def test_add_after_loading_grows_the_store(self, tmp_path):
        path = tmp_path / "s.emb"
        path.write_bytes(binary_store_bytes(2, FIXED_RECORDS))
        store = load_embedding_store(path, "cm")
        added = [("dd", [7.0, 8.0]), ("e", [-1.0, 0.5])]
        for utt_id, vector in added:
            store.add(utt_id, vector)
        records = FIXED_RECORDS + added
        assert store.ids() == [u for u, _ in records]
        np.testing.assert_array_equal(store.matrix(store.ids()), [v for _, v in records])
        np.testing.assert_array_equal(store.get("aa"), [1.0, 2.0])
        np.testing.assert_array_equal(store.mean_vector(), np.mean([v for _, v in records], 0))
        assert path.read_bytes() == binary_store_bytes(2, FIXED_RECORDS)
        write_embedding_store(store, tmp_path / "grown.emb")
        assert (tmp_path / "grown.emb").read_bytes() == binary_store_bytes(2, records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_the_first_bad_id(self, tmp_path, bad):
        records = [("aa", [1.0, 2.0]), ("bb", [3.0, bad]), ("cc", [bad, 6.0]), ("dd", [0.0, 0.0])]
        raw = binary_store_bytes(2, records)
        assert _fixed_width_records(raw, 16, len(records), 8) is not None
        path = tmp_path / "s.emb"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^vector for 'bb' contains non-finite values$"):
            load_embedding_store(path, "asv")


# the first store takes the fixed-width path, the second the record loop
FUZZ_STORES = [
    binary_store_bytes(3, [(f"u{i}", [i + 1.0, -0.5, 2.0 ** i]) for i in range(4)]),
    binary_store_bytes(3, [(f"u{5 * i}", [i + 1.0, -0.5, 2.0 ** i]) for i in range(4)]),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("store_fuzz")
    # evaluate reads its trial list before the stores, so it needs a good one
    (path / "enrollment.txt").write_text("spk u0\n")
    (path / "trials.txt").write_text("spk u0 target\n")
    return path


class TestBinaryStoreRobustness:
    @pytest.mark.parametrize(
        "raw, message", [case[1:] for case in MALFORMED_STORES],
        ids=[case[0] for case in MALFORMED_STORES],
    )
    def test_malformed_store_message(self, tmp_path, raw, message):
        path = tmp_path / "bad.emb"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_embedding_store(path, "asv")

    def check_damaged(self, fuzz_dir, raw: bytes, run_cli) -> None:
        """A damaged store loads or raises ValueError; evaluate fails with one line."""
        path = fuzz_dir / "damaged.emb"
        path.write_bytes(raw)
        try:
            load_embedding_store(path, "asv")
            return
        except ValueError:
            pass
        result = run_cli("evaluate", "--model", "baseline1", "--asv-store", path,
                         "--cm-store", path, "--trials", fuzz_dir / "trials.txt",
                         "--enrollment", fuzz_dir / "enrollment.txt", "--out", fuzz_dir / "eval")
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR sasvkit: "), result.stderr

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.sampled_from(FUZZ_STORES), fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation_fuzz(self, fuzz_dir, run_cli, raw, fraction):
        self.check_damaged(fuzz_dir, raw[: int(fraction * len(raw))], run_cli)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.sampled_from(FUZZ_STORES), position=st.floats(0.0, 1.0, exclude_max=True),
           bit=st.integers(0, 7))
    def test_byte_flip_fuzz(self, fuzz_dir, run_cli, raw, position, bit):
        raw = bytearray(raw)
        raw[int(position * len(raw))] ^= 1 << bit
        self.check_damaged(fuzz_dir, bytes(raw), run_cli)


class TestEnrollmentEmbedding:
    def test_mean_of_vectors(self):
        store = EmbeddingStore(2, "asv")
        store.add("U1", [1.0, 0.0])
        store.add("U2", [0.0, 1.0])
        np.testing.assert_allclose(enrollment_embedding(store, ["U1", "U2"]), [0.5, 0.5])

    def test_single_utterance_identity(self):
        store = EmbeddingStore(2, "asv")
        store.add("U1", [0.25, -0.5])
        np.testing.assert_array_equal(enrollment_embedding(store, ["U1"]), [0.25, -0.5])

    def test_missing_id_rejected(self):
        store = EmbeddingStore(2, "asv")
        store.add("U1", [0.0, 0.0])
        with pytest.raises(KeyError, match="U9"):
            enrollment_embedding(store, ["U1", "U9"])

    def test_empty_rejected(self):
        store = EmbeddingStore(2, "asv")
        with pytest.raises(ValueError):
            enrollment_embedding(store, [])
