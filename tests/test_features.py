import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import oracle
from helpers import examples, write_non_finite_archive
from pbn import Dataset, IngestionError
from pbn.features import (
    ENERGY_FLOOR,
    FEATURE_DIM,
    N_BANDS,
    N_FRAMES,
    extract_directory,
    extract_file,
    format_row,
    hz_to_mel,
    load_wav,
    logmel,
    mel_filterbank,
    mel_to_hz,
    read_archive,
    split_dataset,
    write_archive_binary,
    write_archive_text,
)

FLOOR_CELL = np.log(ENERGY_FLOOR)


def expected_tone_band(freq_hz):
    """Independent triangular-filter argmax at one frequency."""
    top = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
    edges = [700.0 * (10.0 ** (m * top / 21.0 / 2595.0) - 1.0) for m in range(22)]
    responses = []
    for m in range(20):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        r = min((freq_hz - lo) / (mid - lo), (hi - freq_hz) / (hi - mid))
        responses.append(max(r, 0.0))
    return int(np.argmax(responses))


class TestLogmel:
    def test_silence_hits_floor_everywhere(self):
        out = logmel(np.zeros(16000))
        assert out.shape == (N_FRAMES, N_BANDS)
        np.testing.assert_array_equal(out, FLOOR_CELL)

    def test_one_second_clip_is_45_frames(self):
        rng = np.random.default_rng(0)
        out = logmel(rng.uniform(-0.5, 0.5, 16000))
        assert out.shape == (N_FRAMES, N_BANDS)
        assert out.ravel().size == FEATURE_DIM

    def test_pure_tone_lands_in_expected_band(self):
        t = np.arange(16000) / 16000.0
        out = logmel(0.9 * np.sin(2 * np.pi * 1000.0 * t))
        hits = np.mean(np.argmax(out, axis=1) == expected_tone_band(1000.0))
        assert hits >= 0.95

    def test_doubling_waveform_adds_log4(self):
        rng = np.random.default_rng(1)
        wave = rng.uniform(-0.4, 0.4, 16000)
        base = logmel(wave)
        loud = logmel(2.0 * wave)
        unfloored = (base > FLOOR_CELL) & (loud > FLOOR_CELL)
        assert unfloored.any()
        np.testing.assert_allclose(
            (loud - base)[unfloored], np.log(4.0), rtol=0, atol=1e-12
        )

    def test_short_clip_pads_with_floor_rows(self):
        rng = np.random.default_rng(2)
        out = logmel(rng.uniform(-0.5, 0.5, 4000))
        n_real = 1 + (4000 - 768) // 256
        assert np.any(out[:n_real] > FLOOR_CELL)
        np.testing.assert_array_equal(out[n_real:], FLOOR_CELL)

    def test_long_clip_crops_to_45(self):
        rng = np.random.default_rng(3)
        wave = rng.uniform(-0.5, 0.5, 32000)
        np.testing.assert_array_equal(logmel(wave), logmel(wave[: 768 + 44 * 256]))

    def test_sub_window_clip_is_all_floor(self):
        out = logmel(np.full(300, 0.25))
        np.testing.assert_array_equal(out, FLOOR_CELL)

    def test_extraction_is_deterministic(self):
        rng = np.random.default_rng(4)
        wave = rng.uniform(-0.5, 0.5, 16000)
        np.testing.assert_array_equal(logmel(wave), logmel(wave))

    def test_rejects_bad_input(self):
        with pytest.raises(IngestionError):
            logmel(np.zeros(16000), rate=8000)
        with pytest.raises(IngestionError):
            logmel(np.zeros((100, 2)))
        with pytest.raises(IngestionError):
            logmel(np.zeros(200))


# Around every framing edge: under one hop, one short of a window, exactly
# one window, one short of and at a second frame, the last complete 45th
# frame and one sample either side of it, and two seconds (cropped).
EDGE_LENGTHS = [256, 767, 768, 1023, 1024, 768 + 44 * 256 - 1, 768 + 44 * 256, 768 + 44 * 256 + 1, 32000]


def assert_matches_per_frame_oracle(wave):
    got, want = logmel(wave), oracle.logmel(wave)
    n_real = min(max(0, 1 + (wave.size - 768) // 256), N_FRAMES)
    np.testing.assert_array_equal(got[n_real:], FLOOR_CELL)
    np.testing.assert_array_equal(want[n_real:], FLOOR_CELL)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestLogmelAgainstPerFrameOracle:
    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_edge_lengths(self, length):
        rng = np.random.default_rng(length)
        assert_matches_per_frame_oracle(rng.uniform(-0.5, 0.5, length))

    @settings(max_examples=examples(40), deadline=None)
    @given(
        length=st.integers(256, 40000),
        log_amplitude=st.floats(-7.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_lengths_and_levels(self, length, log_amplitude, seed):
        # quiet clips put some bands of real frames on the energy floor
        rng = np.random.default_rng(seed)
        assert_matches_per_frame_oracle(10.0**log_amplitude * rng.uniform(-1.0, 1.0, length))


class TestFilterbank:
    def test_shape_and_range(self):
        bank = mel_filterbank()
        assert bank.shape == (20, 513)
        assert np.all(bank >= 0.0)
        assert np.all(bank <= 1.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_band_supports_are_ordered(self):
        bank = mel_filterbank()
        centers = [np.argmax(row) for row in bank]
        assert centers == sorted(centers)
        assert len(set(centers)) == 20

    def test_mel_scale_round_trip(self):
        freqs = np.array([0.0, 700.0, 1000.0, 8000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


class TestWavLoading:
    def write(self, path, rate, data):
        wavfile.write(path, rate, data)
        return str(path)

    def test_pcm16_round_trip(self, tmp_path):
        samples = (np.sin(np.linspace(0, 20, 16000)) * 20000).astype(np.int16)
        path = self.write(tmp_path / "ok.wav", 16000, samples)
        wave = load_wav(path)
        np.testing.assert_allclose(wave, samples / 32768.0)
        assert extract_file(path).shape == (FEATURE_DIM,)

    def test_rejects_wrong_rate(self, tmp_path):
        path = self.write(tmp_path / "slow.wav", 8000, np.zeros(8000, dtype=np.int16))
        with pytest.raises(IngestionError, match="sample rate"):
            load_wav(path)

    def test_rejects_stereo(self, tmp_path):
        path = self.write(tmp_path / "st.wav", 16000, np.zeros((16000, 2), dtype=np.int16))
        with pytest.raises(IngestionError, match="mono"):
            load_wav(path)

    def test_rejects_float_samples(self, tmp_path):
        path = self.write(tmp_path / "f.wav", 16000, np.zeros(16000, dtype=np.float32))
        with pytest.raises(IngestionError, match="PCM16"):
            load_wav(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"hello")
        with pytest.raises(IngestionError):
            load_wav(str(path))


class TestExtractDirectory:
    def make_tree(self, root, classes, n_per=3):
        rng = np.random.default_rng(9)
        for cls in classes:
            d = root / cls
            d.mkdir()
            for i in range(n_per):
                samples = (rng.uniform(-0.3, 0.3, 8000) * 32767).astype(np.int16)
                wavfile.write(str(d / f"clip{i}.wav"), 16000, samples)

    def test_labels_follow_sorted_class_names(self, tmp_path):
        self.make_tree(tmp_path, ["zeta", "alpha"])
        data, classes = extract_directory(str(tmp_path))
        assert classes == ["alpha", "zeta"]
        assert len(data) == 6
        assert data.ids[0].startswith("alpha/")
        np.testing.assert_array_equal(np.unique(data.labels), [0, 1])
        assert data.x.shape == (6, FEATURE_DIM)

    def test_missing_directory(self):
        with pytest.raises(IngestionError):
            extract_directory("/nonexistent/path")

    def test_empty_class_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(IngestionError, match="no .wav"):
            extract_directory(str(tmp_path))


class TestSplit:
    def manifest(self, n_per_class, classes=2):
        n = n_per_class * classes
        ids = [f"c{c}/s{i}" for c in range(classes) for i in range(n_per_class)]
        labels = np.repeat(np.arange(classes), n_per_class)
        return Dataset(np.zeros((n, 1)), labels, ids)

    def test_counts_500_150_rest(self):
        splits = split_dataset(self.manifest(2000), seed=5)
        assert len(splits["train"]) == 1000
        assert len(splits["val"]) == 300
        assert len(splits["test"]) == 2700

    def test_partition_is_disjoint_and_complete(self):
        data = self.manifest(700)
        splits = split_dataset(data, seed=6)
        merged = np.concatenate(list(splits.values()))
        assert len(merged) == len(set(merged)) == len(data)

    def test_same_seed_same_split(self):
        data = self.manifest(700)
        a = split_dataset(data, seed=7)
        b = split_dataset(data, seed=7)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_split_depends_on_ids_not_row_order(self):
        data = self.manifest(700)
        perm = np.random.default_rng(8).permutation(len(data))
        shuffled = data.subset(perm)
        a = split_dataset(data, seed=9)
        b = split_dataset(shuffled, seed=9)
        for name in a:
            assert {data.ids[i] for i in a[name]} == {shuffled.ids[i] for i in b[name]}

    def test_insufficient_class_raises(self):
        with pytest.raises(IngestionError, match="needs"):
            split_dataset(self.manifest(600), seed=0)

    @pytest.mark.parametrize("n_train, n_val", [(-1, 1), (1, -1)])
    def test_negative_counts_raise(self, n_train, n_val):
        # a negative n_train once dealt train rows that the test split held too
        with pytest.raises(IngestionError, match="nonnegative"):
            split_dataset(self.manifest(3), seed=0, n_train=n_train, n_val=n_val)

    def test_custom_counts(self):
        splits = split_dataset(self.manifest(10), seed=1, n_train=6, n_val=2)
        assert len(splits["train"]) == 12
        assert len(splits["val"]) == 4
        assert len(splits["test"]) == 4


class TestArchives:
    def sample_data(self, n=4, dim=7):
        rng = np.random.default_rng(10)
        return Dataset(
            rng.normal(size=(n, dim)),
            rng.integers(0, 2, size=n),
            [f"cls/{i:02d}" for i in range(n)],
        )

    def test_text_round_trip_exact(self, tmp_path):
        data = self.sample_data()
        path = str(tmp_path / "arch.csv")
        write_archive_text(path, data)
        back = read_archive(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.ids == data.ids

    def test_binary_round_trip_exact(self, tmp_path):
        data = self.sample_data(n=6, dim=9)
        path = str(tmp_path / "arch.pbnf")
        write_archive_binary(path, data)
        back = read_archive(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.ids == data.ids

    def test_text_header_is_stable(self, tmp_path):
        data = self.sample_data(n=1, dim=3)
        path = str(tmp_path / "arch.csv")
        write_archive_text(path, data)
        with open(path) as fh:
            assert fh.readline() == "id,label,x000,x001,x002\n"

    def test_truncated_binary_raises(self, tmp_path):
        data = self.sample_data()
        path = str(tmp_path / "arch.pbnf")
        write_archive_binary(path, data)
        raw = open(path, "rb").read()
        cut = str(tmp_path / "cut.pbnf")
        open(cut, "wb").write(raw[:-5])
        with pytest.raises(IngestionError, match="truncated"):
            read_archive(cut)

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_non_finite_feature_raises(self, tmp_path, binary):
        path = write_non_finite_archive(tmp_path, binary)
        with pytest.raises(IngestionError, match=r"record 'cls/01' has a non-finite feature value"):
            read_archive(path)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_writers_refuse_non_finite_features(self, tmp_path, bad):
        data = self.sample_data()
        data.x[2, 3] = bad
        for writer in (write_archive_text, write_archive_binary):
            with pytest.raises(IngestionError, match="record 'cls/02' has a non-finite"):
                writer(str(tmp_path / "arch"), data)

    def test_not_an_archive_raises(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("just,some,words\n1,2,3\n")
        with pytest.raises(IngestionError, match="not a feature archive"):
            read_archive(str(path))

    # Two rows of three values: the header ends at byte 20 and each
    # record is a 2-byte id length, a 6-byte id, a 4-byte label and 24
    # bytes of values, so the cuts land in every field of both records.
    @pytest.mark.parametrize("cut", [0, 10, 20, 21, 22, 24, 30, 40, 56, 57, 91])
    def test_cut_binary_raises_ingestion_error(self, tmp_path, cut):
        data = self.sample_data(n=2, dim=3)
        path = str(tmp_path / "arch.pbnf")
        write_archive_binary(path, data)
        raw = open(path, "rb").read()
        assert len(raw) == 92
        open(path, "wb").write(raw[:cut])
        with pytest.raises(IngestionError):
            read_archive(path)

    def test_undecodable_binary_id_raises(self, tmp_path):
        data = self.sample_data(n=2, dim=3)
        path = str(tmp_path / "arch.pbnf")
        write_archive_binary(path, data)
        raw = bytearray(open(path, "rb").read())
        raw[22] = 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(IngestionError):
            read_archive(path)

    @pytest.mark.parametrize("label, value", [("zero", "1.0"), ("0", "abc"), ("1.5", "1.0")])
    def test_bad_text_field_raises(self, tmp_path, label, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,x000,x001\na,0,1.0,2.0\nb,{label},{value},3.0\n")
        with pytest.raises(IngestionError, match="malformed archive"):
            read_archive(str(path))

    def test_ragged_text_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,label,x000,x001\na,0,1.0,2.0\nb,1,3.0\n")
        with pytest.raises(IngestionError, match="fields"):
            read_archive(str(path))

    @pytest.mark.parametrize("writer", [write_archive_text, write_archive_binary])
    @pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb", "x" * 65536, "\u00e9" * 32768])
    def test_unwritable_id_raises_before_writing(self, tmp_path, writer, bad_id):
        data = self.sample_data(n=2, dim=3)
        data.ids[1] = bad_id
        path = tmp_path / "arch"
        with pytest.raises(IngestionError, match="id"):
            writer(str(path), data)
        assert not path.exists()

    @pytest.mark.parametrize("writer", [write_archive_text, write_archive_binary])
    def test_longest_id_round_trips(self, tmp_path, writer):
        data = self.sample_data(n=2, dim=3)
        data.ids[0] = "\u00e9" * 32767 + "x"
        path = str(tmp_path / "arch")
        writer(path, data)
        assert read_archive(path).ids == data.ids

    @pytest.mark.parametrize("writer", [write_archive_text, write_archive_binary])
    def test_label_outside_int32_raises(self, tmp_path, writer):
        data = self.sample_data(n=2, dim=3)
        data.labels = np.array([0, 2**31])
        with pytest.raises(IngestionError, match="labels"):
            writer(str(tmp_path / "arch"), data)


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17, -123456789.125,
]


def test_row_format_matches_per_cell_format():
    rng = np.random.default_rng(20)
    values = SPECIAL_FLOATS + rng.standard_normal(50).tolist()
    values += (10.0 ** rng.uniform(-320, 308, 50)).tolist()
    row = ("cls/a", 3, "orig", *values, np.float64(0.1), True)
    want = ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
    assert format_row(row) == want
    assert format_row(list(row)) == want


ARCHIVE_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# tmp_path is shared by the examples of one test; each example overwrites its file
FUNCTION_SCOPED = HealthCheck.function_scoped_fixture


@st.composite
def archive_records(draw):
    n = draw(st.integers(0, 4))
    dim = draw(st.integers(0, 3))
    ids = draw(st.lists(st.text(max_size=12), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
    x = draw(st.lists(st.lists(ARCHIVE_FLOATS, min_size=dim, max_size=dim), min_size=n, max_size=n))
    x = np.array(x, dtype=np.float64).reshape(n, dim)
    return Dataset(x, np.array(labels, dtype=np.int64), ids)


@settings(max_examples=examples(150), deadline=None, suppress_health_check=[FUNCTION_SCOPED])
@given(data=archive_records(), binary=st.booleans())
def test_archive_round_trips_or_refuses(tmp_path, data, binary):
    """Any record set either comes back exactly or is refused with IngestionError."""
    path = str(tmp_path / ("arch.pbnf" if binary else "arch.csv"))
    try:
        (write_archive_binary if binary else write_archive_text)(path, data)
    except IngestionError:
        return
    back = read_archive(path)
    assert back.ids == data.ids
    np.testing.assert_array_equal(back.labels, data.labels)
    assert back.x.shape == data.x.shape
    np.testing.assert_array_equal(back.x, data.x)
    finite = np.isfinite(data.x)
    np.testing.assert_array_equal(np.signbit(back.x[finite]), np.signbit(data.x[finite]))


@settings(max_examples=examples(200), deadline=None, suppress_health_check=[FUNCTION_SCOPED])
@given(raw=st.binary(max_size=120), binary=st.booleans())
def test_damaged_archive_raises_only_ingestion_error(tmp_path, raw, binary):
    path = tmp_path / "damaged"
    path.write_bytes(b"PBNFEAT\x00" + raw if binary else b"id,label,x000\n" + raw)
    try:
        read_archive(str(path))
    except IngestionError:
        pass
