"""Audio ingestion: WAV files to flat log-MEL feature vectors.

The recipe is fixed so that extraction is bit-reproducible: 768-sample
Hann windows hopped by 256 samples over 16 kHz PCM16 mono audio, a
1024-point FFT, 20 triangular peak-one MEL filters spanning 0-8 kHz
evaluated at bin-center frequencies, an energy floor of 1e-10, natural
log, and the frame axis cropped or padded with floor-energy rows to
exactly 45 frames.  A feature vector is the 45x20 matrix flattened
frame-major, length 900.

Only complete windows produce frames; a clip shorter than one window
extracts as all floor-energy rows, like digital silence.  A clip is
framed as one strided (frames x 768) view of the waveform, windowed in
one multiply, and sent through one real FFT along the frame axis and
one (frames x 513) x (513 x 20) filterbank product; nothing is batched
across clips.

Archives store (id, label, 900 floats) records either as delimited
text or as a little-endian binary stream with an identifying magic;
``read_archive`` sniffs which one it was given.
"""

import functools
import os
import struct

import numpy as np
from scipy.io import wavfile

from .errors import IngestionError
from .training import Dataset

SAMPLE_RATE = 16000
WINDOW = 768
HOP = 256
N_FFT = 1024
N_BANDS = 20
N_FRAMES = 45
FMAX = 8000.0
ENERGY_FLOOR = 1e-10
FEATURE_DIM = N_FRAMES * N_BANDS

_MAGIC = b"PBNFEAT\x00"
_BINARY_VERSION = 1
_MAX_ID_BYTES = 2**16 - 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_bands=N_BANDS, n_fft=N_FFT, rate=SAMPLE_RATE, fmax=FMAX):
    """Triangular peak-one filters on FFT bin centers, (n_bands, n_fft//2+1)."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(fmax), n_bands + 2))
    bins = np.arange(n_fft // 2 + 1) * (rate / n_fft)
    bank = np.zeros((n_bands, bins.size))
    for m in range(n_bands):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bins - lo) / (mid - lo)
        falling = (hi - bins) / (hi - mid)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return bank


_BANK = mel_filterbank()
_WINDOW_FN = np.hanning(WINDOW)


def logmel(wave, rate=SAMPLE_RATE):
    """Log-MEL matrix (45 frames x 20 bands) of one mono waveform."""
    if rate != SAMPLE_RATE:
        raise IngestionError(f"sample rate {rate} != {SAMPLE_RATE} (no resampling)")
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 1:
        raise IngestionError("waveform must be mono (1-d)")
    if wave.size < HOP:
        raise IngestionError(f"clip too short: {wave.size} < {HOP} samples (16 ms)")

    n = min(max(0, 1 + (wave.size - WINDOW) // HOP), N_FRAMES)
    out = np.full((N_FRAMES, N_BANDS), np.log(ENERGY_FLOOR))
    if n:
        frames = np.lib.stride_tricks.sliding_window_view(wave, WINDOW)[: n * HOP : HOP]
        spectra = np.fft.rfft(frames * _WINDOW_FN, n=N_FFT, axis=1)
        power = spectra.real**2 + spectra.imag**2
        out[:n] = np.log(np.maximum(power @ _BANK.T, ENERGY_FLOOR))
    return out


def load_wav(path):
    """Strictly PCM16 mono 16 kHz; returns the waveform scaled to [-1, 1)."""
    try:
        rate, data = wavfile.read(path)
    except (ValueError, OSError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise IngestionError(f"{path}: sample rate {rate} != {SAMPLE_RATE}")
    if data.dtype != np.int16:
        raise IngestionError(f"{path}: samples are {data.dtype}, expected PCM16")
    if data.ndim != 1:
        raise IngestionError(f"{path}: {data.shape[1]} channels, expected mono")
    return data.astype(np.float64) / 32768.0


def extract_file(path):
    """One WAV file to a flat 900-value feature vector."""
    return logmel(load_wav(path)).ravel()


def extract_directory(wav_dir):
    """Extract every WAV under per-class subdirectories.

    Class labels are the sorted subdirectory names, numbered from 0.
    Returns (Dataset with ids "class/stem", class-name list).
    """
    if not os.path.isdir(wav_dir):
        raise IngestionError(f"not a directory: {wav_dir}")
    classes = sorted(
        d for d in os.listdir(wav_dir) if os.path.isdir(os.path.join(wav_dir, d))
    )
    if not classes:
        raise IngestionError(f"no class subdirectories under {wav_dir}")
    ids, labels, rows = [], [], []
    for label, cls in enumerate(classes):
        names = sorted(
            n for n in os.listdir(os.path.join(wav_dir, cls)) if n.lower().endswith(".wav")
        )
        if not names:
            raise IngestionError(f"class directory {cls!r} holds no .wav files")
        for name in names:
            ids.append(f"{cls}/{os.path.splitext(name)[0]}")
            labels.append(label)
            rows.append(extract_file(os.path.join(wav_dir, cls, name)))
    return Dataset(np.vstack(rows), np.asarray(labels), ids), classes


def split_dataset(data, seed, n_train=500, n_val=150):
    """Per-class seeded shuffle into train/val/test index arrays.

    Rows of each class are ordered by id (falling back to position) so
    the split depends only on the sample set, then shuffled with one
    generator and dealt n_train/n_val/rest.  A class smaller than
    n_train + n_val is an ingestion error.
    """
    if data.labels is None:
        raise IngestionError("splitting needs labeled data")
    rng = np.random.default_rng(seed)
    splits = {"train": [], "val": [], "test": []}
    for cls in sorted(set(int(c) for c in data.labels)):
        idx = np.flatnonzero(data.labels == cls)
        if data.ids is not None:
            idx = idx[np.argsort([data.ids[i] for i in idx])]
        if idx.size < n_train + n_val:
            raise IngestionError(
                f"class {cls} has {idx.size} samples, needs {n_train + n_val}"
            )
        idx = idx[rng.permutation(idx.size)]
        splits["train"].append(idx[:n_train])
        splits["val"].append(idx[n_train : n_train + n_val])
        splits["test"].append(idx[n_train + n_val :])
    return {name: np.sort(np.concatenate(parts)) for name, parts in splits.items()}


# ---------------------------------------------------------------------------
# feature archives


def _check_records(data):
    """Raise IngestionError for a record the archives cannot hold.

    An id must not contain ``,``, ``\n`` or ``\r`` (the text separators)
    and its UTF-8 encoding must fit the binary length field (65,535
    bytes); a label must fit the binary int32.
    """
    if data.ids is None or data.labels is None:
        raise IngestionError("archives need ids and labels")
    for sample_id in data.ids:
        if any(c in sample_id for c in ",\n\r"):
            raise IngestionError(f"id {sample_id[:40]!r} contains ',' or a line break")
        try:
            size = len(sample_id.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise IngestionError(f"id {sample_id[:40]!r} is not valid unicode") from exc
        if size > _MAX_ID_BYTES:
            raise IngestionError(
                f"id {sample_id[:40]!r} is {size} bytes in UTF-8, over {_MAX_ID_BYTES}"
            )
    if np.any((data.labels < -(2**31)) | (data.labels >= 2**31)):
        raise IngestionError("labels must fit in 32 bits")


@functools.cache
def _row_format(types):
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)


def format_row(row):
    """One comma-separated line: floats as %.17g (exact round trip), the rest as str."""
    row = tuple(row)
    return _row_format(tuple(map(type, row))) % row


def write_archive_text(path, data, header=None):
    """Write the text archive; ``header``, a ``#`` comment line, goes first."""
    _check_records(data)
    columns = ["id", "label"] + [f"x{i:03d}" for i in range(data.x.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write(",".join(columns) + "\n")
        for sample_id, label, values in zip(data.ids, data.labels, data.x.tolist()):
            fh.write(format_row((sample_id, int(label), *values)) + "\n")


def write_archive_binary(path, data):
    _check_records(data)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _BINARY_VERSION, len(data), data.x.shape[1]))
        for i in range(len(data)):
            raw = data.ids[i].encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<i", int(data.labels[i])))
            fh.write(data.x[i].astype("<f8").tobytes())


def _read_archive_text(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        while header.startswith("#"):
            header = fh.readline().strip()
        fields = header.split(",")
        if fields[:2] != ["id", "label"]:
            raise IngestionError(f"{path}: not a feature archive")
        dim = len(fields) - 2
        ids, labels, rows = [], [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != dim + 2:
                raise IngestionError(f"{path}: row with {len(parts)} fields, expected {dim + 2}")
            ids.append(parts[0])
            labels.append(int(parts[1]))
            rows.append(np.array(parts[2:], dtype=np.float64))
    return Dataset(np.vstack(rows) if rows else np.empty((0, dim)), np.asarray(labels, dtype=int), ids)


def _read_archive_binary(path):
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise IngestionError(f"{path}: bad magic")
        version, count, dim = struct.unpack("<III", fh.read(12))
        if version != _BINARY_VERSION:
            raise IngestionError(f"{path}: unsupported archive version {version}")
        ids, labels, rows = [], [], []
        for _ in range(count):
            (id_len,) = struct.unpack("<H", fh.read(2))
            ids.append(fh.read(id_len).decode("utf-8"))
            (label,) = struct.unpack("<i", fh.read(4))
            labels.append(label)
            buf = fh.read(8 * dim)
            if len(buf) != 8 * dim:
                raise IngestionError(f"{path}: truncated archive")
            rows.append(np.frombuffer(buf, dtype="<f8"))
    return Dataset(np.vstack(rows) if rows else np.empty((0, dim)), np.asarray(labels, dtype=int), ids)


def read_archive(path):
    """Read either archive form, sniffing the binary magic.

    A truncated or malformed archive raises IngestionError.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    reader = _read_archive_binary if head == _MAGIC else _read_archive_text
    try:
        return reader(path)
    except (struct.error, ValueError) as exc:
        raise IngestionError(f"{path}: malformed archive: {exc}") from exc
