"""Seeded synthetic word-pair clips: 16 kHz mono PCM16, no download.

Each class is one formant-like glide: a tone whose frequency moves
linearly between two class-specific end points over the nominal 1 s
clip, with a weak second harmonic, short raised-cosine fades and seeded
white noise.  Class ``a_rise`` glides upward and class ``b_fall``
downward, so the two trajectories cross once and the classes are
separable by their log-mel spectrograms.

Every fourth clip of a class is cut short, below the 12,032 samples
that the 45 feature frames span, so extraction pads it with
floor-energy frames.

The generator records each clip's trajectory and length in a manifest;
the output checks read the expected spectral peak of every frame and the
padding frames from it.
"""

import json
import math
import os
import wave

import numpy as np

RATE = 16000
NOMINAL = RATE  # samples in a full-length clip (1 s)
SHORT_RANGE = (6400, 11520)  # 0.40-0.72 s, all shorter than one feature span
CLASSES = {
    # name: (start Hz, end Hz) of the glide over the nominal second
    "a_rise": (450.0, 2600.0),
    "b_fall": (2900.0, 700.0),
}
JITTER = 0.12  # relative jitter of each end point
HARMONIC = 0.25  # second-harmonic amplitude relative to the fundamental
FADE = 160  # samples (10 ms)


def instantaneous_hz(clip, t_seconds):
    """Fundamental frequency of a generated clip at time t (seconds)."""
    f0, f1 = clip["f_start"], clip["f_end"]
    return f0 + (f1 - f0) * np.asarray(t_seconds, dtype=np.float64) * RATE / NOMINAL


def _waveform(rng, f0, f1, n):
    t = np.arange(n) / RATE
    sweep = (f1 - f0) * RATE / NOMINAL
    phase = 2.0 * math.pi * (f0 * t + 0.5 * sweep * t * t) + rng.uniform(0.0, 2.0 * math.pi)
    amp = rng.uniform(0.2, 0.45)
    wave_ = amp * (np.sin(phase) + HARMONIC * np.sin(2.0 * phase))
    ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, FADE))
    wave_[:FADE] *= ramp
    wave_[-FADE:] *= ramp[::-1]
    wave_ += rng.uniform(0.002, 0.01) * rng.standard_normal(n)
    return np.clip(np.round(wave_ * 32767.0), -32768, 32767).astype("<i2")


def _write_wav(path, samples):
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(samples.tobytes())


def generate(out_dir, per_class, seed):
    """Write ``per_class`` clips of each class under out_dir/<class>/.

    Returns the manifest (also written to out_dir/manifest.json): one
    record per clip with its id as ``pbn extract`` names it, label,
    length in samples and glide end points.
    """
    rng = np.random.default_rng(seed)
    clips = []
    for label, (name, (f_start, f_end)) in enumerate(sorted(CLASSES.items())):
        os.makedirs(os.path.join(out_dir, name), exist_ok=True)
        for k in range(per_class):
            f0 = f_start * (1.0 + rng.uniform(-JITTER, JITTER))
            f1 = f_end * (1.0 + rng.uniform(-JITTER, JITTER))
            n = NOMINAL if k % 4 else int(rng.integers(*SHORT_RANGE))
            stem = f"clip{k:04d}"
            _write_wav(os.path.join(out_dir, name, stem + ".wav"), _waveform(rng, f0, f1, n))
            clips.append(
                {"id": f"{name}/{stem}", "label": label, "length": n, "f_start": f0, "f_end": f1}
            )
    manifest = {"seed": np.atleast_1d(seed).tolist(), "rate": RATE, "classes": sorted(CLASSES), "clips": clips}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)
