"""Seeded synthetic datasets for the toy training pipelines.

Every generator is a pure function of its seed, so datasets (and therefore
whole training runs) are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .melody import NoteSequence

FLOW2D_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])
FLOW2D_SIGMA = 0.3
FLOW2D_MIN_POINTS = 100      # fewest points gen_flow2d draws

MAJOR_SCALE = np.array([0, 2, 4, 5, 7, 9, 11])   # a grammar song's phoneme id is its degree
GRAMMAR_TONICS = 12          # a grammar song's tag: its tonic pitch class
GRAMMAR_TEMPI = (90.0, 120.0)
GRAMMAR_BASE_PITCH = 60
GRAMMAR_SONG_NOTES = 16
SMOOTH_WIDTH = 5             # moving-average window of the toy vocal tracks
STYLE_TOY_PHONEMES = 16      # phonemes per style-toy sample
STYLE_TOY_CHANNELS = 8       # channels of a style-toy target field
STYLE_TOY_VOCAB = 8          # gen_style_toy's default phoneme vocabulary


def gen_flow2d(seed, n):
    """Mixture of two Gaussians at (+-2, 0), sigma 0.3, equal weights."""
    if n < FLOW2D_MIN_POINTS:
        raise ConfigError(f"need at least {FLOW2D_MIN_POINTS} points, got {n}")
    rng = np.random.default_rng(seed)
    comp = rng.integers(2, size=n)
    return FLOW2D_CENTERS[comp] + FLOW2D_SIGMA * rng.standard_normal((n, 2))


@dataclass
class ToyPair:
    v: np.ndarray        # vocal-like track [T, d]
    a: np.ndarray        # accompaniment-like target [T, d]
    tag: int


def _smooth(x):
    kernel = np.ones(SMOOTH_WIDTH) / SMOOTH_WIDTH
    pad = SMOOTH_WIDTH // 2
    xp = np.pad(x, ((pad, pad), (0, 0)), mode="edge")
    out = np.zeros_like(x)
    for k in range(SMOOTH_WIDTH):
        out += kernel[k] * xp[k:k + x.shape[0]]
    return out


def tag_transform(v, tag, n_tags):
    """The known tag-dependent map from a vocal track to its accompaniment."""
    T, d = v.shape
    scale = 0.8 + 0.5 * tag / max(1, n_tags - 1)
    phase = 2.0 * np.pi * (tag + 1) / (n_tags + 1)
    offset = 0.4 * np.sin(2.0 * np.pi * np.arange(T) / T * (tag + 1) + phase)
    return scale * _smooth(v) + offset[:, None]


def gen_toy_pairs(seed, n, n_tags, T=64, d=16):
    """Vocal-like smoothed random walks paired with tag-transformed targets."""
    if n_tags < 2:
        raise ConfigError("need at least two style tags")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        tag = int(rng.integers(n_tags))
        steps = rng.standard_normal((T, d)) * 0.3
        v = _smooth(np.cumsum(steps, axis=0))
        v = v / max(1e-8, v.std())
        pairs.append(ToyPair(v=v, a=tag_transform(v, tag, n_tags), tag=tag))
    return pairs


@dataclass
class MelodySample:
    phonemes: np.ndarray   # [N] ids equal to scale degrees
    tag: int               # tonic pitch class, doubles as the style tag
    notes: NoteSequence


def gen_melody_grammar(seed, n_songs):
    """Diatonic major-scale songs; pitch = tonic + scale[degree] + 60.

    The phoneme id carries the scale degree and the tag carries the key, so
    a model must combine both streams to name the pitch.
    """
    rng = np.random.default_rng(seed)
    songs = []
    for _ in range(n_songs):
        tonic = int(rng.integers(GRAMMAR_TONICS))
        tempo = float(GRAMMAR_TEMPI[int(rng.integers(len(GRAMMAR_TEMPI)))])
        degree = int(rng.integers(len(MAJOR_SCALE)))
        degrees = []
        for _ in range(GRAMMAR_SONG_NOTES):
            degrees.append(degree)
            degree = min(max(degree + int(rng.integers(-2, 3)), 0), len(MAJOR_SCALE) - 1)
        degrees = np.asarray(degrees)
        pitches = (GRAMMAR_BASE_PITCH + tonic + MAJOR_SCALE[degrees]).tolist()
        durations = [0.5 if g % 2 == 0 else 1.0 for g in degrees]
        songs.append(MelodySample(
            phonemes=degrees.astype(np.int64),
            tag=tonic,
            notes=NoteSequence(pitches=pitches, durations=durations, tempo=tempo),
        ))
    return songs


@dataclass
class StyleSample:
    phonemes: np.ndarray   # [P] content ids
    tag: int
    x1: np.ndarray         # target style field [channels, P]


def gen_style_toy(seed, n, n_tags, n_phonemes=STYLE_TOY_VOCAB):
    """Phoneme-level style targets: a fixed random table per (tag, phoneme)."""
    rng = np.random.default_rng(seed)
    tables = rng.standard_normal((n_tags, n_phonemes, STYLE_TOY_CHANNELS))
    samples = []
    for _ in range(n):
        tag = int(rng.integers(n_tags))
        phon = rng.integers(n_phonemes, size=STYLE_TOY_PHONEMES)
        x1 = tables[tag, phon].T.copy()
        samples.append(StyleSample(phonemes=phon.astype(np.int64), tag=tag, x1=x1))
    return samples
