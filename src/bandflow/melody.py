"""Non-autoregressive note model and duration utilities.

Maps phoneme ids plus a style tag to per-position note-pitch logits and
positive durations, one note per phoneme.  Also houses the NoteSequence
line format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .blocks import FeedForward, positional_encoding, sdp_attention
from .errors import BoundsError, DataError, DimensionError
from .tensor import ParameterStore, Tensor

REST = -1
MELODY_TAG_TOKENS = 2   # prompt tokens per style tag


@dataclass
class NoteSequence:
    pitches: list        # MIDI ints in [0, 127], or REST
    durations: list      # beats, finite and > 0
    tempo: float = None  # beats per minute, finite and > 0

    def __post_init__(self):
        if len(self.pitches) != len(self.durations):
            raise DimensionError(
                f"{len(self.pitches)} pitches vs {len(self.durations)} durations")
        for p in self.pitches:
            if p != REST and not 0 <= p <= 127:
                raise DataError(f"pitch {p} outside [0, 127]")
        for d in self.durations:
            if not (d > 0 and math.isfinite(d)):
                raise DataError(f"duration {d} must be positive and finite")
        if self.tempo is not None and not (self.tempo > 0 and math.isfinite(self.tempo)):
            raise DataError(f"tempo {self.tempo} must be positive and finite")

    def __len__(self):
        return len(self.pitches)

    def sounding(self):
        """(pitch, duration) pairs with rests removed."""
        return [(p, d) for p, d in zip(self.pitches, self.durations) if p != REST]

    def total_seconds(self):
        if self.tempo is None:
            raise DataError("tempo required to convert beats to seconds")
        seconds = sum(self.durations) * 60.0 / self.tempo
        if not math.isfinite(seconds):
            raise DataError(f"song length overflows at tempo {self.tempo}")
        return seconds


def save_notes(notes: NoteSequence, path):
    with open(path, "w", encoding="utf-8") as f:
        if notes.tempo is not None:
            f.write(f"tempo={notes.tempo:g}\n")
        for p, d in zip(notes.pitches, notes.durations):
            name = "R" if p == REST else str(p)
            f.write(f"{name},{d:g}\n")


def load_notes(path) -> NoteSequence:
    """Read the save_notes format; bad input raises DataError naming the file,
    and the line for a line that does not parse."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    pitches, durations, tempo = [], [], None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("tempo="):
                tempo = float(line[len("tempo="):])
                continue
            p, d = line.split(",")
            pitches.append(REST if p == "R" else int(p))
            durations.append(float(d))
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed line {line!r}; "
                            "expected 'pitch,duration' or 'tempo=bpm'") from None
        if p != "R" and not 0 <= pitches[-1] <= 127:
            # Checked here, not left to NoteSequence, where -1 is REST.
            raise DataError(f"{path}: line {lineno}: pitch {pitches[-1]} outside [0, 127]; "
                            "a rest is written R")
    try:
        return NoteSequence(pitches=pitches, durations=durations, tempo=tempo)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def melody_loss(logits, durations, targets):
    """Summed pitch cross-entropy plus summed squared duration error of
    logits [B, n, K] and durations [B, n] against a list of B NoteSequences
    of length n, one per row.
    """
    if len({len(t) for t in targets}) != 1:
        raise DimensionError("melody_loss needs one or more targets of one length")
    tgt_p = np.asarray([t.pitches for t in targets], dtype=np.int64)
    tgt_d = np.asarray([t.durations for t in targets], dtype=np.float64)
    if logits.shape[:-1] != tgt_p.shape or durations.shape != tgt_d.shape:
        raise DimensionError("prediction / target length mismatch")
    flat = tt.reshape(logits, (-1, logits.shape[-1]))
    pitch_term = tt.cross_entropy(flat, tgt_p.reshape(-1))
    diff = tt.sub(durations, Tensor(tgt_d))
    return tt.add(pitch_term, tt.sum_(tt.mul(diff, diff)))


class MelodyModel:
    """Small transformer with cross-attention into style-tag tokens."""

    def __init__(self, n_phonemes, n_tags, rng, n_pitches=128, width=64, layers=2):
        self.n_phonemes = n_phonemes
        self.n_tags = n_tags
        self.width = width
        self.params = ParameterStore()
        p = self.params
        d = width
        self.phoneme_emb = p.add("melody.phoneme_emb",
                                 rng.standard_normal((n_phonemes, d)) * 0.5)
        self.tag_emb = p.add("melody.tag_emb",
                             rng.standard_normal((n_tags, MELODY_TAG_TOKENS * d)) * 0.5)
        self._layers = []
        for i in range(layers):
            s = 1.0 / np.sqrt(d)
            layer = {
                "gain1": p.add(f"melody.l{i}.gain1", np.ones(d)),
                "gain2": p.add(f"melody.l{i}.gain2", np.ones(d)),
                "gain3": p.add(f"melody.l{i}.gain3", np.ones(d)),
                "wq": p.add(f"melody.l{i}.wq", rng.standard_normal((d, d)) * s),
                "wk": p.add(f"melody.l{i}.wk", rng.standard_normal((d, d)) * s),
                "wv": p.add(f"melody.l{i}.wv", rng.standard_normal((d, d)) * s),
                "wqx": p.add(f"melody.l{i}.wqx", rng.standard_normal((d, d)) * s),
                "ffn": FeedForward(d, 2 * d, rng, p, f"melody.l{i}.ffn"),
            }
            self._layers.append(layer)
        self.w_pitch = p.add("melody.w_pitch", rng.standard_normal((d, n_pitches)) / np.sqrt(d))
        self.b_pitch = p.add("melody.b_pitch", np.zeros(n_pitches))
        self.w_dur = p.add("melody.w_dur", rng.standard_normal((d, 1)) / np.sqrt(d))
        self.b_dur = p.add("melody.b_dur", np.zeros(1))

    def forward(self, phonemes, tags):
        """Pitch logits [B, n, K] and durations [B, n] (softplus head) of
        phoneme ids [B, n] and tag ids [B]; one song is phonemes [n] and one
        tag id, giving [n, K] and [n].  Each row's outputs are bitwise its
        own one-song call's."""
        ids = np.asarray(phonemes, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        if ids.ndim == 0 or ids.size == 0:
            raise DataError(f"melody model needs at least one phoneme, got shape {ids.shape}")
        if tags.shape != ids.shape[:-1]:
            raise DimensionError(f"tags {tags.shape} do not match phonemes {ids.shape}")
        if ids.min() < 0 or ids.max() >= self.n_phonemes:
            raise BoundsError(f"phoneme id out of range [0, {self.n_phonemes})")
        if tags.min() < 0 or tags.max() >= self.n_tags:
            raise BoundsError(f"tag id out of range [0, {self.n_tags})")
        n = ids.shape[-1]
        d = self.width
        h = tt.gather(self.phoneme_emb, ids)
        h = tt.add(h, positional_encoding(n, d))
        z_p = tt.reshape(tt.gather(self.tag_emb, tags), tags.shape + (MELODY_TAG_TOKENS, d))
        for layer in self._layers:
            hn = tt.rmsnorm(h, layer["gain1"])
            h = tt.add(h, sdp_attention(tt.matmul(hn, layer["wq"]),
                                        tt.matmul(hn, layer["wk"]),
                                        tt.matmul(hn, layer["wv"])))
            hn = tt.rmsnorm(h, layer["gain2"])
            h = tt.add(h, sdp_attention(tt.matmul(hn, layer["wqx"]), z_p, z_p))
            h = tt.add(h, layer["ffn"](tt.rmsnorm(h, layer["gain3"])))
        logits = tt.add(tt.matmul(h, self.w_pitch), self.b_pitch)
        dur = tt.softplus(tt.add(tt.matmul(h, self.w_dur), self.b_dur))
        return logits, tt.reshape(dur, ids.shape)

    def predict(self, phonemes, tag, tempo) -> NoteSequence:
        """The argmax-pitch, predicted-duration NoteSequence of one song."""
        logits, dur = self.forward(phonemes, tag)
        pitches = logits.data.argmax(axis=1).tolist()
        return NoteSequence(pitches=pitches, durations=dur.data.tolist(), tempo=tempo)
