"""Acceptance helpers: summaries of sampled flows and a random melody baseline."""

import numpy as np

from bandflow.melody import NoteSequence


def flow2d_mode_stats(samples):
    """Per-mode means and weights, assigning each point to the nearest mode."""
    left = samples[samples[:, 0] < 0]
    right = samples[samples[:, 0] >= 0]
    return {
        "mean_left": left.mean(axis=0) if len(left) else np.zeros(2),
        "mean_right": right.mean(axis=0) if len(right) else np.zeros(2),
        "weight_left": len(left) / len(samples),
        "weight_right": len(right) / len(samples),
    }


def random_melody_baseline(songs, seed=0):
    """Uniform-random pitch generations over the songs' pitch span."""
    rng = np.random.default_rng(seed)
    out = []
    for s in songs:
        pitches = rng.integers(48, 84, size=len(s.notes)).tolist()
        out.append(NoteSequence(pitches=pitches, durations=list(s.notes.durations),
                                tempo=s.notes.tempo))
    return out
