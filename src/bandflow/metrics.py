"""Objective melody and pitch-track metrics.

Key estimation correlates a duration-weighted pitch-class histogram with
rotated major/minor reference profiles; sequence-level statistics compare
average pitch, total seconds, and pitch/duration histogram overlap; the
melody distance runs dynamic time warping over mean-centered pitch series
on a sixteenth-note grid; the frame-error metric scores voicing decisions
and relative F0 deviation.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import BandflowError, ConfigError, DataError, DimensionError
from .melody import NoteSequence

PITCH_BINS = 128
DURATION_BINS = 32
DURATION_RANGE = (0.0, 4.0)       # beats
SIXTEENTHS_PER_BEAT = 4
F0_DEVIATION = 0.2

NOTE_NAMES = {"C": 0, "C#": 1, "DB": 1, "D": 2, "D#": 3, "EB": 3, "E": 4, "F": 5,
              "F#": 6, "GB": 6, "G": 7, "G#": 8, "AB": 8, "A": 9, "A#": 10,
              "BB": 10, "B": 11}

REPORT_COLUMNS = ("KA", "APD", "TD", "PD", "DD", "MD")


class InvalidMetric(BandflowError):
    """Raised when a metric is undefined for the given sample (excluded)."""


@dataclass
class MelodyReport:
    KA: float
    APD: float
    TD: float
    PD: float
    DD: float
    MD: float

    def row(self):
        return [getattr(self, c) for c in REPORT_COLUMNS]


class KeyProfileTable:
    """24 reference pitch-class profiles (12 major + 12 minor rotations)."""

    def __init__(self, major, minor):
        self.base = {"major": np.asarray(major, dtype=np.float64),
                     "minor": np.asarray(minor, dtype=np.float64)}
        for mode, prof in self.base.items():
            if prof.shape != (12,):
                raise DataError(f"{mode} profile must have 12 entries")

    @classmethod
    def load(cls):
        """The packaged profile table, data/key_profiles.csv."""
        text = resources.files("bandflow").joinpath("data/key_profiles.csv").read_text()
        rows = [r for r in csv.reader(text.splitlines()) if r and not r[0].startswith("#")]
        table = {}
        for row in rows:
            if row[0] == "mode":
                continue
            table[row[0]] = [float(v) for v in row[1:]]
        return cls(major=table["major"], minor=table["minor"])

    def profile(self, tonic, mode):
        """Profile for a key as pitch-class weights (index = pitch class)."""
        base = self.base[mode]
        return np.roll(base, tonic)

    def keys(self):
        for mode in ("major", "minor"):
            for tonic in range(12):
                yield tonic, mode


def parse_key(key):
    """Accepts (tonic, mode) or strings like 'C major' / 'f# minor'."""
    if isinstance(key, tuple):
        return int(key[0]) % 12, key[1]
    name, mode = key.split()
    tonic = NOTE_NAMES.get(name.strip().upper())
    if tonic is None:
        raise DataError(f"unknown note name {name!r}")
    return tonic, mode.strip().lower()


def pitch_class_histogram(notes: NoteSequence):
    hist = np.zeros(12)
    for p, d in notes.sounding():
        hist[p % 12] += d
    return hist


def key_correlation(notes: NoteSequence, key):
    """Pearson correlation of the duration-weighted pitch-class histogram
    with the key's reference profile."""
    tonic, mode = parse_key(key)
    hist = pitch_class_histogram(notes)
    if hist.std() == 0:
        raise InvalidMetric("constant pitch-class histogram; correlation undefined")
    prof = _default_table().profile(tonic, mode)
    return float(np.corrcoef(hist, prof)[0, 1])


def best_key(notes: NoteSequence):
    """Most correlated of the 24 keys."""
    scored = [(key_correlation(notes, k), k) for k in _default_table().keys()]
    return max(scored)[1]


def key_accuracy(gen: NoteSequence, gt: NoteSequence, gt_key):
    """Ratio of the generated correlation to the ground-truth correlation."""
    r = key_correlation(gt, gt_key)
    if r == 0:
        raise InvalidMetric("ground-truth key correlation is zero")
    r_hat = key_correlation(gen, gt_key)
    return r_hat / r


def apd_td(gen: NoteSequence, gt: NoteSequence):
    """(average-pitch difference, total-duration difference in seconds)."""
    gp = [p for p, _ in gen.sounding()]
    tp = [p for p, _ in gt.sounding()]
    if not gp or not tp:
        raise DataError("empty note sequence")
    if gen.tempo is None or gt.tempo is None:
        raise ConfigError("tempo required for the duration metric")
    apd = abs(float(np.mean(gp)) - float(np.mean(tp)))
    td = abs(gen.total_seconds() - gt.total_seconds())
    return apd, td


def overlapped_area(p, q):
    """Sum of binwise minima of two frequency-normalized histograms."""
    return float(np.minimum(p, q).sum())


def _pitch_hist(notes):
    hist = np.zeros(PITCH_BINS)
    for p, _ in notes.sounding():
        hist[p] += 1
    return hist / hist.sum()


def _duration_hist(notes):
    lo, hi = DURATION_RANGE
    d = np.clip(np.asarray(notes.durations, dtype=np.float64), lo, np.nextafter(hi, lo))
    hist, _ = np.histogram(d, bins=DURATION_BINS, range=DURATION_RANGE)
    return hist / hist.sum()


def dist_similarity(gen_set, gt_set):
    """Mean per-song histogram overlap: (pitch PD, duration DD)."""
    if len(gen_set) != len(gt_set):
        raise DimensionError("generated and reference sets differ in size")
    pd_vals, dd_vals = [], []
    for gen, gt in zip(gen_set, gt_set):
        if not gen.sounding() or not gt.sounding():
            warnings.warn("skipping empty sequence in distribution similarity")
            continue
        pd_vals.append(overlapped_area(_pitch_hist(gen), _pitch_hist(gt)))
        dd_vals.append(overlapped_area(_duration_hist(gen), _duration_hist(gt)))
    if not pd_vals:
        raise DataError("no nonempty sequence pairs")
    return float(np.mean(pd_vals)), float(np.mean(dd_vals))


def expand_sixteenths(notes: NoteSequence):
    """Pitch series on a 1/16-note grid (rests skipped, min one sixteenth)."""
    series = []
    for p, d in notes.sounding():
        n = max(1, int(round(d * SIXTEENTHS_PER_BEAT)))
        series.extend([float(p)] * n)
    if not series:
        raise DataError("empty sixteenth-note expansion")
    return np.asarray(series)


def dtw_distance(a, b):
    """DTW with absolute-difference cost and steps (1,0), (0,1), (1,1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DataError("empty series")
    cost = np.abs(a[:, None] - b[None, :])
    D = np.full((a.size, b.size), np.inf)
    D[0, 0] = cost[0, 0]
    for i in range(a.size):
        for j in range(b.size):
            if i == 0 and j == 0:
                continue
            best = np.inf
            if i > 0:
                best = min(best, D[i - 1, j])
            if j > 0:
                best = min(best, D[i, j - 1])
            if i > 0 and j > 0:
                best = min(best, D[i - 1, j - 1])
            D[i, j] = cost[i, j] + best
    return float(D[-1, -1])


def melody_distance(gen: NoteSequence, gt: NoteSequence):
    """DTW between mean-centered sixteenth-grid pitch series."""
    a = expand_sixteenths(gen)
    b = expand_sixteenths(gt)
    return dtw_distance(a - a.mean(), b - b.mean())


def f0_frame_error(gen, gt, deviation=F0_DEVIATION):
    """Fraction of frames with a voicing error or >deviation relative F0 error."""
    gen = np.asarray(gen, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if gen.shape != gt.shape:
        raise DimensionError(f"track lengths differ: {gen.shape} vs {gt.shape}")
    vg = gen > 0
    vt = gt > 0
    voicing_err = vg != vt
    both = vg & vt
    pitch_err = np.zeros_like(voicing_err)
    pitch_err[both] = np.abs(gen[both] - gt[both]) > deviation * gt[both]
    return float((voicing_err | pitch_err).mean())


def evaluate_pair(gen: NoteSequence, gt: NoteSequence, gt_key=None):
    """Single-pair MelodyReport; gt_key defaults to the estimated key of gt."""
    if gt_key is None:
        gt_key = best_key(gt)
    ka = key_accuracy(gen, gt, gt_key)
    apd, td = apd_td(gen, gt)
    pd_val, dd_val = dist_similarity([gen], [gt])
    md = melody_distance(gen, gt)
    return MelodyReport(KA=ka, APD=apd, TD=td, PD=pd_val, DD=dd_val, MD=md)


_TABLE = None


def _default_table():
    global _TABLE
    if _TABLE is None:
        _TABLE = KeyProfileTable.load()
    return _TABLE
