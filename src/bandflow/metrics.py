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
MAX_SIXTEENTHS = 2 ** 20   # longest song grid the melody distance accepts

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
        self._rotated = {(tonic, mode): np.roll(self.base[mode], tonic)
                         for tonic, mode in self.keys()}
        for prof in self._rotated.values():
            prof.flags.writeable = False

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
        return self._rotated[tonic % 12, mode]

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


def _checked_histogram(notes):
    hist = pitch_class_histogram(notes)
    with np.errstate(over="ignore"):   # an overflow is reported below
        spread = hist.std()
    if spread == 0:
        raise InvalidMetric("constant pitch-class histogram; correlation undefined")
    if not np.isfinite(spread):
        raise DataError("pitch-class histogram overflows; a duration is too long")
    return hist


def key_correlation(notes: NoteSequence, key):
    """Pearson correlation of the duration-weighted pitch-class histogram
    with the key's reference profile."""
    tonic, mode = parse_key(key)
    hist = _checked_histogram(notes)
    return float(np.corrcoef(hist, _default_table().profile(tonic, mode))[0, 1])


def best_key(notes: NoteSequence):
    """Most correlated of the 24 keys; a tie goes to the larger (tonic, mode).

    Each key gets its own ``np.corrcoef`` call, not one row of a 24x12
    product: rotations of a histogram can tie exactly, and the winner of a
    tie must not depend on how the sums were rounded.
    """
    hist = _checked_histogram(notes)
    table = _default_table()
    return max((float(np.corrcoef(hist, table.profile(*k))[0, 1]), k)
               for k in table.keys())[1]


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
    sounding = notes.sounding()
    if not sounding:
        raise DataError("empty sixteenth-note expansion")
    pitches, beats = np.asarray(sounding, dtype=np.float64).T
    # Clipping cannot overflow, and a clipped note alone exceeds the limit.
    beats = np.minimum(beats, MAX_SIXTEENTHS)
    counts = np.maximum(1.0, np.rint(beats * SIXTEENTHS_PER_BEAT))
    if counts.sum() > MAX_SIXTEENTHS:
        raise DataError(f"song spans more than {MAX_SIXTEENTHS} sixteenths")
    return np.repeat(pitches, counts.astype(np.int64))


def dtw_distance(a, b):
    """DTW with absolute-difference cost and steps (1,0), (0,1), (1,1).

    Cells with equal i + j do not depend on each other, so the table is
    filled one anti-diagonal at a time from the two diagonals before it;
    memory is O(n + m). A diagonal is stored by i + 1, with inf in every slot
    outside its cells; slot 0 of diagonal -2 is the virtual cell
    D[-1, -1] = 0. Each cell adds the same cost to the same minimum as the
    cell-by-cell recurrence, so the result is bitwise the same.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DataError("empty series")
    n, m = a.size, b.size
    b_rev = b[::-1].copy()
    older = np.full(n + 1, np.inf)
    older[0] = 0.0
    last = np.full(n + 1, np.inf)
    cur = np.full(n + 1, np.inf)
    cost = np.empty(n)
    for k in range(n + m - 1):
        lo, hi = max(0, k - m + 1), min(k + 1, n)     # cells (i, k - i), lo <= i < hi
        out, c = cur[lo + 1:hi + 1], cost[:hi - lo]
        np.minimum(last[lo:hi], last[lo + 1:hi + 1], out=out)
        np.minimum(out, older[lo:hi], out=out)
        np.subtract(a[lo:hi], b_rev[m - 1 - k + lo:m - 1 - k + hi], out=c)
        np.add(np.abs(c, out=c), out, out=out)
        # cur holds diagonal k - 3's values. Neither lo nor hi decreases
        # with k, so of its stale slots only slot lo is read again.
        cur[lo] = np.inf
        older, last, cur = last, cur, older
    return float(last[n])


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
