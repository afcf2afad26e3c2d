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
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import BandflowError, DataError, DimensionError
from .melody import NoteSequence

PITCH_BINS = 128
DURATION_BINS = 32
DURATION_RANGE = (0.0, 4.0)       # beats
SIXTEENTHS_PER_BEAT = 4
F0_DEVIATION = 0.2
MAX_SIXTEENTHS = 2 ** 20   # longest song grid the melody distance accepts

MODES = ("major", "minor")

REPORT_COLUMNS = ("KA", "APD", "TD", "PD", "DD", "MD")

# np.cov's 1 / (observations - ddof) factor for a 12-bin histogram
_COV_SCALE = np.true_divide(1, 11)


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
        # Centred one rotation at a time: rotating a profile reorders its sum.
        self._centred = {(tonic, mode): _centre(np.roll(self.base[mode], tonic))
                         for tonic, mode in self.keys()}
        for prof in self._centred.values():
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

    def keys(self):
        for mode in MODES:
            for tonic in range(12):
                yield tonic, mode


def parse_key(key):
    """A (tonic, mode) key as (tonic % 12, mode); any other key is a
    DataError that names it."""
    if not isinstance(key, tuple) or len(key) != 2 or key[1] not in MODES:
        raise DataError(f"bad key {key!r}; expected (tonic, 'major' or 'minor')")
    try:
        return int(key[0]) % 12, key[1]
    except (TypeError, ValueError):
        raise DataError(f"bad key {key!r}; the tonic must be an integer") from None


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


def _centre(values):
    """A 12-vector minus its mean, as np.cov centres one row of its input."""
    row = values[None, :]
    return (row - row.mean(axis=1)[:, None])[0]


def _key_scores(hist, table, keys):
    """Yields, for each key, the correlation np.corrcoef gives for hist and
    the key's rotated profile, bitwise, without np.cov's argument handling.

    The histogram is centred once and each key's profile comes centred from
    the table; each key then gets np.cov's own 2x2 symmetric product of
    [hist; profile], its scaling, and np.corrcoef's two divisions and clip.
    Keys are never stacked into one product: that rounds differently and
    moves the winners of exact ties.  The scalar steps stay on np.float64,
    so a zero variance gives nan or inf as np.corrcoef does.
    """
    x = np.empty((2, 12))
    x[0] = _centre(hist)
    for key in keys:
        x[1] = table._centred[key]
        c = np.dot(x, x.T)
        c *= _COV_SCALE
        r = c[0, 1] / np.sqrt(c[0, 0]) / np.sqrt(c[1, 1])
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
        yield float(r)


def key_correlation(notes: NoteSequence, key):
    """Pearson correlation of the duration-weighted pitch-class histogram
    with the key's reference profile.

    Bitwise np.corrcoef's value: the song is centred once, then the key
    costs one 2x12 product (see _key_scores).
    """
    key = parse_key(key)
    hist = _checked_histogram(notes)
    return next(_key_scores(hist, _default_table(), (key,)))


def best_key(notes: NoteSequence):
    """(correlation, key) of the most correlated of the 24 keys; a tie goes
    to the larger (tonic, mode), and the score is bitwise
    key_correlation(notes, key).

    The song's histogram is built and centred once; each key then costs one
    2x12 product, whose score is bitwise np.corrcoef's (see _key_scores).
    Each key gets its own product, not one row of a 24x12 product: rotations
    of a histogram can tie exactly, and the winner of a tie must not depend
    on how the sums were rounded.
    """
    hist = _checked_histogram(notes)
    table = _default_table()
    keys = table._centred.keys()
    return max(zip(_key_scores(hist, table, keys), keys))


def apd_td(gen: NoteSequence, gt: NoteSequence):
    """(average-pitch difference, total-duration difference in seconds)."""
    gp = [p for p, _ in gen.sounding()]
    tp = [p for p, _ in gt.sounding()]
    if not gp or not tp:
        raise DataError("empty note sequence")
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
    total = hist.sum()
    if not total:
        raise DataError("pitch histogram of a song with no sounding note")
    return hist / total


def _duration_hist(notes):
    lo, hi = DURATION_RANGE
    d = np.clip(np.asarray(notes.durations, dtype=np.float64), lo, np.nextafter(hi, lo))
    hist, _ = np.histogram(d, bins=DURATION_BINS, range=DURATION_RANGE)
    return hist / hist.sum()


def dist_similarity(gen: NoteSequence, gt: NoteSequence):
    """One pair's histogram overlaps: (pitch PD, duration DD)."""
    return (overlapped_area(_pitch_hist(gen), _pitch_hist(gt)),
            overlapped_area(_duration_hist(gen), _duration_hist(gt)))


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
    """DTW with absolute-difference cost and steps (1,0), (0,1), (1,1):
    the one-pair case of dtw_distances."""
    return dtw_distances([(a, b)])[0]


def dtw_distances(pairs):
    """dtw_distance of each (a, b) pair, in input order; the pairs advance
    together, one anti-diagonal of every table per step.

    Cells with equal i + j do not depend on each other, so a table fills one
    anti-diagonal at a time from the two before it.  A pair's rows are its
    longer series.  Pair q owns slots off[q] to off[q] + n[q] of each
    diagonal's flat buffer: a boundary (row -1), then its rows.  Pairs sit
    longest first (most diagonals), so the live pairs are a prefix and one
    slice serves them all, from the first pair's lowest real row to the last
    live pair's highest, shrinking as pairs finish.  Memory is
    O(sum of n + m); nothing is padded to the longest pair.

    A cell's cost is |A[x] - B[x + shift - k]|: A holds the rows, with inf in
    each boundary slot, and B each pair's other series reversed, so one
    shifted slice of B meets every row i at its column k - i.  A slot with
    no such column reads a zero pad or another pair's value and never feeds
    a real cell: a column below 0 stays inf, as its neighbours are, and
    columns from m up feed only each other and the next pair's boundary,
    which the inf in A keeps inf.  Every real cell adds the same cost to the
    same minimum as the cell-by-cell recurrence, so each result is bitwise
    the same; DTW is symmetric bit for bit, so which series gives the rows
    does not matter.  A non-finite value would break that bookkeeping and is
    a DataError.
    """
    series = []
    for a, b in pairs:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.size == 0 or b.size == 0:
            raise DataError("empty series")
        series.append((a, b) if a.size >= b.size else (b, a))
    if not series:
        return []
    order = sorted(range(len(series)), key=lambda p: -sum(s.size for s in series[p]))
    n = [series[p][0].size for p in order]
    m = [series[p][1].size for p in order]
    off = [0]
    for size in n:
        off.append(off[-1] + size + 1)
    total = off.pop()
    # Longest first, with the longer series as rows, so n[q] >= m[q + 1]:
    # pair q + 1's B values start above pair q's, and every B slice stays
    # inside B.
    shift = m[0] - 1
    A = np.zeros(total)
    B = np.zeros(total + shift)
    for o, p in zip(off, order):
        a, b = series[p]
        A[o + 1:o + 1 + a.size] = a
        B[o + shift + 2 - b.size:o + shift + 2] = b[::-1]
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DataError("non-finite value in series")
    A[off] = np.inf
    rows0 = np.add(off, 1)
    older = np.full(total, np.inf)
    last = np.full(total, np.inf)
    last[rows0] = np.abs(A[rows0] - B[rows0 + shift])    # diagonal 0: D[0, 0]
    cur = np.full(total, np.inf)
    cost = np.empty(total)
    final = [rows + cols - 2 for rows, cols in zip(n, m)]   # each pair's last diagonal
    found = np.empty(len(order))
    minimum, subtract, add, absolute = np.minimum, np.subtract, np.add, np.abs
    live, k = len(order), 0
    while True:
        done = live
        while live and final[live - 1] == k:
            live -= 1
        found[order[live:done]] = last[[off[q] + n[q] for q in range(live, done)]]
        if not live:
            break
        # Diagonals until the last live pair, q, finishes: rows from the
        # first pair's lowest real row to q's highest.
        q = live - 1
        start, stop = off[q] + 1, off[q] + 1 + n[q]
        for k in range(k + 1, final[q] + 1):
            s, e = max(1, k - m[0] + 2), min(start + k + 1, stop)
            out, c = cur[s:e], cost[:e - s]
            minimum(last[s - 1:e - 1], last[s:e], out=out)
            minimum(out, older[s - 1:e - 1], out=out)
            subtract(A[s:e], B[s + shift - k:e + shift - k], out=c)
            add(absolute(c, out=c), out, out=out)
            older, last, cur = last, cur, older
    return found.tolist()


def _centred_grids(gen, gt):
    """The mean-centred sixteenth-grid pitch series whose DTW is MD."""
    a = expand_sixteenths(gen)
    b = expand_sixteenths(gt)
    return a - a.mean(), b - b.mean()


def melody_distance(gen: NoteSequence, gt: NoteSequence):
    """DTW between mean-centered sixteenth-grid pitch series."""
    return dtw_distance(*_centred_grids(gen, gt))


def f0_frame_error(gen, gt):
    """Fraction of frames with a voicing error or a relative F0 error above
    F0_DEVIATION."""
    gen = np.asarray(gen, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if gen.shape != gt.shape:
        raise DimensionError(f"track lengths differ: {gen.shape} vs {gt.shape}")
    vg = gen > 0
    vt = gt > 0
    voicing_err = vg != vt
    both = vg & vt
    pitch_err = np.zeros_like(voicing_err)
    pitch_err[both] = np.abs(gen[both] - gt[both]) > F0_DEVIATION * gt[both]
    return float((voicing_err | pitch_err).mean())


def evaluate_pairs(pairs):
    """The MelodyReport of each (gen, gt, gt_key, label) tuple, in order,
    leaving out each pair whose metrics are undefined (InvalidMetric).

    A gt_key of None stands for the key best_key finds for gt, and the score
    of that search is gt's correlation in KA.  Pairs are scored one at a
    time, so the first error is the first bad pair's; a DataError from
    scoring is re-raised as "label: message" unless the label is None.  Only
    the DTWs wait: every MD comes from one dtw_distances call.
    """
    kept, grids = [], []
    for gen, gt, gt_key, label in pairs:
        try:
            terms, grid = _report_terms(gen, gt, gt_key)
        except InvalidMetric:
            continue
        except DataError as e:
            if label is None:
                raise
            raise DataError(f"{label}: {e}") from None
        kept.append(terms)
        grids.append(grid)
    return [MelodyReport(*terms, MD=md) for terms, md in zip(kept, dtw_distances(grids))]


def _report_terms(gen, gt, gt_key):
    """One pair's KA, APD, TD, PD and DD, and the two series MD is the DTW
    of.  KA is the ratio of gen's correlation with gt's key to gt's own."""
    if gt_key is None:
        r, gt_key = best_key(gt)
    else:
        r = key_correlation(gt, gt_key)
    if r == 0:
        raise InvalidMetric("ground-truth key correlation is zero")
    ka = key_correlation(gen, gt_key) / r
    apd, td = apd_td(gen, gt)
    pd_val, dd_val = dist_similarity(gen, gt)
    return (ka, apd, td, pd_val, dd_val), _centred_grids(gen, gt)


_TABLE = None


def _default_table():
    global _TABLE
    if _TABLE is None:
        _TABLE = KeyProfileTable.load()
    return _TABLE
