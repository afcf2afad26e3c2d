"""Independent reference for the melody distance the eval-melody output reports.

Plain-Python dynamic time warping over mean-centred pitch series on a
sixteenth-note grid, written from the metric's definition rather than from
the package code, so a change to the package's DTW is checked against
something it does not share.
"""

from __future__ import annotations

SIXTEENTHS_PER_BEAT = 4


def sixteenth_series(pitches, durations):
    """One entry per sixteenth for every sounding note (rests are None)."""
    series = []
    for p, d in zip(pitches, durations):
        if p is None:
            continue
        series += [float(p)] * max(1, int(round(d * SIXTEENTHS_PER_BEAT)))
    return series


def dtw(a, b):
    """Cheapest monotone alignment cost with |a_i - b_j| per matched cell."""
    inf = float("inf")
    prev = [inf] * (len(b) + 1)
    prev[0] = 0.0
    for x in a:
        cur = [inf] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            best = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = abs(x - y) + best
        prev = cur
    return prev[-1]


def melody_distance(gen, ref):
    """DTW between the mean-centred series of two (pitches, durations) songs."""
    a = sixteenth_series(*gen)
    b = sixteenth_series(*ref)
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    return dtw([x - ma for x in a], [y - mb for y in b])
