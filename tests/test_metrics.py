import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow import metrics
from bandflow.errors import DataError, DimensionError
from bandflow.melody import REST, NoteSequence
from bandflow.metrics import (
    F0_DEVIATION,
    REPORT_COLUMNS,
    MAX_SIXTEENTHS,
    SIXTEENTHS_PER_BEAT,
    InvalidMetric,
    KeyProfileTable,
    apd_td,
    best_key,
    dist_similarity,
    dtw_distance,
    dtw_distances,
    evaluate_pair,
    evaluate_pairs,
    expand_sixteenths,
    f0_frame_error,
    key_accuracy,
    key_correlation,
    melody_distance,
    overlapped_area,
    parse_key,
    pitch_class_histogram,
)


def _seq(pitches, durations=None, tempo=120.0):
    durations = durations or [1.0] * len(pitches)
    return NoteSequence(pitches=list(pitches), durations=list(durations), tempo=tempo)


C_MAJOR_SCALE = [60, 62, 64, 65, 67, 69, 71, 72]


def _reference_dtw(a, b):
    """The cell-by-cell DTW recurrence over a full n x m table."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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


_TABLE = KeyProfileTable.load()
_KEYS = list(_TABLE.keys())


def _reference_best_key(notes):
    """Scores each key on its own and keeps the max of (correlation, key)."""
    return max((key_correlation(notes, k), k) for k in _KEYS)[1]


def _corrcoef_key_correlation(notes, key):
    """key_correlation as np.corrcoef computes it: the oracle for its bits."""
    tonic, mode = parse_key(key)
    hist = metrics._checked_histogram(notes)
    return float(np.corrcoef(hist, np.roll(_TABLE.base[mode], tonic))[0, 1])


def _corrcoef_best_key(notes):
    """The max of (np.corrcoef score, key) over the 24 keys."""
    return max((_corrcoef_key_correlation(notes, k), k) for k in _KEYS)[1]


def _outcome(fn, *args):
    """fn's value, or the type and text of what it raised; numpy's floating
    warnings are off, so a nan or inf result is returned."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as e:   # compared, not handled
            return type(e), str(e)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _reference_sixteenths(notes):
    series = []
    for p, d in notes.sounding():
        series.extend([float(p)] * max(1, int(round(d * SIXTEENTHS_PER_BEAT))))
    return np.asarray(series)


# (pitch, beats) notes whose durations span 1e-160 to 1e150
_wide_notes = st.lists(
    st.tuples(st.integers(48, 83),
              st.one_of(st.floats(1e-160, 1e150),
                        st.sampled_from([1e-160, 1e-80, 0.25, 1.0, 1e75, 1e150]))),
    min_size=1, max_size=30)

_series = st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-1.5, 0.0, 2.0])),
                   min_size=1, max_size=40)


class TestKeyEstimation:
    def test_profile_table_loads(self):
        table = KeyProfileTable.load()
        assert table.base["major"].shape == (12,)
        assert table.base["major"][0] == pytest.approx(6.35)
        assert table.base["minor"][0] == pytest.approx(6.33)

    def test_parse_key(self):
        assert parse_key((14, "major")) == (2, "major")
        with pytest.raises(DataError):
            parse_key("H major")

    def test_histogram_duration_weighted(self):
        hist = pitch_class_histogram(_seq([60, 60, 62], [1.0, 2.0, 0.5]))
        assert hist[0] == 3.0 and hist[2] == 0.5

    def test_scale_recovers_its_key(self):
        assert best_key(_seq(C_MAJOR_SCALE)) == (0, "major")
        g_scale = [p + 7 for p in C_MAJOR_SCALE]
        assert best_key(_seq(g_scale)) == (7, "major")

    def test_constant_histogram_invalid(self):
        chromatic = _seq(list(range(60, 72)))   # every pitch class equally
        with pytest.raises(InvalidMetric):
            key_correlation(chromatic, (0, "major"))
        all_rests = NoteSequence(pitches=[REST], durations=[1.0], tempo=120.0)
        with pytest.raises(InvalidMetric):
            key_correlation(all_rests, (0, "major"))

    def test_best_key_matches_per_key_scores_on_random_songs(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            notes = _seq(rng.integers(48, 84, size=n).tolist(),
                         rng.choice([0.25, 0.5, 1.0, 1.5], size=n).tolist())
            assert best_key(notes) == _reference_best_key(notes)

    def test_best_key_matches_per_key_scores_on_equal_weight_sets(self):
        # Rotations of such histograms can tie exactly; the larger
        # (tonic, mode) of a tie must win, as max over the pairs picks.
        for size in range(2, 7):
            for classes in itertools.combinations(range(12), size):
                notes = _seq([60 + c for c in classes])
                assert best_key(notes) == _reference_best_key(notes), classes

    def test_best_key_tritone_pair(self):
        assert best_key(_seq([62, 68])) == (8, "major")

    def test_overflowing_histogram_is_data_error(self):
        notes = _seq([60, 62], [1.0, 1e300])
        with pytest.raises(DataError, match="overflows"):
            best_key(notes)
        with pytest.raises(DataError, match="overflows"):
            key_correlation(notes, (0, "major"))

    @pytest.mark.parametrize("key", ["C dorian", (3, "Major"), "C", "C major extra",
                                     ("C", "major"), (3, "major", 0), ["C", "major"], None])
    def test_bad_key_is_data_error_naming_it(self, key):
        with pytest.raises(DataError, match=re.escape(repr(key))):
            key_correlation(_seq(C_MAJOR_SCALE), key)

    def test_eleven_entry_profile_rejected(self):
        with pytest.raises(DataError, match="major profile must have 12 entries"):
            KeyProfileTable(major=[1.0] * 11, minor=list(range(12)))

    def test_zero_ground_truth_correlation_invalid(self, monkeypatch):
        def zero_scores(hist, table, keys):
            for _ in keys:
                yield 0.0
        monkeypatch.setattr(metrics, "_key_scores", zero_scores)
        gt = _seq(C_MAJOR_SCALE)
        with pytest.raises(InvalidMetric, match="ground-truth key correlation is zero"):
            key_accuracy(gt, gt, (0, "major"))

    def test_key_accuracy_identity(self):
        gt = _seq(C_MAJOR_SCALE)
        assert key_accuracy(gt, gt, (0, "major")) == pytest.approx(1.0)

    def test_key_accuracy_off_key_lower(self):
        gt = _seq(C_MAJOR_SCALE)
        off = _seq([61, 63, 66, 68, 70, 61, 63, 66])
        assert key_accuracy(off, gt, (0, "major")) < 1.0


class TestKeyScoresMatchCorrcoef:
    """np.corrcoef is the oracle for every key score: the scores must keep its
    bits, or the winners of exact ties move."""

    def test_every_equal_weight_set(self):
        for size in range(1, 12):
            for classes in itertools.combinations(range(12), size):
                notes = _seq([60 + c for c in classes])
                hist = pitch_class_histogram(notes)
                oracle = [(float(np.corrcoef(hist, np.roll(_TABLE.base[k[1]], k[0]))[0, 1]), k)
                          for k in _KEYS]
                scores = metrics._key_scores(hist, metrics._default_table(), _KEYS)
                assert list(zip(scores, _KEYS)) == oracle, classes
                assert best_key(notes) == max(oracle)[1], classes

    @settings(max_examples=300, deadline=None)
    @given(_wide_notes)
    def test_duration_weighted_histograms(self, notes):
        pitches, durations = zip(*notes)
        song = _seq(pitches, durations)
        for k in _KEYS:
            new = _outcome(key_correlation, song, k)
            assert _same(new, _outcome(_corrcoef_key_correlation, song, k)), k
        assert _outcome(best_key, song) == _outcome(_corrcoef_best_key, song)


class TestSequenceStats:
    def test_apd_td_hand_values(self):
        gen = _seq([62, 64], [1.0, 1.0], tempo=120.0)   # mean 63, 1 second
        gt = _seq([60, 62], [2.0, 2.0], tempo=120.0)    # mean 61, 2 seconds
        apd, td = apd_td(gen, gt)
        assert apd == pytest.approx(2.0)
        assert td == pytest.approx(1.0)

    def test_apd_td_requires_tempo(self):
        with pytest.raises(DataError):
            apd_td(_seq([60], tempo=None), _seq([60]))

    def test_apd_td_rests_excluded_from_pitch(self):
        gen = _seq([60, REST], [1.0, 1.0])
        apd, _ = apd_td(gen, _seq([60], [2.0]))
        assert apd == pytest.approx(0.0)

    def test_overlapped_area_closed_forms(self):
        p = np.array([0.5, 0.5, 0.0])
        assert overlapped_area(p, p) == pytest.approx(1.0)
        assert overlapped_area(p, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)
        assert overlapped_area(p, np.array([0.25, 0.25, 0.5])) == pytest.approx(0.5)

    def test_dist_similarity_identity(self):
        for song in (_seq(C_MAJOR_SCALE), _seq([60, 61], [0.5, 2.0])):
            pd_val, dd_val = dist_similarity(song, song)
            assert pd_val == pytest.approx(1.0)
            assert dd_val == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_dist_similarity_rejects_a_song_without_notes(self):
        song, rests = _seq([60, 62]), _seq([REST, REST])
        for pair in ((song, rests), (rests, song)):
            with pytest.raises(DataError, match="no sounding note"):
                dist_similarity(*pair)


class TestDtw:
    def test_identical_series_zero(self):
        a = np.random.default_rng(0).standard_normal(10)
        assert dtw_distance(a, a) == pytest.approx(0.0)

    def test_single_elements(self):
        assert dtw_distance([3.0], [5.0]) == pytest.approx(2.0)

    def test_time_stretch_free(self):
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0, 3.0]) == \
            pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            dtw_distance([], [1.0])

    def test_matches_exhaustive_path_enumeration(self):
        def brute(a, b, i, j):
            c = abs(a[i] - b[j])
            if i == 0 and j == 0:
                return c
            best = np.inf
            if i > 0:
                best = min(best, brute(a, b, i - 1, j))
            if j > 0:
                best = min(best, brute(a, b, i, j - 1))
            if i > 0 and j > 0:
                best = min(best, brute(a, b, i - 1, j - 1))
            return c + best

        rng = np.random.default_rng(1)
        for _ in range(100):
            la, lb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.integers(0, 10, size=la).astype(float)
            b = rng.integers(0, 10, size=lb).astype(float)
            assert dtw_distance(a, b) == pytest.approx(
                brute(a, b, la - 1, lb - 1))


    @settings(max_examples=300, deadline=None)
    @given(_series, _series)
    def test_equals_reference_recurrence(self, a, b):
        assert dtw_distance(a, b) == _reference_dtw(a, b)

    @pytest.mark.parametrize("la,lb", [(1, 1), (1, 37), (37, 1), (2, 40), (40, 3)])
    def test_equals_reference_on_thin_tables(self, la, lb):
        rng = np.random.default_rng(la * 100 + lb)
        a, b = rng.standard_normal(la), rng.integers(-3, 3, size=lb).astype(float)
        assert dtw_distance(a, b) == _reference_dtw(a, b)
        assert dtw_distance(b, a) == _reference_dtw(b, a)

    def test_equals_reference_on_song_length_series(self):
        rng = np.random.default_rng(2)
        a = rng.integers(55, 80, size=240).astype(float)
        b = rng.integers(55, 80, size=180).astype(float)
        a, b = a - a.mean(), b - b.mean()
        assert dtw_distance(a, b) == _reference_dtw(a, b)


# lengths of the two series of one pair: 1-70, never equal
_pair_sizes = st.tuples(st.integers(1, 70), st.integers(1, 70)).filter(lambda s: s[0] != s[1])


@st.composite
def _pair_lists(draw):
    """1-9 pairs of run-length series like the sixteenth grid (mean-centred
    pitches held for 1-8 steps).  The pairs have free sizes or one shared
    diagonal count n + m - 1, and the pair with the most diagonals is moved
    to a drawn position."""
    count = draw(st.integers(1, 9))
    if draw(st.booleans()):
        sizes = draw(st.lists(_pair_sizes, min_size=count, max_size=count))
    else:
        diagonals = draw(st.integers(2, 100))
        rows = st.integers(max(1, diagonals - 69), min(70, diagonals))
        rows = rows.filter(lambda n: 2 * n != diagonals + 1)
        sizes = [(n, diagonals + 1 - n)
                 for n in draw(st.lists(rows, min_size=count, max_size=count))]
    longest = max(range(count), key=lambda p: sum(sizes[p]))
    at = draw(st.integers(0, count - 1))
    sizes[longest], sizes[at] = sizes[at], sizes[longest]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def grid(size):
        runs = rng.integers(1, 9, size=size)
        series = np.repeat(rng.integers(48, 84, size=size), runs)[:size].astype(float)
        return series - series.mean()

    return [(grid(n), grid(m)) for n, m in sizes]


class TestDtwDistances:
    """dtw_distances advances every pair one anti-diagonal per step; each
    result is bitwise the cell-by-cell recurrence's, in input order."""

    @settings(max_examples=60, deadline=None)
    @given(_pair_lists())
    def test_equals_reference_in_input_order(self, pairs):
        got = dtw_distances(pairs)
        assert [v.hex() for v in got] == [_reference_dtw(a, b).hex() for a, b in pairs]
        for (a, b), v in zip(pairs, got):
            assert dtw_distance(a, b) == dtw_distances([(a, b)])[0] == v

    def test_no_pairs(self):
        assert dtw_distances([]) == []

    def test_empty_series_rejected_in_any_pair(self):
        with pytest.raises(DataError, match="empty series"):
            dtw_distances([([1.0, 2.0], [3.0]), ([1.0], [])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            dtw_distances([([1.0, 2.0], [3.0]), ([1.0, bad], [0.5, 2.0])])
        with pytest.raises(DataError, match="non-finite"):
            dtw_distance([bad], [1.0])


class TestMelodyDistance:
    def test_sixteenth_expansion(self):
        series = expand_sixteenths(_seq([60, 62], [1.0, 0.25]))
        np.testing.assert_array_equal(series, [60, 60, 60, 60, 62])

    def test_short_notes_keep_one_frame(self):
        series = expand_sixteenths(_seq([60], [0.01]))
        np.testing.assert_array_equal(series, [60])

    def test_all_rests_rejected(self):
        with pytest.raises(DataError):
            expand_sixteenths(NoteSequence(pitches=[REST], durations=[1.0]))

    def test_equals_note_by_note_expansion(self):
        rng = np.random.default_rng(3)
        # 0.125, 0.375 and 0.625 beats land on half sixteenths: half to even.
        lengths = [0.01, 0.125, 0.25, 0.375, 0.5, 0.625, 1.0, 1.5, 2.0, 0.3]
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pitches = [REST if r < 0.1 else int(p) for r, p in
                       zip(rng.random(n), rng.integers(0, 128, size=n))]
            if all(p == REST for p in pitches):
                continue
            notes = NoteSequence(pitches=pitches,
                                 durations=rng.choice(lengths, size=n).tolist())
            series = expand_sixteenths(notes)
            assert series.dtype == np.float64
            np.testing.assert_array_equal(series, _reference_sixteenths(notes))

    @pytest.mark.parametrize("beats", [1e300, 1e308, MAX_SIXTEENTHS / 4 + 0.25])
    def test_grid_longer_than_limit_rejected(self, beats):
        with pytest.raises(DataError, match="sixteenths"):
            expand_sixteenths(_seq([60, 62], [beats, 1.0]))

    def test_grid_at_limit_accepted(self):
        beats = MAX_SIXTEENTHS / SIXTEENTHS_PER_BEAT
        assert expand_sixteenths(_seq([60, 62], [beats - 1.0, 1.0])).size == MAX_SIXTEENTHS
        with pytest.raises(DataError):
            expand_sixteenths(_seq([60, 62], [beats - 1.0, 1.25]))

    def test_transposition_invariant(self):
        a = _seq([60, 62, 64], [0.25, 0.25, 0.25])
        b = _seq([65, 67, 69], [0.25, 0.25, 0.25])
        assert melody_distance(a, b) == pytest.approx(0.0)

    def test_self_distance_zero(self):
        a = _seq(C_MAJOR_SCALE)
        assert melody_distance(a, a) == pytest.approx(0.0)


class TestF0FrameError:
    def test_hand_counts(self):
        gt = np.array([100.0, 100.0, 0.0, 200.0, 50.0])
        gen = np.array([100.0, 130.0, 10.0, 0.0, 55.0])
        # frame 0 ok; frame 1 30% off -> error; frame 2 voicing error;
        # frame 3 voicing error; frame 4 10% off -> ok
        assert f0_frame_error(gen, gt) == pytest.approx(3 / 5)

    def test_threshold_boundary(self):
        gt = np.array([100.0])
        assert f0_frame_error(np.array([100.0 * (1 + F0_DEVIATION)]), gt) == 0.0
        assert f0_frame_error(np.array([100.0 * (1 + F0_DEVIATION) + 1e-6]), gt) == 1.0

    def test_perfect_and_all_wrong(self):
        gt = np.array([100.0, 0.0, 200.0])
        assert f0_frame_error(gt, gt) == 0.0
        assert f0_frame_error(np.array([0.0, 5.0, 500.0]), gt) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            f0_frame_error(np.zeros(3), np.zeros(4))


def _two_pass_row(gen, gt, gt_key=None):
    """evaluate_pair's row with gt's key scored a second time, by
    key_accuracy's key_correlation after best_key's search."""
    if gt_key is None:
        gt_key = best_key(gt)
    ka = key_accuracy(gen, gt, gt_key)
    rest = evaluate_pair(gen, gt, gt_key).row()[1:]
    return [ka] + rest


_short_notes = st.lists(st.tuples(st.integers(48, 83), st.sampled_from([0.25, 0.5, 1.0, 1.5])),
                        min_size=1, max_size=12)


class TestEvaluatePairScoresTheKeyOnce:
    """evaluate_pair takes gt's correlation from best_key's search; its
    report is bitwise the two-pass one, errors included."""

    @staticmethod
    def _check(gen, gt, gt_key=None):
        new = _outcome(lambda: evaluate_pair(gen, gt, gt_key).row())
        assert repr(new) == repr(_outcome(_two_pass_row, gen, gt, gt_key))

    def test_equal_weight_sets(self):
        gen = _seq([60, 62, 64, 67, 69, 62])
        for size in (1, 2, 3, 11):
            for classes in itertools.combinations(range(12), size):
                self._check(gen, _seq([60 + c for c in classes]))

    @settings(max_examples=200, deadline=None)
    @given(_short_notes, _short_notes, st.sampled_from([None, (0, "major"), (9, "minor"), (6, "major")]))
    def test_random_pairs(self, gen, gt, gt_key):
        self._check(_seq(*zip(*gen)), _seq(*zip(*gt)), gt_key)


class TestEvaluatePairs:
    def test_reports_equal_evaluate_pair_and_skip_invalid_pairs(self):
        rng = np.random.default_rng(4)
        flat = _seq(list(range(60, 72)))          # no key correlation: InvalidMetric
        songs = [_seq(rng.integers(55, 80, size=int(n)).tolist(),
                      rng.choice([0.25, 0.5, 1.0], size=int(n)).tolist())
                 for n in rng.integers(4, 20, size=8)]
        pairs = [(songs[0], songs[1]), (songs[2], flat), (songs[3], songs[4]),
                 (songs[5], songs[6]), (songs[7], songs[0])]
        got = evaluate_pairs((g, r, None, None) for g, r in pairs)
        want = [evaluate_pair(g, r) for g, r in pairs if r is not flat]
        assert [rep.row() for rep in got] == [rep.row() for rep in want]

    def test_data_error_names_the_labelled_pair(self):
        good = _seq(C_MAJOR_SCALE)
        overlong = _seq([60, 62], [1.0, 1e300])
        message = "pitch-class histogram overflows; a duration is too long"
        with pytest.raises(DataError, match=f"^second: {message}$"):
            evaluate_pairs([(good, good, None, "first"), (overlong, good, None, "second")])
        with pytest.raises(DataError, match=f"^{message}$"):
            evaluate_pairs([(overlong, good, None, None)])


class TestEvaluatePair:
    def test_identical_pair_report(self):
        gt = _seq(C_MAJOR_SCALE)
        report = evaluate_pair(gt, gt)
        assert report.KA == pytest.approx(1.0)
        assert report.APD == pytest.approx(0.0)
        assert report.TD == pytest.approx(0.0)
        assert report.PD == pytest.approx(1.0)
        assert report.DD == pytest.approx(1.0)
        assert report.MD == pytest.approx(0.0)

    def test_row_matches_column_order(self):
        gt = _seq(C_MAJOR_SCALE)
        report = evaluate_pair(gt, gt)
        assert report.row() == [getattr(report, c) for c in REPORT_COLUMNS]

    def test_explicit_key_used(self):
        gt = _seq(C_MAJOR_SCALE)
        r1 = evaluate_pair(gt, gt, gt_key=(0, "major"))
        assert r1.KA == pytest.approx(1.0)
