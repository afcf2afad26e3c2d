import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandflow.errors import BandflowError, BoundsError, DataError, DimensionError
from bandflow.melody import (
    REST,
    MelodyModel,
    NoteSequence,
    load_notes,
    melody_loss,
    save_notes,
)
from bandflow.optim import Adam
from bandflow.tensor import Tape, Tensor, backward


class TestNoteSequence:
    def test_validation(self):
        with pytest.raises(DimensionError):
            NoteSequence(pitches=[60], durations=[1.0, 1.0])
        with pytest.raises(DataError):
            NoteSequence(pitches=[128], durations=[1.0])
        with pytest.raises(DataError):
            NoteSequence(pitches=[60], durations=[0.0])

    def test_rest_allowed_and_filtered(self):
        ns = NoteSequence(pitches=[60, REST, 62], durations=[1.0, 0.5, 1.0])
        assert ns.sounding() == [(60, 1.0), (62, 1.0)]

    def test_total_seconds(self):
        ns = NoteSequence(pitches=[60, 62], durations=[2.0, 2.0], tempo=120.0)
        assert ns.total_seconds() == pytest.approx(2.0)
        with pytest.raises(DataError):
            NoteSequence(pitches=[60], durations=[1.0]).total_seconds()
        for durations, tempo in (([4.0], 1e-320), ([1e308, 1e308], 120.0)):
            ns = NoteSequence(pitches=[60] * len(durations), durations=durations, tempo=tempo)
            with pytest.raises(DataError, match="song length overflows"):
                ns.total_seconds()

    def test_file_round_trip(self, tmp_path):
        ns = NoteSequence(pitches=[60, REST, 71], durations=[1.0, 0.25, 0.5],
                          tempo=90.0)
        path = tmp_path / "song.notes"
        save_notes(ns, path)
        back = load_notes(path)
        assert back.pitches == ns.pitches
        assert back.durations == ns.durations
        assert back.tempo == ns.tempo

    @pytest.mark.parametrize("bad", ["bogus", "60,1,2", "6O,1", "60,one", "tempo=fast"])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "song.notes"
        path.write_text(f"tempo=120\n60,1\n\n{bad}\n62,1\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}:4: malformed line")):
            load_notes(path)

    @pytest.mark.parametrize("line", ["60,nan", "60,inf", "60,-1", "200,1", "tempo=0",
                                      "tempo=nan"])
    def test_invalid_value_names_file(self, tmp_path, line):
        path = tmp_path / "song.notes"
        path.write_text(f"60,1\n{line}\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: ")):
            load_notes(path)

    @pytest.mark.parametrize("pitch", ["-1", "-7", "128"])
    def test_numeric_pitch_out_of_range_names_line(self, tmp_path, pitch):
        path = tmp_path / "song.notes"
        path.write_text(f"tempo=120\nR,1\n{pitch},1\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: line 3: pitch {pitch} ")):
            load_notes(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.text(),
        st.builds("{},{}".format,
                  st.one_of(st.just("R"), st.integers(-3, 200), st.text(max_size=3)),
                  st.one_of(st.floats(), st.text(max_size=3))),
        st.builds("tempo={}".format, st.one_of(st.floats(), st.text(max_size=3))),
    ), max_size=6))
    def test_arbitrary_text_raises_only_package_errors(self, tmp_path, lines):
        path = tmp_path / "fuzz.notes"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            load_notes(path)
        except BandflowError:
            pass


class TestLosses:
    def test_melody_loss_perfect_prediction(self):
        target = NoteSequence(pitches=[3, 1], durations=[1.0, 0.5])
        logits = np.full((2, 5), -100.0)
        logits[0, 3] = logits[1, 1] = 100.0
        val = melody_loss(Tensor(logits[None]), Tensor([[1.0, 0.5]]), [target])
        assert val.item() == pytest.approx(0.0, abs=1e-10)

    def test_melody_loss_duration_term(self):
        target = NoteSequence(pitches=[0], durations=[1.0])
        logits = np.array([[[100.0, -100.0]]])
        val = melody_loss(Tensor(logits), Tensor([[1.5]]), [target])
        assert val.item() == pytest.approx(0.25, abs=1e-10)

    def test_melody_loss_length_mismatch(self):
        target = NoteSequence(pitches=[0, 1], durations=[1.0, 1.0])
        with pytest.raises(DimensionError):
            melody_loss(Tensor(np.zeros((1, 1, 2))), Tensor([[1.0]]), [target])


class TestMelodyModel:
    def _model(self, seed=0, **kw):
        return MelodyModel(n_phonemes=8, n_tags=3,
                           rng=np.random.default_rng(seed), n_pitches=16,
                           width=16, layers=1, **kw)

    def test_output_shapes_and_positive_durations(self):
        model = self._model()
        logits, dur = model.forward(np.array([0, 3, 5]), 1)
        assert logits.shape == (3, 16)
        assert dur.shape == (3,)
        assert (dur.data > 0).all()

    def test_id_bounds_checked(self):
        model = self._model()
        with pytest.raises(BoundsError):
            model.forward(np.array([8]), 0)
        with pytest.raises(BoundsError):
            model.forward(np.array([0]), 3)

    def test_tag_changes_output(self):
        model = self._model(seed=1)
        ph = np.array([2, 4])
        l0, _ = model.forward(ph, 0)
        l1, _ = model.forward(ph, 1)
        assert np.abs(l0.data - l1.data).max() > 1e-8

    def test_overfits_tiny_song(self):
        model = self._model(seed=2)
        target = NoteSequence(pitches=[4, 7, 4, 9], durations=[1.0, 0.5, 1.0, 0.5])
        phonemes = np.array([0, 1, 2, 3])
        opt = Adam(model.params, lr=5e-3)
        for _ in range(250):
            with Tape():
                logits, dur = model.forward(phonemes[None], [0])
                backward(melody_loss(logits, dur, [target]))
            opt.step()
            opt.zero_grad()
        pred = model.predict(phonemes, 0, 120.0)
        assert pred.pitches == target.pitches
        np.testing.assert_allclose(pred.durations, target.durations, atol=0.05)
