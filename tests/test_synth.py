import numpy as np
import pytest

from bandflow.errors import ConfigError
from bandflow.synth import (
    FLOW2D_CENTERS,
    FLOW2D_SIGMA,
    GRAMMAR_BASE_PITCH,
    GRAMMAR_SONG_NOTES,
    GRAMMAR_TEMPI,
    MAJOR_SCALE,
    gen_flow2d,
    gen_melody_grammar,
    gen_style_toy,
    gen_toy_pairs,
    tag_transform,
)


class TestFlow2d:
    def test_deterministic(self):
        np.testing.assert_array_equal(gen_flow2d(7, 500), gen_flow2d(7, 500))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_flow2d(0, 500), gen_flow2d(1, 500))

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            gen_flow2d(0, 99)

    def test_mixture_statistics(self):
        x = gen_flow2d(0, 20000)
        left = x[x[:, 0] < 0]
        right = x[x[:, 0] >= 0]
        # roughly equal weights
        assert abs(len(left) / len(x) - 0.5) < 0.02
        np.testing.assert_allclose(left.mean(axis=0), FLOW2D_CENTERS[0], atol=0.02)
        np.testing.assert_allclose(right.mean(axis=0), FLOW2D_CENTERS[1], atol=0.02)
        assert abs(left.std(axis=0).mean() - FLOW2D_SIGMA) < 0.02


class TestToyPairs:
    def test_deterministic(self):
        a = gen_toy_pairs(3, 5, n_tags=3)
        b = gen_toy_pairs(3, 5, n_tags=3)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.v, pb.v)
            np.testing.assert_array_equal(pa.a, pb.a)
            assert pa.tag == pb.tag

    def test_target_matches_known_transform(self):
        pairs = gen_toy_pairs(1, 8, n_tags=3)
        for p in pairs:
            np.testing.assert_allclose(p.a, tag_transform(p.v, p.tag, 3), atol=1e-12)

    def test_vocal_predicts_accompaniment(self):
        # the transform is smooth and monotone in v, so correlation is high
        for p in gen_toy_pairs(2, 6, n_tags=3):
            r = np.corrcoef(p.v.ravel(), p.a.ravel())[0, 1]
            assert r > 0.5

    def test_tags_distinguishable(self):
        # the same vocal track maps to different targets under different tags
        p = gen_toy_pairs(4, 1, n_tags=3)[0]
        others = [tag_transform(p.v, t, 3) for t in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(others[i] - others[j]).mean() > 0.05

    def test_needs_two_tags(self):
        with pytest.raises(ConfigError):
            gen_toy_pairs(0, 4, n_tags=1)


class TestMelodyGrammar:
    def test_deterministic(self):
        a = gen_melody_grammar(5, 4)
        b = gen_melody_grammar(5, 4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.phonemes, sb.phonemes)
            assert sa.notes.pitches == sb.notes.pitches

    def test_pitch_rule_holds(self):
        for song in gen_melody_grammar(0, 20):
            for ph, pitch in zip(song.phonemes, song.notes.pitches):
                assert pitch == GRAMMAR_BASE_PITCH + song.tag + MAJOR_SCALE[ph]

    def test_durations_follow_parity_rule(self):
        for song in gen_melody_grammar(1, 10):
            for ph, d in zip(song.phonemes, song.notes.durations):
                assert d == (0.5 if ph % 2 == 0 else 1.0)

    def test_tempo_from_allowed_set(self):
        for song in gen_melody_grammar(2, 30):
            assert song.notes.tempo in GRAMMAR_TEMPI

    def test_all_keys_appear(self):
        tags = {s.tag for s in gen_melody_grammar(3, 200)}
        assert tags == set(range(12))

    @pytest.mark.parametrize("seed", range(5))
    def test_degrees_match_the_np_clip_walk(self, seed):
        """The scalar min/max walk makes the draws and degrees of the
        np.clip form it replaced."""
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(12):
            tonic = int(rng.integers(12))
            rng.integers(len(GRAMMAR_TEMPI))
            degree = int(rng.integers(7))
            degrees = []
            for _ in range(GRAMMAR_SONG_NOTES):
                degrees.append(degree)
                degree = int(np.clip(degree + rng.integers(-2, 3), 0, 6))
            expected.append((tonic, degrees))
        songs = gen_melody_grammar(seed, 12)
        assert [(s.tag, s.phonemes.tolist()) for s in songs] == expected


class TestStyleToy:
    def test_deterministic(self):
        a = gen_style_toy(6, 5, n_tags=4)
        b = gen_style_toy(6, 5, n_tags=4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x1, sb.x1)

    def test_target_is_function_of_tag_and_phoneme(self):
        samples = gen_style_toy(0, 50, n_tags=3, n_phonemes=4)
        seen = {}
        for s in samples:
            for i, ph in enumerate(s.phonemes):
                key = (s.tag, int(ph))
                col = s.x1[:, i]
                if key in seen:
                    np.testing.assert_array_equal(col, seen[key])
                else:
                    seen[key] = col

    def test_tags_produce_distinct_targets(self):
        samples = gen_style_toy(1, 100, n_tags=2, n_phonemes=4)
        by_tag = {}
        for s in samples:
            for i, ph in enumerate(s.phonemes):
                by_tag.setdefault((s.tag, int(ph)), s.x1[:, i])
        for ph in range(4):
            if (0, ph) in by_tag and (1, ph) in by_tag:
                assert np.abs(by_tag[0, ph] - by_tag[1, ph]).max() > 1e-6
