"""Front-end feature extraction: framing, filterbanks, deltas, edge context, CMVN."""

import numpy as np
import pytest

from xldv import frontend
from xldv.corpus import SpeakerProfile, Utterance, make_inventory, synth_utterance
from xldv.errors import InvalidArgumentError
from xldv.frontend import (
    FeatureMatrix,
    add_deltas,
    cmvn,
    edge_index,
    fbank,
    filter_band_edges,
    mel_filterbank,
    mfcc,
)


def make_utt(samples, utt_id="u0"):
    samples = np.asarray(samples)
    if samples.dtype != np.int16:
        samples = np.round(np.clip(samples, -1, 1) * 32767).astype(np.int16)
    return Utterance(utt_id, "spk", "L", [(0, 0)], samples)


def tone(freq, duration_s=2.5, amp=0.5):
    t = np.arange(int(duration_s * 8000)) / 8000.0
    return make_utt(amp * np.sin(2 * np.pi * freq * t))


class TestFbank:
    def test_framing_arithmetic(self):
        feat = fbank(tone(440.0, duration_s=2.5))
        assert feat.data.shape == (248, 40)  # 1 + (20000-200)//80

    def test_all_zero_audio_constant_floor_rows(self):
        feat = fbank(make_utt(np.zeros(4000, dtype=np.int16)))
        assert np.allclose(feat.data, feat.data[0])
        assert np.allclose(feat.data[0], np.log(frontend.LOG_FLOOR))

    def test_tone_lands_in_correct_mel_bin_vs_dft_oracle(self):
        # Oracle: direct DFT of one windowed frame, same filterbank weights.
        utt = tone(1000.0)
        feat = fbank(utt)
        frame = utt.samples[:200].astype(np.float64) / 32768.0 * np.hamming(200)
        n = np.arange(200)
        dft = np.array([
            np.sum(frame * np.exp(-2j * np.pi * k * n / 256))
            for k in range(129)
        ])
        oracle = np.log(np.maximum(np.abs(dft) ** 2 @ mel_filterbank(40).T, frontend.LOG_FLOOR))
        np.testing.assert_allclose(feat.data[0], oracle, atol=1e-8)
        peak = int(np.argmax(feat.data[10]))
        lo, hi = filter_band_edges(40)[peak]
        assert lo <= 1000.0 <= hi

    def test_too_short_audio_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fbank(make_utt(np.zeros(100, dtype=np.int16)))

    def test_finite_on_random_pcm(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            samples = rng.integers(-32768, 32767, 2000).astype(np.int16)
            assert np.all(np.isfinite(fbank(make_utt(samples)).data))
            assert np.all(np.isfinite(mfcc(make_utt(samples)).data))


class TestMfcc:
    def test_dimension_is_twenty(self):
        assert mfcc(tone(500.0)).dim == 20

    def test_all_zero_audio_constant_rows(self):
        feat = mfcc(make_utt(np.zeros(4000, dtype=np.int16)))
        assert np.allclose(feat.data, feat.data[0])

    def test_dct_stage_matches_direct_cosine_sum(self):
        # Oracle: orthonormal DCT-II evaluated term by term on one frame.
        utt = tone(700.0)
        feat = mfcc(utt)
        frame = utt.samples[:200].astype(np.float64) / 32768.0
        power = np.abs(np.fft.rfft(frame * np.hamming(200), 256)) ** 2
        logmel = np.log(np.maximum(power @ mel_filterbank(23).T, frontend.LOG_FLOOR))
        m = 23
        direct = np.zeros(20)
        for k in range(1, 20):
            basis = np.cos(np.pi * k * (2 * np.arange(m) + 1) / (2 * m))
            direct[k] = np.sqrt(2.0 / m) * np.sum(logmel * basis)
        direct[0] = np.log(np.maximum(np.sum(frame**2), frontend.LOG_FLOOR))
        np.testing.assert_allclose(feat.data[0], direct, atol=1e-10)


class TestDeltas:
    def test_dims_and_frames(self):
        feat = mfcc(tone(300.0))
        out = add_deltas(feat)
        assert out.data.shape == (feat.n_frames, 60)

    def test_constant_input_zero_deltas(self):
        feat = FeatureMatrix("u", "s", "L", np.tile(np.arange(20.0), (30, 1)))
        out = add_deltas(feat)
        assert np.allclose(out.data[:, 20:], 0.0)

    def test_linear_ramp_matches_regression_oracle(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=20)
        data = np.arange(40.0)[:, None] * c[None, :]
        out = add_deltas(FeatureMatrix("u", "s", "L", data))
        # interior frames of a linear ramp have slope exactly c
        np.testing.assert_allclose(out.data[2:-2, 20:40], np.tile(c, (36, 1)), atol=1e-10)
        # oracle: the regression formula evaluated by brute force incl. edges
        def brute_delta(x):
            t_max = x.shape[0] - 1
            d = np.zeros_like(x)
            for t in range(x.shape[0]):
                num = sum(
                    n * (x[min(t + n, t_max)] - x[max(t - n, 0)]) for n in (1, 2)
                )
                d[t] = num / (2 * (1 + 4))
            return d
        np.testing.assert_allclose(out.data[:, 20:40], brute_delta(data), atol=1e-12)
        np.testing.assert_allclose(out.data[:, 40:], brute_delta(brute_delta(data)), atol=1e-12)

    def test_wrong_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            add_deltas(FeatureMatrix("u", "s", "L", np.ones((5, 40))))


def clamp_oracle(n_frames, t, o):
    return min(max(t + o, 0), n_frames - 1)


class TestEdgeIndex:
    @pytest.mark.parametrize("n_frames", [1, 2, 5, 12])
    def test_matches_scalar_oracle(self, n_frames):
        idx = np.arange(-3, n_frames + 3)
        offsets = np.arange(-n_frames - 4, n_frames + 5)  # wider than T
        out = edge_index(n_frames, idx, offsets)
        assert out.shape == (len(idx), len(offsets))
        for i, t in enumerate(idx):
            for j, o in enumerate(offsets):
                assert out[i, j] == clamp_oracle(n_frames, t, o)

    @pytest.mark.parametrize("start", [-2, 0, 3, 9])
    def test_scalar_start(self, start):
        out = edge_index(7, start, np.arange(6))
        assert out.shape == (6,)
        assert out.tolist() == [clamp_oracle(7, start, k) for k in range(6)]


class TestSplice:
    """A +-4 splice is one ``edge_index`` gather over every frame."""

    @staticmethod
    def splice(data):
        n = data.shape[0]
        return data[edge_index(n, np.arange(n), range(-4, 5))].reshape(n, -1)

    def test_single_frame_replicates(self):
        row = np.arange(8.0)[None, :]
        np.testing.assert_array_equal(self.splice(row), np.tile(row, (1, 9)))

    def test_rows_match_index_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(12, 5))
        out = self.splice(data)
        for t in range(12):
            expected = np.concatenate(
                [data[min(max(t + o, 0), 11)] for o in range(-4, 5)]
            )
            np.testing.assert_array_equal(out[t], expected)


class TestCmvn:
    def test_zero_mean(self):
        rng = np.random.default_rng(1)
        out = cmvn(FeatureMatrix("u", "s", "L", rng.normal(2.0, 3.0, (50, 40))))
        assert np.abs(out.data.mean(axis=0)).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = cmvn(FeatureMatrix("u", "s", "L", rng.normal(size=(40, 10))))
        twice = cmvn(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-10)

    def test_unit_variance_vs_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 0.3, (50, 40))
        out = cmvn(FeatureMatrix("u", "s", "L", data))
        # independent two-pass variance computation
        mean = np.array([sum(col) / len(col) for col in data.T])
        var = np.array(
            [sum((col - m) ** 2) / len(col) for col, m in zip(data.T, mean)]
        )
        expected = (data - mean) / np.sqrt(var)
        np.testing.assert_allclose(out.data, expected, atol=1e-8)
        assert np.abs((out.data**2).mean(axis=0) - 1.0).max() < 1e-8

    def test_constant_dim_left_centered(self):
        data = np.column_stack([np.full(20, 7.0), np.random.default_rng(0).normal(size=20)])
        out = cmvn(FeatureMatrix("u", "s", "L", data))
        np.testing.assert_allclose(out.data[:, 0], 0.0, atol=1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cmvn(FeatureMatrix("u", "s", "L", np.ones((1, 4))))


def test_pipeline_features_on_synth_audio():
    inv = make_inventory(5, "L", 6)
    spk = SpeakerProfile("s", 140.0, 1.0, -3.0, 1.0)
    utt = synth_utterance(spk, inv, [0, 1, 2, 3], 2.0, seed=11, utterance_id="x")
    fb = cmvn(fbank(utt))
    mf = cmvn(add_deltas(mfcc(utt)))
    assert fb.dim == 40 and mf.dim == 60
    assert fb.n_frames == mf.n_frames
