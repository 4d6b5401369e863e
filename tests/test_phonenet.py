"""Phone classifier, one-sided Jacobi SVD, and linguistic-factor extraction."""

import numpy as np
import pytest

from xldv.corpus import (
    CorpusConfig,
    build_corpus,
    derive_rng,
    expand_labels,
    load_utterance,
)
from xldv.errors import InvalidArgumentError
from xldv.frontend import FeatureMatrix, cmvn, fbank, power_spectrum
from xldv.nn import TrainState
from xldv.phonenet import (
    LinguisticFactorExtractor,
    PhoneNetConfig,
    build_phone_classifier,
    final_affine,
    hidden_activations,
    linguistic_factor,
    make_phone_dataset,
    svd_decompose,
    train_phone_classifier,
)

SMALL_NET = PhoneNetConfig(n_phones=10, td_hidden=32)


def reconstruct_low_rank(graph, extractor):
    """U_r S_r V_r^T, the rank-r approximation of the final affine (P x H) that
    ``svd_decompose``'s factors stand for."""
    w = final_affine(graph)
    u_r = w @ extractor.v_r / np.maximum(extractor.s_r, 1e-300)
    return (u_r * extractor.s_r) @ extractor.v_r.T


def random_classifier(seed=0, n_phones=10, hidden=32):
    config = PhoneNetConfig(n_phones=n_phones, td_hidden=hidden)
    return config, build_phone_classifier(config, seed=seed, dtype=np.float64)


class TestSvdDecompose:
    def test_full_rank_reconstruction(self):
        _, g = random_classifier(seed=2)
        w = final_affine(g)
        r = min(w.shape)
        ex = svd_decompose(g, rank=r)
        recon = reconstruct_low_rank(g, ex)
        assert np.linalg.norm(w - recon) < 1e-6 * np.linalg.norm(w)

    def test_exact_rank_one(self):
        _, g = random_classifier(seed=3)
        rng = np.random.default_rng(3)
        h = g.layers[-2].params["W"].shape[0]
        p = g.layers[-2].params["W"].shape[1]
        g.layers[-2].params["W"] = np.outer(rng.normal(size=h), rng.normal(size=p))
        ex = svd_decompose(g, rank=1)
        recon = reconstruct_low_rank(g, ex)
        w = final_affine(g)
        np.testing.assert_allclose(recon, w, atol=1e-8)

    def test_eckart_young_residual_vs_full_spectrum_oracle(self):
        # random (64, 20) final affine, rank 5: residual must equal the tail
        # energy of an independently computed full spectrum
        config = PhoneNetConfig(n_phones=20, td_hidden=128)
        g = build_phone_classifier(config, seed=4, dtype=np.float64)
        rng = np.random.default_rng(4)
        g.layers[-2].params["W"] = rng.normal(size=(64, 20))  # W math: (20, 64)
        ex = svd_decompose(g, rank=5)
        w = final_affine(g)
        residual = np.linalg.norm(w - reconstruct_low_rank(g, ex))
        spectrum = np.linalg.svd(w, compute_uv=False)  # oracle
        expected = np.sqrt((spectrum[5:] ** 2).sum())
        np.testing.assert_allclose(residual, expected, rtol=1e-6)

    def test_eckart_young_beats_random_rank_r(self):
        _, g = random_classifier(seed=5)
        ex = svd_decompose(g, rank=3)
        w = final_affine(g)
        best = np.linalg.norm(w - reconstruct_low_rank(g, ex))
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = np.outer(rng.normal(size=w.shape[0]), rng.normal(size=w.shape[1]))
            for _ in range(2):
                m += np.outer(rng.normal(size=w.shape[0]), rng.normal(size=w.shape[1]))
            assert best <= np.linalg.norm(w - m) + 1e-12

    def test_invariants(self):
        _, g = random_classifier(seed=6)
        ex = svd_decompose(g, rank=8)
        assert np.all(np.diff(ex.s_r) <= 1e-12)
        assert np.all(ex.s_r >= 0)
        np.testing.assert_allclose(ex.v_r.T @ ex.v_r, np.eye(8), atol=1e-6)

    def test_sign_convention_fixes_each_v_column(self):
        # the largest-magnitude entry of each V_r column is positive, so W and
        # -W (whose singular vectors LAPACK may return with either sign) give
        # the same factors
        _, g = random_classifier(seed=8)
        ex = svd_decompose(g, rank=6)
        assert np.all(ex.v_r[np.abs(ex.v_r).argmax(axis=0), np.arange(6)] > 0)
        _, _, vt = np.linalg.svd(final_affine(g))
        np.testing.assert_allclose(np.abs(ex.v_r), np.abs(vt[:6].T), atol=1e-12)
        g.layers[-2].params["W"] = -g.layers[-2].params["W"]
        np.testing.assert_allclose(svd_decompose(g, rank=6).v_r, ex.v_r, atol=1e-12)

    def test_rank_out_of_range(self):
        _, g = random_classifier(seed=7)
        with pytest.raises(InvalidArgumentError):
            svd_decompose(g, rank=0)
        with pytest.raises(InvalidArgumentError):
            svd_decompose(g, rank=11)  # min(H, P) = n_phones = 10


class TestLinguisticFactor:
    def test_zero_hidden_gives_zero_factor(self):
        _, g = random_classifier(seed=8)
        ex = svd_decompose(g, rank=4)
        hidden = ex.v_r.shape[0]
        np.testing.assert_array_equal(np.zeros((3, hidden)) @ ex.v_r, np.zeros((3, 4)))

    def test_output_width_matches_rank(self):
        _, g = random_classifier(seed=9)
        ex = svd_decompose(g, rank=6)
        feat = FeatureMatrix("u", np.random.default_rng(0).normal(size=(15, 40)))
        assert linguistic_factor(ex, g, feat).shape == (15, 6)

    def test_matches_direct_matrix_product_oracle(self):
        _, g = random_classifier(seed=10)
        ex = svd_decompose(g, rank=5)
        rng = np.random.default_rng(1)
        feat = FeatureMatrix("u", rng.normal(size=(8, 40)))
        h = hidden_activations(g, feat)
        out = linguistic_factor(ex, g, feat)
        for t in range(8):
            expected = np.diag(np.sqrt(ex.s_r)) @ ex.v_r.T @ h[t]
            np.testing.assert_allclose(out[t], expected, atol=1e-10)


class TestPhoneChunks:
    @pytest.mark.parametrize("n_frames", [5, 17, 40])
    def test_chunk_is_edge_replicated_rows(self, n_frames):
        rng = derive_rng(9, "phone-chunks", n_frames)
        frames = rng.normal(size=(n_frames, 12))
        labels = np.arange(n_frames) % 7
        feats = [FeatureMatrix("u0", frames),
                 FeatureMatrix("u1", np.ones((3, 12)))]
        data = make_phone_dataset(feats, {"u0": labels, "u1": [0, 0, 0]})
        item = next(it for it in data.train_items + data.val_items
                    if it[0].shape[0] == n_frames)
        assert item[1] is None
        for start in (0, n_frames - 32, n_frames - 3, n_frames - 1, n_frames + 4):
            x, aux, chunk_labels = data.chunk(item, start)
            rows = [min(max(start + k, 0), n_frames - 1) for k in range(32)]
            assert x.dtype == np.float32 and aux is None
            assert x.tobytes() == frames[rows].astype(np.float32).tobytes()
            assert chunk_labels.dtype == np.int64
            np.testing.assert_array_equal(chunk_labels, labels[rows])

    def test_label_outside_phone_set_rejected(self):
        feats = [FeatureMatrix(f"u{i}", np.ones((4, 40))) for i in range(3)]
        labels = {"u0": [0, 1, 2, 3], "u1": [0, 0, 0, 0], "u2": [9, 10, 0, 0]}
        data = make_phone_dataset(feats, labels)
        graph = build_phone_classifier(SMALL_NET, seed=1)
        with pytest.raises(InvalidArgumentError, match="within 0..9"):
            train_phone_classifier(graph, data, TrainState(learning_rate=0.1,
                                                           max_epochs=0))


@pytest.fixture(scope="module")
def labeled_corpus(tmp_path_factory):
    config = CorpusConfig(
        n_train_speakers=6, n_train_utts=5, n_eval_speakers=2, n_eval_utts=1,
        n_phones=10, min_duration_s=1.2, max_duration_s=1.8,
    )
    root = tmp_path_factory.mktemp("phones")
    manifest = build_corpus(config, 55, root / "corpus")
    feats, labels = [], {}
    for rec in manifest.utterances("train"):
        utt = load_utterance(manifest, rec)
        feat = cmvn(fbank(utt, power_spectrum(utt)))
        feats.append(feat)
        labels[rec.utterance_id] = expand_labels(
            manifest.labels[rec.utterance_id], feat.n_frames
        )
    return feats, labels


class TestTrainPhoneClassifier:
    def test_ten_phones_beats_five_times_chance(self, labeled_corpus):
        feats, labels = labeled_corpus
        graph = build_phone_classifier(SMALL_NET, seed=1)
        data = make_phone_dataset(feats, labels, seed=2, val_fraction=0.15)
        state = TrainState(learning_rate=0.03, max_epochs=8, batches_per_epoch=40, seed=3)
        result = train_phone_classifier(graph, data, state)
        assert result.val_accuracy > 0.5

    def test_single_phone_inventory_is_perfect(self, tmp_path):
        config = CorpusConfig(
            n_train_speakers=2, n_train_utts=2, n_eval_speakers=2, n_eval_utts=1,
            n_phones=1, min_duration_s=1.0, max_duration_s=1.2,
        )
        manifest = build_corpus(config, 66, tmp_path / "corpus")
        feats, labels = [], {}
        for rec in manifest.utterances("train"):
            utt = load_utterance(manifest, rec)
            feat = cmvn(fbank(utt, power_spectrum(utt)))
            feats.append(feat)
            labels[rec.utterance_id] = expand_labels(
                manifest.labels[rec.utterance_id], feat.n_frames
            )
        graph = build_phone_classifier(PhoneNetConfig(n_phones=1, td_hidden=8), seed=1)
        data = make_phone_dataset(feats, labels, seed=2, val_fraction=0.3)
        state = TrainState(learning_rate=0.05, max_epochs=2, batches_per_epoch=10, seed=3)
        result = train_phone_classifier(graph, data, state)
        assert result.val_accuracy == 1.0

    def test_zero_epochs_keeps_initialization(self, labeled_corpus):
        feats, labels = labeled_corpus
        graph = build_phone_classifier(SMALL_NET, seed=4)
        before = {k: v.copy() for k, v in graph.tensors().items()}
        data = make_phone_dataset(feats, labels, seed=2)
        train_phone_classifier(graph, data, TrainState(learning_rate=0.05, max_epochs=0))
        for k, v in graph.tensors().items():
            np.testing.assert_array_equal(v, before[k])
