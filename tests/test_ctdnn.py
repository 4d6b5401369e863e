"""CT-DNN structure, receptive field, feature extraction, d-vectors, training."""

import numpy as np
import pytest

from xldv.corpus import CorpusConfig, build_corpus, derive_rng
from xldv.ctdnn import (
    CTDNNConfig,
    build_phone_aware,
    build_phone_blind,
    contiguous_labels,
    dvector,
    extract_frame_features,
    feature_layer_index,
    make_speaker_dataset,
    receptive_field,
    to_input_tensor,
    train_ctdnn,
)
from xldv.errors import DegenerateInputError, InvalidArgumentError
from xldv.frontend import FeatureMatrix, cmvn, fbank
from xldv.nn import TrainState

SMALL = CTDNNConfig(
    n_speakers=6, conv1_channels=3, conv2_channels=4, bottleneck_dim=16,
    td_hidden=8, feature_dim=12, factor_dim=5,
)
DEFAULT = CTDNNConfig(n_speakers=200)


class TestStructure:
    def test_default_bottleneck_and_feature_widths(self):
        g = build_phone_blind(DEFAULT, seed=0)
        dims = [out for _, out in g.shape_record]
        assert ("vec", 512) in dims
        feature_affine_out = g.shape_record[-4][1]
        assert feature_affine_out == ("vec", 400)
        assert g.shape_record[feature_layer_index(g)][1] == ("vec", 400)

    def test_layer_order(self):
        g = build_phone_blind(SMALL, seed=0)
        kinds = [s.kind for s in g.specs]
        assert kinds == [
            "conv2d", "maxpool", "conv2d", "maxpool", "affine", "timedelay",
            "pnorm", "timedelay", "pnorm", "affine", "lengthnorm", "affine",
            "softmax-xent",
        ]

    def test_output_width_tracks_speaker_count(self):
        g = build_phone_blind(CTDNNConfig(n_speakers=5000), seed=0)
        assert g.output_shape == ("vec", 5000)

    def test_symbolic_receptive_field_is_twenty(self):
        assert receptive_field(build_phone_blind(DEFAULT, seed=0)) == 20

    def test_single_affine_on_unspliced_input_has_field_one(self):
        from xldv.nn import LayerSpec, NetworkGraph

        g = NetworkGraph([LayerSpec("affine", dim=4)], ("vec", 40))
        assert receptive_field(g) == 1

    def test_inconsistent_config_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_phone_blind(CTDNNConfig(n_speakers=4, td_hidden=7), seed=0)


class TestReceptiveFieldProbe:
    def test_symbolic_equals_empirical_probe(self):
        g = build_phone_blind(SMALL, seed=1).astype(np.float64)
        rng = derive_rng(0, "probe")
        t_total, center = 48, 24
        base_feat = rng.normal(size=(t_total, 40))

        def features_for(data):
            feat = FeatureMatrix("u", "s", "L", data)
            return extract_frame_features(g, feat, SMALL)

        base = features_for(base_feat)
        support = []
        for offset in range(-14, 15):
            bumped = base_feat.copy()
            bumped[center + offset] += 1.0
            changed = not np.allclose(
                features_for(bumped)[center], base[center], atol=1e-12
            )
            if changed:
                support.append(offset)
        lo, hi = g.time_span()
        assert support == list(range(lo, hi + 1))
        assert len(support) == receptive_field(g) == 20

    def test_default_window_asymmetry(self):
        g = build_phone_blind(SMALL, seed=1)
        lo, hi = g.time_span()
        assert lo == -10 and hi == 9  # t+9 inside, t+11 outside


class TestPhoneAware:
    def test_first_td_layer_input_width(self):
        g = build_phone_aware(DEFAULT, seed=0)
        td_in, _ = g.shape_record[5]
        assert td_in == ("vec", 512 + 40)

    def test_zero_factor_matches_blind_graph_with_zeroed_columns(self):
        blind = build_phone_blind(SMALL, seed=3).astype(np.float64)
        aware = build_phone_aware(SMALL, seed=3).astype(np.float64)
        # copy blind parameters into the aware graph; the aware TD1 keeps
        # zero weight on the factor rows of each gathered frame block
        for i, layer in enumerate(aware.layers):
            for name, param in layer.params.items():
                src = blind.layers[i].params[name]
                if param.shape == src.shape:
                    layer.params[name] = src.copy()
        td = aware.layers[5]
        w = np.zeros_like(td.params["W"])
        d_blind, d_aux = SMALL.bottleneck_dim, SMALL.factor_dim
        stride = d_blind + d_aux
        for k in range(len(td.offsets)):
            w[k * stride : k * stride + d_blind] = blind.layers[5].params["W"][
                k * d_blind : (k + 1) * d_blind
            ]
        td.params["W"] = w
        rng = derive_rng(1, "aux-test")
        x = rng.normal(size=(1, 12, 40, 9))
        zeros = np.zeros((1, 12, SMALL.factor_dim))
        np.testing.assert_allclose(
            aware.forward(x, aux=zeros), blind.forward(x), atol=1e-12
        )

    def test_factor_perturbation_changes_same_frame_output(self):
        g = build_phone_aware(SMALL, seed=4).astype(np.float64)
        rng = derive_rng(2, "factor-probe")
        feat = FeatureMatrix("u", "s", "L", rng.normal(size=(30, 40)))
        factors = rng.normal(size=(30, SMALL.factor_dim))
        base = extract_frame_features(g, feat, SMALL, factors=factors)
        bumped = factors.copy()
        bumped[15] += 1.0
        moved = extract_frame_features(g, feat, SMALL, factors=bumped)
        assert not np.allclose(moved[15], base[15])
        assert np.allclose(moved[2], base[2], atol=1e-12)  # outside TD reach

    def test_missing_factors_rejected(self):
        g = build_phone_aware(SMALL, seed=4)
        feat = FeatureMatrix("u", "s", "L", np.random.default_rng(0).normal(size=(10, 40)))
        with pytest.raises(InvalidArgumentError):
            extract_frame_features(g, feat, SMALL)


class TestExtraction:
    def test_rows_unit_norm(self):
        g = build_phone_blind(SMALL, seed=5)
        feat = FeatureMatrix("u", "s", "L", np.random.default_rng(1).normal(size=(40, 40)))
        out = extract_frame_features(g, feat, SMALL)
        assert out.shape == (40, SMALL.feature_dim)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-5)

    def test_identical_windows_give_identical_rows(self):
        # the frame feature is a function of its 20-frame input window only
        g = build_phone_blind(SMALL, seed=6).astype(np.float64)
        rng = derive_rng(3, "window")
        window = rng.normal(size=(20, 40))
        left = rng.normal(size=(8, 40))
        right = rng.normal(size=(8, 40))
        a = np.concatenate([left, window, right])
        b = np.concatenate([right, window, left])
        fa = extract_frame_features(g, FeatureMatrix("a", "s", "L", a), SMALL)
        fb = extract_frame_features(g, FeatureMatrix("b", "s", "L", b), SMALL)
        # window occupies rows 8..27; its center frame t satisfies t-10 >= 8
        # and t+9 <= 27, i.e. t = 18
        np.testing.assert_allclose(fa[18], fb[18], atol=1e-12)

    def test_wrong_dim_rejected(self):
        g = build_phone_blind(SMALL, seed=7)
        feat = FeatureMatrix("u", "s", "L", np.ones((10, 41)))
        with pytest.raises(InvalidArgumentError):
            extract_frame_features(g, feat, SMALL)


class TestSpeakerChunks:
    @pytest.mark.parametrize("n_frames", [5, 17, 30])
    def test_chunk_is_rows_of_whole_utterance_tensor(self, n_frames):
        # chunks near or past the end replicate edges like to_input_tensor
        rng = derive_rng(8, "chunks", n_frames)
        frames = rng.normal(size=(n_frames, 40)).astype(np.float32)
        feats = [FeatureMatrix("u0", "s0", "L", frames),
                 FeatureMatrix("u1", "s1", "L", np.ones((3, 40)))]
        data = make_speaker_dataset(feats, {"s0": 0, "s1": 1}, SMALL, chunk_frames=24)
        item = next(it for it in data.train_items + data.val_items if it[2] == 0)
        whole = to_input_tensor(feats[0], SMALL)[0].astype(np.float32)
        for start in (0, n_frames - 24, n_frames - 3, n_frames - 1, n_frames + 4):
            x, aux, labels = data._make_chunk(item, start)
            rows = [min(max(start + k, 0), n_frames - 1) for k in range(24)]
            assert x.dtype == np.float32 and aux is None
            assert x.tobytes() == whole[rows].tobytes()
            np.testing.assert_array_equal(labels, np.zeros(24))


class TestDVector:
    def test_identical_rows(self):
        row = np.arange(5.0)
        np.testing.assert_array_equal(dvector(np.tile(row, (7, 1))), row)

    def test_single_frame(self):
        row = np.arange(4.0)[None, :]
        np.testing.assert_array_equal(dvector(row), row[0])

    def test_matches_independent_column_means(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(5, 400))
        oracle = np.array([sum(mat[:, j]) / 5 for j in range(400)])
        np.testing.assert_allclose(dvector(mat), oracle, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        mat = rng.normal(size=(9, 16))
        np.testing.assert_allclose(
            dvector(mat), dvector(mat[rng.permutation(9)]), atol=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            dvector(np.zeros((0, 4)))


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    config = CorpusConfig(
        n_train_speakers=2, n_train_utts=8, n_eval_speakers=2, n_eval_utts=1,
        n_phones=5, min_duration_s=1.2, max_duration_s=1.8,
    )
    root = tmp_path_factory.mktemp("micro")
    manifest = build_corpus(config, 77, root / "corpus")
    from xldv.corpus import load_utterance

    feats = [
        cmvn(fbank(load_utterance(manifest, rec)))
        for rec in manifest.utterances(split="train")
    ]
    return manifest, feats


class TestTraining:
    def test_two_speaker_micro_corpus_high_accuracy(self, micro_corpus):
        manifest, feats = micro_corpus
        labels = contiguous_labels(manifest.train_speakers)
        config = CTDNNConfig(
            n_speakers=2, conv1_channels=4, conv2_channels=8, bottleneck_dim=32,
            td_hidden=16, feature_dim=16,
        )
        graph = build_phone_blind(config, seed=1)
        data = make_speaker_dataset(feats, labels, config, seed=2,
                                    chunk_frames=24, batch_chunks=8,
                                    val_fraction=0.2)
        state = TrainState(learning_rate=0.02, max_epochs=6, batches_per_epoch=40, seed=3)
        result = train_ctdnn(graph, data, state)
        assert result.val_accuracy > 0.9

    def test_zero_epochs_keeps_initialization(self, micro_corpus):
        manifest, feats = micro_corpus
        labels = contiguous_labels(manifest.train_speakers)
        config = CTDNNConfig(
            n_speakers=2, conv1_channels=2, conv2_channels=2, bottleneck_dim=8,
            td_hidden=4, feature_dim=4,
        )
        graph = build_phone_blind(config, seed=9)
        before = {k: v.copy() for k, v in graph.tensors().items()}
        data = make_speaker_dataset(feats, labels, config, seed=2)
        train_ctdnn(graph, data, TrainState(learning_rate=0.1, max_epochs=0))
        for k, v in graph.tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_label_gaps_rejected(self, micro_corpus):
        manifest, feats = micro_corpus
        config = CTDNNConfig(
            n_speakers=4, conv1_channels=2, conv2_channels=2, bottleneck_dim=8,
            td_hidden=4, feature_dim=4,
        )
        graph = build_phone_blind(config, seed=9)
        gappy = {spk: i * 2 for i, spk in enumerate(manifest.train_speakers)}
        data = make_speaker_dataset(feats, gappy, config, seed=2)
        with pytest.raises(InvalidArgumentError, match="gap"):
            train_ctdnn(graph, data, TrainState(learning_rate=0.1, max_epochs=1))
