"""Back-end scoring: cosine, centering+length-norm, LDA, and PLDA."""

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate, stats

import backend_reference as dense
from backend_reference import cosine_score
from xldv.backend import (
    CosineScorer,
    EmbeddingSet,
    PLDAScorer,
    TrainingSpan,
    _plda_loglik,
    center_lengthnorm,
    train_lda,
    train_plda,
)
from xldv.errors import DegenerateInputError, InvalidArgumentError, NumericError


def monotone(seq, rel=1e-6):
    return all(b >= a - rel * abs(a) for a, b in zip(seq, seq[1:]))


def in_embedding_space(model, name):
    """A PLDA covariance as the (D, D) matrix ``U Phi U^T`` in the embedding space."""
    return model.basis @ getattr(model, name) @ model.basis.T


class TestCosine:
    def test_parallel(self):
        assert cosine_score([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_value(self):
        np.testing.assert_allclose(
            cosine_score([1.0, 1.0], [1.0, 0.0]), 1.0 / np.sqrt(2.0), atol=1e-12
        )

    def test_scale_invariant_and_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            s = cosine_score(a, b)
            np.testing.assert_allclose(cosine_score(3.7 * a, b), s, atol=1e-12)
            np.testing.assert_allclose(cosine_score(b, a), s, atol=1e-12)
            assert -1.0 <= s <= 1.0

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            cosine_score([0.0, 0.0], [1.0, 0.0])


class TestCenterLengthNorm:
    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.0, (30, 8))
        out = center_lengthnorm(x, x.mean(axis=0))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-10)

    def test_zero_mean_on_unit_vectors_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        np.testing.assert_allclose(center_lengthnorm(x, np.zeros(5)), x, atol=1e-12)

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 6))
        mean = rng.normal(size=6)
        out = center_lengthnorm(x, mean)
        for i in range(12):
            centered = x[i] - mean
            np.testing.assert_allclose(
                out[i], centered / np.sqrt(np.sum(centered**2)), atol=1e-12
            )

    def test_vector_equal_to_mean_degenerate(self):
        x = np.ones((2, 3))
        with pytest.raises(DegenerateInputError):
            center_lengthnorm(x, np.ones(3))


class TestLda:
    def test_separated_classes_recover_axis(self):
        rng = np.random.default_rng(4)
        n = 400
        labels = np.repeat([0, 1], n)
        x = rng.normal(0.0, 1.0, (2 * n, 2))
        x[labels == 1, 0] += 8.0
        lda = train_lda(TrainingSpan(x, labels), 1)
        direction = lda[:, 0] / np.linalg.norm(lda[:, 0])
        angle = np.degrees(np.arccos(min(abs(direction[0]), 1.0)))
        assert angle < 1.0

    def test_projected_within_class_covariance_is_identity(self):
        rng = np.random.default_rng(5)
        d, n_classes, per = 6, 7, 50
        labels = np.repeat(np.arange(n_classes), per)
        centers = rng.normal(0.0, 3.0, (n_classes, d))
        x = centers[labels] + rng.normal(size=(n_classes * per, d))
        k = min(d, n_classes - 1)
        lda = train_lda(TrainingSpan(x, labels), k)
        projected = (x - x.mean(axis=0)) @ lda
        s_w = np.zeros((k, k))
        for cls in range(n_classes):
            dev = projected[labels == cls] - projected[labels == cls].mean(axis=0)
            s_w += dev.T @ dev
        np.testing.assert_allclose(s_w / len(x), np.eye(k), atol=1e-6)

    def test_shuffled_labels_kill_leading_eigenvalue(self):
        # permutation smoke test: with random labels the leading generalized
        # eigenvalue must fall below 3x the spread of a label-permutation
        # baseline (threshold chosen loosely; signal case is ~100x larger)
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(4), 100)
        centers = rng.normal(0.0, 3.0, (4, 5))
        x = centers[labels] + rng.normal(size=(400, 5))

        def leading_eigenvalue(labels):
            # eigh scales w so that w^T S_w w = 1, so lambda = w^T S_b w
            w = train_lda(TrainingSpan(x, labels), 1)[:, 0]
            s_b, s_w, _ = dense._scatters(x, labels)
            np.testing.assert_allclose(w @ s_w @ w, 1.0, rtol=1e-9)
            return w @ s_b @ w

        signal = leading_eigenvalue(labels)
        perms = [leading_eigenvalue(rng.permutation(labels)) for _ in range(10)]
        assert signal > 10 * max(perms)
        shuffled = leading_eigenvalue(rng.permutation(labels))
        assert shuffled < 3 * max(perms)

    def test_identity_projection_on_whitened_two_class_data(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1], 100)
        x = rng.normal(size=(200, 1)) + labels[:, None] * 5.0
        lda = train_lda(TrainingSpan(x, labels), 1)
        assert lda.shape == (1, 1)
        assert ((x - x.mean(axis=0)) @ lda).shape == (200, 1)

    def test_k_bounds(self):
        rng = np.random.default_rng(9)
        labels = np.repeat([0, 1], 10)
        x = rng.normal(size=(20, 5))
        with pytest.raises(InvalidArgumentError):
            train_lda(TrainingSpan(x, labels), 2)  # min(D, classes-1) = 1
        with pytest.raises(InvalidArgumentError):
            train_lda(TrainingSpan(x, np.zeros(20, dtype=int)), 1)  # single class

    def test_singular_scatter_gets_the_trace_scaled_ridge(self, caplog):
        # classes spread along axis 0 only: the within-class scatter is zero
        # outside its (0, 0) entry, which is the mean squared spread
        rng = np.random.default_rng(10)
        labels = np.repeat(np.arange(4), 2)
        spread = rng.normal(size=8)
        x = rng.normal(size=(4, 3))[labels]
        x[:, 0] += spread
        with caplog.at_level("INFO", logger="xldv.backend"):
            lda = train_lda(TrainingSpan(x, labels), 1)
        deviation = spread - np.repeat(spread.reshape(4, 2).mean(axis=1), 2)
        ridge = 1e-8 * np.mean(deviation**2) / 3
        assert caplog.messages == [f"LDA: within-class scatter singular, ridge {ridge:.3g} added"]
        assert np.all(np.isfinite(lda))

    def test_zero_within_class_scatter_is_a_numeric_error(self):
        # each class a single point, as 1-D length-normed vectors of one sign are
        x = np.repeat([[1.0], [-1.0], [1.0]], 2, axis=0)
        with pytest.raises(NumericError, match="within-class scatter is zero"):
            train_lda(TrainingSpan(x, np.repeat(np.arange(3), 2)), 1)

    def test_failed_ridge_retry_is_a_numeric_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        rng = np.random.default_rng(11)
        labels = np.repeat(np.arange(3), 4)
        with pytest.raises(NumericError, match="singular even with ridge"):
            train_lda(TrainingSpan(rng.normal(size=(12, 2)), labels), 1)

    def test_ridge_whenever_within_class_scatter_is_singular_by_count(self, caplog):
        # 7 pairs leave N - K = 7 within-class degrees of freedom in D = 8, so
        # S_w is singular; a Cholesky of these rows' dense S_w passes by rounding
        rng = np.random.default_rng(3)
        x = rng.normal(size=(14, 8))
        with caplog.at_level("INFO", logger="xldv.backend"):
            train_lda(TrainingSpan(center_lengthnorm(x, x.mean(axis=0)),
                                   np.repeat(np.arange(7), 2)), 1)
        assert len(caplog.messages) == 1
        assert caplog.messages[0].startswith("LDA: within-class scatter singular, ridge")


def labelled_rows(sizes, d, seed):
    """Centred, length-normed rows of len(sizes) classes, as the back-end trains on."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.normal(size=(len(sizes), d))[labels] + 0.7 * rng.normal(size=(len(labels), d))
    return center_lengthnorm(x, x.mean(axis=0)), labels


def sample_plda_data(phi_b, phi_w, n_classes, per_class, seed):
    rng = np.random.default_rng(seed)
    d = phi_b.shape[0]
    lb = np.linalg.cholesky(phi_b)
    lw = np.linalg.cholesky(phi_w)
    ys = rng.normal(size=(n_classes, d)) @ lb.T
    x = np.repeat(ys, per_class, axis=0) + rng.normal(
        size=(n_classes * per_class, d)
    ) @ lw.T
    labels = np.repeat(np.arange(n_classes), per_class)
    return x, labels


class TestTrainPlda:
    def test_recovers_known_covariances(self):
        phi_b = np.array([[2.0, 0.8], [0.8, 1.0]])
        phi_w = np.array([[0.5, -0.1], [-0.1, 0.7]])
        x, labels = sample_plda_data(phi_b, phi_w, 500, 10, seed=10)
        model = train_plda(TrainingSpan(x, labels), n_iters=15)
        assert (np.linalg.norm(in_embedding_space(model, "phi_b") - phi_b)
                / np.linalg.norm(phi_b) < 0.1)
        assert (np.linalg.norm(in_embedding_space(model, "phi_w") - phi_w)
                / np.linalg.norm(phi_w) < 0.1)

    def test_null_between_class_signal(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2000, 3))
        labels = np.repeat(np.arange(200), 10)  # labels carry no information
        model = train_plda(TrainingSpan(x, labels), n_iters=15)
        assert np.linalg.norm(model.phi_b) < 0.1 * np.linalg.norm(model.phi_w)

    def test_likelihood_nondecreasing(self):
        phi_b = np.array([[1.5, 0.2], [0.2, 0.6]])
        phi_w = np.eye(2) * 0.4
        x, labels = sample_plda_data(phi_b, phi_w, 60, 6, seed=12)
        model = train_plda(TrainingSpan(x, labels), n_iters=12)
        assert len(model.objective) == 13
        assert monotone(model.objective)

    def test_likelihood_nondecreasing_with_fewer_rows_than_dims(self):
        x, labels = labelled_rows([3, 1, 2, 4, 2], 40, seed=26)
        model = train_plda(TrainingSpan(x, labels), n_iters=12)
        assert len(model.objective) == 13
        assert monotone(model.objective)

    def test_rank_deficient_rows_log_no_floor(self, caplog):
        # rows of rank 6 in 40 dimensions, as learned embeddings are (rank
        # about 128 in 400): singular in the embedding space, full rank in the span
        rng = np.random.default_rng(29)
        labels = np.repeat(np.arange(10), 5)
        latent = rng.normal(size=(10, 6))[labels] + 0.5 * rng.normal(size=(50, 6))
        x = latent @ rng.normal(size=(6, 40))
        with caplog.at_level("INFO", logger="xldv.backend"):
            span = TrainingSpan(center_lengthnorm(x, x.mean(axis=0)), labels)
            train_lda(span, 5)
            model = train_plda(span, n_iters=5)
        assert span.rank == 6
        assert model.phi_w.shape == (6, 6)
        assert caplog.messages == []

    @pytest.mark.parametrize("scale", [0.0, 1e-5], ids=["equal-rows", "scaled-down"])
    def test_span_with_no_direction_is_degenerate(self, scale):
        # every direction's variance over the rows is at most (1e-5)^2 < PLDA_FLOOR
        rng = np.random.default_rng(30)
        x = np.ones((12, 5)) + scale * rng.uniform(-1.0, 1.0, (12, 5))
        with pytest.raises(DegenerateInputError, match="no direction"):
            TrainingSpan(x, np.repeat(np.arange(4), 3))

    def test_singleton_classes_handled(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(21, 2))
        labels = np.array([0] * 10 + [1] * 10 + [2])  # one singleton class
        model = train_plda(TrainingSpan(x, labels), n_iters=5)
        assert np.all(np.isfinite(model.phi_b)) and np.all(np.isfinite(model.phi_w))

    def test_needs_multi_example_class(self):
        rng = np.random.default_rng(14)
        with pytest.raises(InvalidArgumentError):
            train_plda(TrainingSpan(rng.normal(size=(4, 2)), np.arange(4)), n_iters=2)


class TestPldaObjective:
    def _case(self):
        rng = np.random.default_rng(22)
        d = 3
        a, b = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        phi_b = a @ a.T + 0.2 * np.eye(d)
        phi_w = 0.5 * (b @ b.T) + 0.3 * np.eye(d)
        labels = np.repeat([0, 1, 2, 3], [1, 2, 2, 5])
        x = rng.normal(size=(len(labels), d))
        return x, labels, rng.normal(size=d), phi_b, phi_w

    @staticmethod
    def _oracle(x, labels, mu, phi_b, phi_w):
        # a class of n vectors is one n*D Gaussian whose covariance is Phi_w
        # on the diagonal blocks plus Phi_b in every block
        expected = 0.0
        for cls in np.unique(labels):
            xc = x[labels == cls]
            n = xc.shape[0]
            cov = np.kron(np.eye(n), phi_w) + np.kron(np.ones((n, n)), phi_b)
            expected += stats.multivariate_normal.logpdf(
                xc.ravel(), mean=np.tile(mu, n), cov=cov
            )
        return expected

    def test_matches_joint_gaussian_oracle(self):
        x, labels, mu, phi_b, phi_w = self._case()
        np.testing.assert_allclose(dense._plda_loglik(x, labels, mu, phi_b, phi_w),
                                   self._oracle(x, labels, mu, phi_b, phi_w), rtol=1e-10)
        # train_plda's last objective is its returned model's for the rows in
        # the span's coordinates, here with N < D
        x, labels = labelled_rows([1, 2, 3, 2], 10, seed=27)
        span = TrainingSpan(x, labels)
        model = train_plda(span, n_iters=4)
        np.testing.assert_allclose(
            model.objective[-1],
            self._oracle(span.rows, labels, np.zeros(span.rank), model.phi_b, model.phi_w),
            rtol=1e-10)

    def test_indefinite_within_class_covariance_raises(self):
        x, labels, _, phi_b, _ = self._case()
        with pytest.raises(NumericError, match="within-class covariance"):
            _plda_loglik(TrainingSpan(x, labels), phi_b, np.diag([1.0, -0.5, 1.0]))

    def test_indefinite_mean_covariance_raises(self):
        x, labels, _, _, phi_w = self._case()
        phi_b = -np.eye(3) * (2.0 * np.linalg.eigvalsh(phi_w).max())
        with pytest.raises(NumericError, match="mean covariance"):
            _plda_loglik(TrainingSpan(x, labels), phi_b, phi_w)


def _spy(monkeypatch, module, names, calls):
    for name in names:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, [np.shape(a) for a in args if np.ndim(a) == 2]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)


class TestDenseReference:
    """Span-basis training against ``backend_reference``'s dense training of the
    rows in the span's coordinates."""

    @pytest.mark.parametrize("sizes, d", [
        ([3, 1, 2, 4, 2], 40),
        ([5, 3, 4, 6, 2, 4, 4, 5, 3, 4], 40),
        ([8] * 8 + [3, 5], 10),
    ], ids=["n<d", "n=d", "n>d"])
    def test_matches_dense_training(self, sizes, d, caplog):
        x, labels = labelled_rows(sizes, d, seed=24)
        with caplog.at_level("INFO"):
            span = TrainingSpan(x, labels)
            lda, model = train_lda(span, 3), train_plda(span, n_iters=6)
            ours = list(caplog.messages)
            caplog.clear()
            ref_lda = dense.train_lda(span.rows, labels, 3)
            ref = dense.train_plda(span.rows, labels, n_iters=6)
        assert ours == caplog.messages  # the same floor and ridge lines
        assert span.rank == min(len(x) - 1, d)
        for name in ("phi_b", "phi_w"):
            ref_value = getattr(ref, name)
            assert (np.linalg.norm(getattr(model, name) - ref_value)
                    <= 1e-8 * np.linalg.norm(ref_value)), name
        np.testing.assert_allclose(model.objective, ref.objective, rtol=1e-10)
        # an eval vector scores as its projection onto the span: its part off
        # the span is dropped
        rng = np.random.default_rng(25)
        enroll, test = rng.normal(size=(2, 30, d))
        enroll_r, test_r = (v @ span.basis - model.mu @ span.basis for v in (enroll, test))
        ours_plda, ref_plda = plda_scores(model, enroll, test), plda_scores(ref, enroll_r, test_r)
        np.testing.assert_allclose(ours_plda, ref_plda, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref_plda).max())
        ours, theirs = CosineScorer(lda, model.mu), CosineScorer(ref_lda, ref.mu)
        np.testing.assert_allclose(
            ours.score_pairs(ours.prepare(enroll), ours.prepare(test)),
            theirs.score_pairs(theirs.prepare(enroll_r), theirs.prepare(test_r)), atol=1e-6)

    def test_full_span_matches_dense_training_on_the_raw_rows(self, caplog):
        # with r = D the span basis is a rotation of the embedding space, so
        # dense training on the rows as given checks the basis and the
        # projection end to end, with no shared basis on the two sides
        x, labels = labelled_rows([8] * 8 + [3, 5], 10, seed=24)
        with caplog.at_level("INFO"):
            span = TrainingSpan(x, labels)
            lda, model = train_lda(span, 3), train_plda(span, n_iters=6)
            ours = list(caplog.messages)
            caplog.clear()
            ref_lda = dense.train_lda(x, labels, 3)
            ref = dense.train_plda(x, labels, n_iters=6)
        assert ours == caplog.messages
        assert span.rank == x.shape[1]
        for name in ("phi_b", "phi_w"):
            ref_value = getattr(ref, name)
            assert (np.linalg.norm(in_embedding_space(model, name) - ref_value)
                    <= 1e-8 * np.linalg.norm(ref_value)), name
        np.testing.assert_allclose(model.objective, ref.objective, rtol=1e-10)
        rng = np.random.default_rng(25)
        enroll, test = rng.normal(size=(2, 30, x.shape[1]))
        ref_plda = plda_scores(ref, enroll, test)
        np.testing.assert_allclose(plda_scores(model, enroll, test), ref_plda, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref_plda).max())
        ours, theirs = CosineScorer(lda, model.mu), CosineScorer(ref_lda, ref.mu)
        np.testing.assert_allclose(
            ours.score_pairs(ours.prepare(enroll), ours.prepare(test)),
            theirs.score_pairs(theirs.prepare(enroll), theirs.prepare(test)), atol=1e-6)

    def test_factorizes_nothing_larger_than_the_span(self, monkeypatch):
        # timing-free guard on the cost: with N < D the one SVD sees the N x D
        # rows, and every other matrix that a factorization or inverse sees
        # has a side of at most r
        x, labels = labelled_rows([3, 1, 2, 4, 2], 40, seed=28)
        calls = []
        _spy(monkeypatch, np.linalg, ["inv", "eigh", "eigvalsh", "cholesky", "qr", "svd",
                                      "solve", "slogdet", "det", "pinv", "lstsq"], calls)
        _spy(monkeypatch, scipy.linalg, ["eigh", "eigvalsh", "cholesky", "cho_factor",
                                         "solve_triangular", "solve", "inv", "qr", "svd",
                                         "lu_factor", "pinv", "lstsq"], calls)
        span = TrainingSpan(x, labels)
        train_lda(span, 3)
        train_plda(span, n_iters=3)
        rank = span.rank
        assert rank == len(x) - 1
        assert calls[0] == ("svd", [x.shape])
        assert {"inv", "eigh", "cholesky", "solve_triangular"} <= {n for n, _ in calls}
        assert [(name, shapes) for name, shapes in calls[1:]
                if any(min(shape) > rank for shape in shapes)] == []


def gaussian_pdf(x, var):
    return np.exp(-0.5 * x * x / var) / np.sqrt(2 * np.pi * var)


def plda_scores(model, enroll, test):
    """Scores of every (enroll row, test row) pair, (len(enroll), len(test))."""
    scorer = PLDAScorer(model)
    return scorer.score_pairs(scorer.prepare(enroll), scorer.prepare(test))


class TestPldaScore:
    def _model(self, phi_b=1.8, phi_w=0.7, d=1):
        model_x, labels = sample_plda_data(
            np.eye(d) * phi_b, np.eye(d) * phi_w, 200, 8, seed=15
        )
        return train_plda(TrainingSpan(model_x, labels), n_iters=10)

    def test_zero_between_covariance_scores_zero(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(100, 3))
        labels = np.repeat(np.arange(10), 10)
        model = train_plda(TrainingSpan(x, labels), n_iters=3)
        model.phi_b = np.zeros((3, 3))
        pairs = rng.normal(size=(20, 3))
        scores = plda_scores(model, pairs, rng.normal(size=(20, 3)))
        np.testing.assert_allclose(scores, 0.0, atol=1e-10)

    def test_one_dimensional_closed_form_oracle(self):
        # oracle: numeric integration over the shared latent y, in the
        # embedding space itself: x = mu + y + e, y ~ N(0, phi_b), e ~ N(0, phi_w)
        model = self._model()
        mu = float(model.mu[0])
        phi_b, phi_w = float(model.phi_b[0, 0]), float(model.phi_w[0, 0])
        for a, b in [(0.3, 0.5), (-1.2, 2.0), (0.0, 0.0), (2.4, -2.4)]:

            def joint(y):
                return (
                    gaussian_pdf(y, phi_b)
                    * gaussian_pdf(a - mu - y, phi_w)
                    * gaussian_pdf(b - mu - y, phi_w)
                )

            same, _ = integrate.quad(joint, -12 * np.sqrt(phi_b), 12 * np.sqrt(phi_b),
                                     epsabs=1e-13, epsrel=1e-12)
            diff = (gaussian_pdf(a - mu, phi_b + phi_w)
                    * gaussian_pdf(b - mu, phi_b + phi_w))
            expected = np.log(same) - np.log(diff)
            np.testing.assert_allclose(
                plda_scores(model, [[a]], [[b]])[0, 0], expected, atol=1e-8
            )

    def test_matches_joint_gaussian_oracle(self):
        # same speaker: [a; b] ~ N([mu; mu], [[T, B], [B, T]]) with T = Phi_b + Phi_w
        # and B = Phi_b; different speakers: a and b ~ N(mu, T) independently
        phi_b = np.array([[1.5, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 0.3]])
        phi_w = np.array([[0.5, 0.1, 0.0], [0.1, 0.8, -0.2], [0.0, -0.2, 0.6]])
        model = train_plda(TrainingSpan(*sample_plda_data(phi_b, phi_w, 60, 5, seed=22)),
                           n_iters=4)
        between = in_embedding_space(model, "phi_b")
        total = between + in_embedding_space(model, "phi_w")
        joint = stats.multivariate_normal(np.tile(model.mu, 2),
                                          np.block([[total, between], [between, total]]))
        alone = stats.multivariate_normal(model.mu, total)
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        # every (a_i, b_j) pair, row-major like the score matrix
        pair_a, pair_b = np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))
        expected = (joint.logpdf(np.hstack([pair_a, pair_b])) - alone.logpdf(pair_a)
                    - alone.logpdf(pair_b)).reshape(len(a), len(b))
        np.testing.assert_allclose(plda_scores(model, a, b), expected, rtol=1e-9, atol=1e-9)

    def test_symmetry(self):
        model = self._model(d=3)
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b = rng.normal(size=3), rng.normal(size=3)
            (_, ab), (ba, _) = plda_scores(model, [a, b], [a, b])
            assert abs(ab - ba) < 1e-10

    def test_ranking_invariant_to_affine_retraining(self):
        # an invertible affine map applied to train + eval embeddings, with the
        # model retrained, must preserve the trial ranking (rank corr 1.0)
        phi_b = np.array([[1.2, 0.3], [0.3, 0.9]])
        phi_w = np.array([[0.6, 0.1], [0.1, 0.5]])
        x, labels = sample_plda_data(phi_b, phi_w, 100, 6, seed=18)
        rng = np.random.default_rng(19)
        a_map = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        shift = rng.normal(size=2)
        model1 = train_plda(TrainingSpan(x, labels), n_iters=8)
        model2 = train_plda(TrainingSpan(x @ a_map.T + shift, labels), n_iters=8)
        enroll = rng.normal(size=(40, 2))
        test = rng.normal(size=(40, 2))
        s1 = np.diag(plda_scores(model1, enroll, test))
        s2 = np.diag(plda_scores(model2, enroll @ a_map.T + shift, test @ a_map.T + shift))
        assert np.array_equal(np.argsort(s1), np.argsort(s2))


class TestScorers:
    def test_cosine_scorer_matches_function(self):
        rng = np.random.default_rng(20)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
        scorer = CosineScorer()
        np.testing.assert_allclose(
            scorer.score_pairs(scorer.prepare(a), scorer.prepare(b)),
            [[cosine_score(x, y) for y in b] for x in a],
            atol=1e-12,
        )

    def test_embedding_set_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        emb = EmbeddingSet(
            ["u1", "u2"], rng.normal(size=(2, 6)).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "emb.farc"
        emb.to_archive(path)
        back = EmbeddingSet.from_archive(path)
        assert back.utterance_ids == emb.utterance_ids
        np.testing.assert_array_equal(back.vectors, emb.vectors)
