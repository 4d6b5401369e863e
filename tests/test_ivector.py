"""UBM EM, Baum-Welch statistics, T-matrix EM, and i-vector extraction."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import xldv
from xldv import ivector
from xldv.errors import InvalidArgumentError, NumericError
from xldv.frontend import FeatureMatrix
from xldv.ivector import (
    SuffStats,
    TMatrix,
    UBM,
    accumulate_stats,
    extract_ivector,
    train_tmatrix,
    train_ubm,
    whiten,
)


def monotone(seq, rel=1e-6):
    return all(b >= a - rel * abs(a) for a, b in zip(seq, seq[1:]))


class TestTrainUbm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(3.0, 2.0, (500, 4))
        ubm = train_ubm(frames, 1, n_iters=3, seed=1)
        np.testing.assert_allclose(ubm.means[0], frames.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(ubm.variances[0], frames.var(axis=0), atol=1e-8)
        np.testing.assert_allclose(ubm.weights, [1.0])

    def test_recovers_known_two_component_mixture(self):
        rng = np.random.default_rng(1)
        n = 4000
        means = np.array([[-3.0, 0.0], [3.0, 1.0]])
        comp = rng.integers(0, 2, n)
        frames = means[comp] + rng.normal(0.0, 1.0, (n, 2))
        ubm = train_ubm(frames, 2, n_iters=20, seed=2)
        order = np.argsort(ubm.means[:, 0])
        se = 1.0 / np.sqrt(n / 2)  # standard error of a component mean
        assert np.all(np.abs(ubm.means[order] - means) < 3 * se + 0.05)

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(2)
        frames = np.concatenate([
            rng.normal(-2.0, 1.0, (300, 3)),
            rng.normal(2.0, 0.5, (300, 3)),
        ])
        ubm = train_ubm(frames, 4, n_iters=10, seed=3)
        assert len(ubm.objective) == 11
        assert monotone(ubm.objective)

    def test_weights_and_floors(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(400, 5))
        ubm = train_ubm(frames, 8, n_iters=5, seed=4)
        assert abs(ubm.weights.sum() - 1.0) < 1e-10
        floor = 1e-4 * frames.var(axis=0)
        assert np.all(ubm.variances >= floor - 1e-12)

    def test_too_few_frames_rejected(self):
        with pytest.raises(InvalidArgumentError):
            train_ubm(np.zeros((10, 2)), 32)


class TestAccumulateStats:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        frames = rng.normal(1.0, 1.0, (50, 3))
        ubm = train_ubm(frames, 1, n_iters=1, seed=0)
        stats = accumulate_stats(ubm, FeatureMatrix("u", frames))
        np.testing.assert_allclose(stats.n, [50.0], atol=1e-10)
        np.testing.assert_allclose(
            stats.f[0], (frames - ubm.means[0]).sum(axis=0), atol=1e-8
        )

    def test_well_separated_posteriors_one_hot(self):
        ubm = UBM(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-10.0, -10.0], [10.0, 10.0]]),
            variances=np.ones((2, 2)),
        )
        frames = np.array([[-10.0, -10.0], [10.0, 10.0], [-10.0, -10.0]])
        stats = accumulate_stats(ubm, FeatureMatrix("u", frames))
        np.testing.assert_allclose(stats.n, [2.0, 1.0], atol=1e-10)

    def test_occupancies_sum_to_frame_count(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(120, 4))
        ubm = train_ubm(frames, 4, n_iters=3, seed=5)
        stats = accumulate_stats(ubm, FeatureMatrix("u", frames[:37]))
        assert abs(stats.n.sum() - 37.0) < 1e-6

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        ubm = train_ubm(rng.normal(size=(100, 4)), 2, n_iters=1, seed=6)
        with pytest.raises(InvalidArgumentError):
            accumulate_stats(ubm, FeatureMatrix("u", rng.normal(size=(10, 5))))


def _random_ubm(rng, c, d):
    return UBM(
        weights=rng.dirichlet(np.full(c, 2.0)),
        means=rng.normal(size=(c, d)),
        variances=rng.uniform(0.5, 2.0, (c, d)),
    )


def _reference_e_step(ubm, frames):
    """The E-step as one whole-matrix pass."""
    log_post, ll = ubm.log_posteriors(frames)
    return np.exp(log_post), ll


class TestBlockedEStep:
    """The E-step runs over row blocks with the bits of a whole-matrix pass."""

    BLOCK = ivector.E_STEP_ROWS

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, 2 * BLOCK + 37])
    def test_bitwise_equals_whole_matrix(self, n):
        rng = np.random.default_rng(20)
        ubm = _random_ubm(rng, 64, 60)
        frames = rng.normal(size=(n, 60))
        post, ll = ivector._e_step(ubm, frames)
        ref_post, ref_ll = _reference_e_step(ubm, frames)
        assert post.shape == (n, 64) and ll.shape == (n,)
        assert post.tobytes() == ref_post.tobytes()
        assert ll.tobytes() == ref_ll.tobytes()

    def test_train_ubm_with_reseed_matches_one_block(self, monkeypatch, caplog):
        rng = np.random.default_rng(21)
        frames = rng.normal(size=(2 * self.BLOCK + 37, 5)) * rng.uniform(0.5, 2.0, 5)
        # components below half the mean occupancy count as empty
        monkeypatch.setattr(ivector, "EMPTY_COMPONENT_OCCUPANCY", 0.5 / 16)
        with caplog.at_level("INFO", logger="xldv.ivector"):
            blocked = train_ubm(frames, 16, n_iters=3, seed=22)
        assert "re-seeding empty component" in caplog.text
        monkeypatch.setattr(ivector, "E_STEP_ROWS", frames.shape[0])
        whole = train_ubm(frames, 16, n_iters=3, seed=22)
        for name in ("weights", "means", "variances"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
        assert blocked.objective == whole.objective

    def test_stats_of_long_utterance_match_whole_matrix(self):
        rng = np.random.default_rng(23)
        ubm = _random_ubm(rng, 8, 6)
        x = rng.normal(size=(self.BLOCK + 500, 6))
        stats = accumulate_stats(ubm, FeatureMatrix("u", x))
        post, _ = _reference_e_step(ubm, x)
        n = post.sum(axis=0)
        assert stats.n.tobytes() == n.tobytes()
        assert stats.f.tobytes() == (post.T @ x - n[:, None] * ubm.means).tobytes()
        assert stats.n_frames == x.shape[0]

    def test_train_ubm_peak_memory_bounded_by_posterior(self):
        n, dim, c = 25_000, 60, 64
        rng = np.random.default_rng(24)
        frames = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0, dim)
        for dtype in (np.float64, np.float32):
            frames = frames.astype(dtype)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train_ubm(frames, c, n_iters=2, seed=25)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # the (N, C) posterior and the M-step's one float64 working copy of
            # the (N, D) frames, D < C; a whole-matrix E-step peaks at about 7x
            # the posterior, and a float64 copy of float32 frames beside
            # frames**2 at about 3x
            assert peak <= 2 * n * c * 8, dtype


def synthetic_stats_from_model(ubm, t_true, n_utts, frames_per_utt, seed):
    """Sample frames from M = m + T w and accumulate true statistics."""
    rng = np.random.default_rng(seed)
    c, d = ubm.n_components, ubm.dim
    stats = []
    for _ in range(n_utts):
        w = rng.normal(size=t_true.shape[1])
        shift = (t_true @ w).reshape(c, d)
        comps = rng.choice(c, size=frames_per_utt, p=ubm.weights)
        frames = (
            ubm.means[comps]
            + shift[comps]
            + rng.normal(size=(frames_per_utt, d)) * np.sqrt(ubm.variances[comps])
        )
        stats.append(accumulate_stats(ubm, FeatureMatrix("u", frames)))
    return stats


class TestTrainTmatrix:
    def _ubm(self):
        return UBM(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-5.0, 0.0], [5.0, 1.0]]),
            variances=np.full((2, 2), 0.25),
        )

    def test_recovers_subspace_angle(self):
        ubm = self._ubm()
        rng = np.random.default_rng(7)
        t_true = rng.normal(size=(4, 1)) * 2.0
        stats = synthetic_stats_from_model(ubm, t_true, 400, 80, seed=8)
        tmat = train_tmatrix(ubm, stats, rank=1, n_iters=10, seed=9)
        cos = np.abs(
            (tmat.t[:, 0] @ t_true[:, 0])
            / (np.linalg.norm(tmat.t) * np.linalg.norm(t_true))
        )
        angle = np.degrees(np.arccos(min(cos, 1.0)))
        assert angle < 5.0

    def test_objective_nondecreasing(self):
        ubm = self._ubm()
        rng = np.random.default_rng(10)
        t_true = rng.normal(size=(4, 2))
        stats = synthetic_stats_from_model(ubm, t_true, 100, 40, seed=11)
        tmat = train_tmatrix(ubm, stats, rank=2, n_iters=10, seed=12)
        assert len(tmat.objective) == 11
        assert monotone(tmat.objective)

    def test_last_objective_recomputed_from_final_t(self):
        # the objective recorded after the last M-step must be the marginal
        # log-likelihood under the final T, not under an earlier (cached) one
        ubm = self._ubm()
        rng = np.random.default_rng(15)
        t_true = rng.normal(size=(4, 2))
        stats = synthetic_stats_from_model(ubm, t_true, 60, 40, seed=16)
        tmat = train_tmatrix(ubm, stats, rank=2, n_iters=2, seed=17)
        assert len(tmat.objective) == 3
        assert tmat.objective[1] > tmat.objective[0]
        t3, inv_std, gram = ivector._whitened_gram(ubm, tmat.t)
        expected = 0.0
        for s in stats:
            precision = np.eye(2) + np.tensordot(s.n, gram, axes=(0, 0))
            b = np.einsum("cdr,cd->r", t3, s.f * inv_std)
            expected += -0.5 * np.linalg.slogdet(precision)[1]
            expected += 0.5 * float(b @ np.linalg.solve(precision, b))
        np.testing.assert_allclose(tmat.objective[-1], expected, rtol=1e-12)

    def test_zero_first_order_stats_keep_prior_mean(self):
        ubm = self._ubm()
        stats = [
            SuffStats(n=np.array([20.0, 20.0]), f=np.zeros((2, 2)), n_frames=40)
            for _ in range(8)
        ]
        tmat = train_tmatrix(ubm, stats, rank=2, n_iters=3, seed=13)
        for s in stats:
            np.testing.assert_allclose(extract_ivector(whiten(ubm, tmat), s), 0.0, atol=1e-12)

    @staticmethod
    def _first_principles_objective(ubm, t, stats):
        """Sum over utterances of -0.5 logdet(L) + 0.5 b' L^-1 b, per component."""
        d, r = ubm.dim, t.shape[1]
        t_c = [t[ci * d : (ci + 1) * d] / np.sqrt(ubm.variances[ci])[:, None]
               for ci in range(ubm.n_components)]
        total = 0.0
        for s in stats:
            precision = np.eye(r) + sum(n_c * tc.T @ tc for n_c, tc in zip(s.n, t_c))
            b = sum(tc.T @ (f_c / np.sqrt(v_c))
                    for tc, f_c, v_c in zip(t_c, s.f, ubm.variances))
            total += -0.5 * np.linalg.slogdet(precision)[1]
            total += 0.5 * float(b @ np.linalg.solve(precision, b))
        return total

    def test_block_objective_matches_per_utterance_sum(self):
        # two full blocks and a partial one
        rng = np.random.default_rng(20)
        c, d = 4, 3
        ubm = UBM(
            weights=np.full(c, 1.0 / c),
            means=rng.normal(scale=6.0, size=(c, d)),
            variances=rng.uniform(0.5, 2.0, (c, d)),
        )
        t_true = rng.normal(size=(c * d, 3))
        stats = synthetic_stats_from_model(ubm, t_true, 2 * ivector.TV_BLOCK_UTTS + 3, 30,
                                           seed=21)
        for n_iters in (0, 4):
            tmat = train_tmatrix(ubm, stats, rank=3, n_iters=n_iters, seed=22)
            assert len(tmat.objective) == n_iters + 1
            np.testing.assert_allclose(
                tmat.objective[-1], self._first_principles_objective(ubm, tmat.t, stats),
                rtol=1e-12,
            )
        assert monotone(tmat.objective, rel=0.0)

    def test_peak_memory_bounded_by_block(self):
        # 4 blocks; a stack of the whole corpus's N and whitened F would add
        # about 6 more (C, R, R) arrays at this shape
        c, d, r = 64, 7, 16
        rng = np.random.default_rng(23)
        ubm = UBM(
            weights=np.full(c, 1.0 / c),
            means=np.zeros((c, d)),
            variances=rng.uniform(0.5, 2.0, (c, d)),
        )
        stats = [SuffStats(n=rng.uniform(1.0, 20.0, c), f=rng.normal(size=(c, d)),
                           n_frames=20)
                 for _ in range(4 * ivector.TV_BLOCK_UTTS)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_tmatrix(ubm, stats, rank=r, n_iters=2, seed=24)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the Gram, acc_a and the block's precision buffer, which takes E[ww'],
        # are one (C, R, R) array each here (B = C); the block's stacked
        # statistics are about two. A separate E[ww'] buffer and a whole
        # (C, R, R) product for acc_a would add two more
        assert peak <= 8 * c * r * r * 8

    def test_needs_enough_utterances(self):
        ubm = self._ubm()
        with pytest.raises(InvalidArgumentError):
            train_tmatrix(ubm, [], rank=2)


# Runs in a fresh process per BLAS kernel: a chunked product keeps the whole
# product's bits only where both take the same kernel path (see
# ivector._column_chunks).
CHUNKED_BITS = """
import sys
import numpy as np
import scipy.linalg
from xldv import ivector
from xldv.ivector import SuffStats, UBM

rng = np.random.default_rng(0)
bad = []
# (C, D, R) and last-block sizes of the default, mid, perfbench and tiny configs,
# and a rank whose R * R is no multiple of 16
for c, d, r, sizes in ((64, 60, 100, (64, 44, 36, 32, 16, 1)), (4, 60, 8, (24,)),
                       (64, 60, 50, (7, 10))):
    ubm = UBM(weights=np.full(c, 1.0 / c), means=np.zeros((c, d)),
              variances=rng.uniform(0.5, 2.0, (c, d)))
    whitened = ivector._whitened_gram(ubm, rng.normal(size=(c * d, r)))
    t3, inv_std, gram = whitened
    for size in sizes:
        block = [SuffStats(n=rng.uniform(1.0, 20.0, c), f=rng.normal(size=(c, d)),
                           n_frames=20) for _ in range(size)]
        acc = (rng.normal(size=(c, r, r)), rng.normal(size=(r, c * d)))
        want_a, want_k = acc[0].copy(), acc[1].copy()
        _, w, _ = ivector._posteriors(whitened, block, "test", acc)
        # the whole-matrix products, with E[ww'] in a buffer of its own
        n = np.array([s.n for s in block])
        fw = np.array([(s.f * inv_std).reshape(-1) for s in block])
        precision = (n @ gram.reshape(c, r * r)).reshape(-1, r, r)
        precision.reshape(-1, r * r)[:, :: r + 1] += 1.0
        eww = np.empty_like(precision)
        for i, p in enumerate(precision):
            factor = scipy.linalg.cho_factor(p, check_finite=False)
            eww[i] = scipy.linalg.cho_solve(factor, np.eye(r), check_finite=False)
            eww[i] += np.outer(w[i], w[i])
        want_a += (n.T @ eww.reshape(size, -1)).reshape(c, r, r)
        want_k += w.T @ fw
        if acc[0].tobytes() != want_a.tobytes() or acc[1].tobytes() != want_k.tobytes():
            bad.append((c, r, size))
# the UBM's float64 moments of float32 frames, at the cold-train shape
frames = (rng.normal(size=(25_000, 60)) * rng.uniform(0.5, 2.0, 60)).astype(np.float32)
single = ivector.train_ubm(frames, 64, n_iters=1, seed=1)
double = ivector.train_ubm(frames.astype(np.float64), 64, n_iters=1, seed=1)
if any(getattr(single, k).tobytes() != getattr(double, k).tobytes()
       for k in ("weights", "means", "variances")):
    bad.append("ubm")
sys.stdout.write(repr(bad))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default-kernel", "haswell"])
def test_chunked_statistics_keep_the_whole_products_bits(coretype):
    src = os.path.dirname(os.path.dirname(xldv.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    out = subprocess.run([sys.executable, "-c", CHUNKED_BITS], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout == "[]"


class TestExtractIvector:
    def _setup(self, seed=14):
        ubm = UBM(
            weights=np.array([1.0]),
            means=np.zeros((1, 1)),
            variances=np.full((1, 1), 2.0),
        )
        tmat = TMatrix(t=np.array([[1.5]]), n_components=1, dim=1)
        return ubm, tmat

    def test_zero_first_order_gives_zero(self):
        ubm, tmat = self._setup()
        stats = SuffStats(n=np.array([10.0]), f=np.zeros((1, 1)), n_frames=10)
        np.testing.assert_allclose(extract_ivector(whiten(ubm, tmat), stats), [0.0])

    def test_empty_stats_give_zero(self):
        ubm, tmat = self._setup()
        stats = SuffStats(n=np.array([0.0]), f=np.zeros((1, 1)), n_frames=0)
        np.testing.assert_allclose(extract_ivector(whiten(ubm, tmat), stats), [0.0])

    def test_scalar_closed_form_oracle(self):
        # C=1, D=1, R=1: w = (1 + t^2 n / var)^-1 * t f / var
        ubm, tmat = self._setup()
        n, f, t, var = 7.0, 3.0, 1.5, 2.0
        stats = SuffStats(n=np.array([n]), f=np.array([[f]]), n_frames=7)
        expected = (t * f / var) / (1.0 + t * t * n / var)
        np.testing.assert_allclose(
            extract_ivector(whiten(ubm, tmat), stats), [expected], atol=1e-12
        )

    def test_linear_in_first_order_stats(self):
        ubm = UBM(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 3)),
            variances=np.ones((2, 3)),
        )
        rng = np.random.default_rng(15)
        tmat = TMatrix(t=rng.normal(size=(6, 2)), n_components=2, dim=3)
        n = np.array([5.0, 3.0])
        f = rng.normal(size=(2, 3))
        whitened = whiten(ubm, tmat)
        w1 = extract_ivector(whitened, SuffStats(n=n, f=f, n_frames=8))
        w2 = extract_ivector(whitened, SuffStats(n=n, f=2.5 * f, n_frames=8))
        np.testing.assert_allclose(w2, 2.5 * w1, atol=1e-10)

    def test_non_pd_precision_is_a_numeric_error(self):
        # 1 + t^2 n / var < 0 for a large negative occupancy, whatever T is
        ubm, tmat = self._setup()
        stats = SuffStats(n=np.array([-1e6]), f=np.ones((1, 1)), n_frames=10)
        with pytest.raises(NumericError,
                           match="^i-vector extraction: posterior precision is not PD"):
            extract_ivector(whiten(ubm, tmat), stats)
        with pytest.raises(NumericError,
                           match="^t-matrix E-step: posterior precision is not PD"):
            train_tmatrix(ubm, [stats], rank=1, n_iters=1)

    def test_tmatrix_of_another_ubm_shape_rejected(self):
        ubm, tmat = self._setup()
        other = TMatrix(t=np.ones((2, 1)), n_components=2, dim=1)
        with pytest.raises(InvalidArgumentError, match="does not match the UBM"):
            whiten(ubm, other)


class TestWhitenedGramCache:
    """Extraction reuses one whitened form and Gram per (T, UBM)."""

    def _model(self, seed=16, c=4, d=3, r=2):
        rng = np.random.default_rng(seed)
        ubm = UBM(
            weights=np.full(c, 1.0 / c),
            means=rng.normal(size=(c, d)),
            variances=rng.uniform(0.5, 2.0, (c, d)),
        )
        tmat = TMatrix(t=rng.normal(size=(c * d, r)), n_components=c, dim=d)
        stats = [
            SuffStats(n=rng.uniform(1.0, 20.0, c), f=rng.normal(size=(c, d)),
                      n_frames=20)
            for _ in range(5)
        ]
        return ubm, tmat, stats

    @staticmethod
    def _reference(ubm, tmat, stats):
        inv_std = 1.0 / np.sqrt(ubm.variances)
        t3 = tmat.t.reshape(ubm.n_components, ubm.dim, -1) * inv_std[:, :, None]
        gram = np.matmul(t3.transpose(0, 2, 1), t3)
        return ivector._posteriors((t3, inv_std, gram), [stats], "oracle")[1][0]

    def test_cached_extraction_bitwise_equals_uncached_reference(self):
        ubm, tmat, stats = self._model()
        whitened = whiten(ubm, tmat)
        for s in stats:
            got = extract_ivector(whitened, s)
            assert got.tobytes() == self._reference(ubm, tmat, s).tobytes()

    def test_gram_built_once_for_many_extractions(self, monkeypatch):
        ubm, tmat, stats = self._model()
        calls = []
        real = ivector._whitened_gram

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ivector, "_whitened_gram", counting)
        whitened = whiten(ubm, tmat)
        for s in stats * 3:
            extract_ivector(whitened, s)
        assert len(calls) == 1
