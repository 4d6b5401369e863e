"""Embedding back-ends: cosine, Fisher LDA, centering+length-norm, PLDA.

PLDA is the two-covariance model x = mu + y + e with y ~ N(0, Phi_b) and
e ~ N(0, Phi_w), trained by EM on class-labeled embeddings and scored as the
same/different-speaker log-likelihood ratio in the simultaneously
diagonalized basis. All back-end statistics are estimated on training data
only; evaluation embeddings are never folded into means or covariances.

LDA and PLDA train in an orthonormal basis U (D x r) of the N centred
training rows, r <= min(N - 1, D) (``TrainingSpan``), so every matrix they
factorize is r x r rather than D x D. Both scatters vanish off that span: LDA
solves an r x r eigenproblem, and the PLDA model is block-diagonal between
the span and its complement, where it is a multiple of the identity. EM keeps
r x r blocks and one variance pair for the complement, and returns full
covariances U A U^T + c (I - U U^T); in exact arithmetic this is the dense
D x D model. LDA adds its within-class ridge whenever N - K < D for K
classes, where S_w is singular by count, and otherwise only when the
factorization fails.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, InvalidArgumentError, NumericError

log = logging.getLogger(__name__)

EPS_NORM = 1e-12
RIDGE = 1e-8
PLDA_FLOOR = 1e-8  # least within-class variance


@dataclass
class EmbeddingSet:
    """Utterance ids and their embeddings, one row each.

    The corpus manifest holds each utterance's speaker and language.
    """

    utterance_ids: list
    vectors: np.ndarray  # (N, D)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape[0] != len(self.utterance_ids):
            raise InvalidArgumentError("embedding ids and rows disagree")
        if not np.all(np.isfinite(self.vectors)):
            raise InvalidArgumentError("embeddings contain non-finite values")

    def __len__(self):
        return len(self.utterance_ids)

    @property
    def dim(self):
        return self.vectors.shape[1]

    @classmethod
    def from_archive(cls, path):
        from .archive import archive_stream

        ids, rows = [], []
        for feat in archive_stream(path):
            if feat.n_frames != 1:
                raise InvalidArgumentError(
                    f"embedding record {feat.utterance_id!r} has T={feat.n_frames}"
                )
            ids.append(feat.utterance_id)
            rows.append(feat.data[0])
        return cls(ids, np.array(rows))

    def to_archive(self, path):
        from .archive import archive_write
        from .frontend import FeatureMatrix

        archive_write((FeatureMatrix(u, v[None, :])
                       for u, v in zip(self.utterance_ids, self.vectors)), path)


def center_lengthnorm(vectors, mean) -> np.ndarray:
    """Each row x of the (N, D) ``vectors`` -> (x - mean) / ||x - mean||, mean
    from the training set only."""
    x = np.asarray(vectors, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms <= EPS_NORM):
        bad = int(np.argmax(norms <= EPS_NORM))
        raise DegenerateInputError(f"embedding {bad} equals the centering mean")
    return x / norms[:, None]


class TrainingSpan:
    """Class-labelled training rows in an orthonormal basis of their centred span.

    ``basis`` is (D, r) with r <= min(N - 1, D), and ``rows`` are the centred
    rows in its coordinates. ``means`` holds the class means, ``resid`` each
    row's deviation from its class mean, and ``s_b``/``s_w`` the r x r between-
    and within-class scatters over N; off the span both scatters are zero.
    ``train_lda`` and ``train_plda`` share one span.
    """

    def __init__(self, vectors, labels):
        x = np.asarray(vectors, dtype=np.float64)
        self.n, self.d = x.shape
        self.mu = x.mean(axis=0)
        # the centred rows sum to zero, so all but the first span them all
        self.basis = np.linalg.qr((x[1:] - self.mu).T)[0]
        self.rows = (x - self.mu) @ self.basis
        _, self.label_index, self.counts = np.unique(labels, return_inverse=True,
                                                     return_counts=True)
        member = self.label_index == np.arange(len(self.counts))[:, None]
        self.means = member @ self.rows / self.counts[:, None]
        self.resid = self.rows - self.means[self.label_index]
        self.s_w = self.resid.T @ self.resid / self.n
        self.s_b = (self.means.T * self.counts) @ self.means / self.n


def train_lda(span: TrainingSpan, k) -> np.ndarray:
    """Solve S_b v = lambda S_w v; the (D, k) matrix of the top-k directions.

    Its columns are scaled so that the projected within-class covariance is
    the identity. Projection centres by the training mean, ``PLDAModel.mu``.
    S_b is zero off the span, so the top directions are found in it. With
    N - K < D (K classes) S_w is singular by count and always gets the ridge;
    otherwise only when its factorization fails.
    """
    n_classes = len(span.counts)
    if n_classes < 2:
        raise InvalidArgumentError("LDA needs at least 2 classes")
    k_max = min(span.d, n_classes - 1)
    if not 1 <= k <= span.d:
        raise InvalidArgumentError(f"K={k} outside 1..{span.d}")
    if k > k_max:
        raise InvalidArgumentError(
            f"K={k} exceeds min(D, n_classes-1)={k_max}"
        )
    s_b, s_w = span.s_b, span.s_w
    singular = span.n - n_classes < span.d
    if not singular:
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w, check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            singular = True
    if singular:
        ridge = RIDGE * np.trace(s_w) / span.d
        if not ridge > 0:  # every class is a single point: nothing to scale a ridge by
            raise NumericError("LDA: within-class scatter is zero")
        log.info("LDA: within-class scatter singular, ridge %.3g added", ridge)
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w + ridge * np.eye(len(s_w)))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            raise NumericError(
                f"LDA: within-class scatter singular even with ridge {ridge:.3g}") from None
    return span.basis @ evecs[:, np.argsort(evals)[::-1][:k]]


@dataclass
class PLDAModel:
    mu: np.ndarray  # (D,)
    phi_b: np.ndarray  # between-class covariance, PSD
    phi_w: np.ndarray  # within-class covariance, PD
    objective: list = field(default_factory=list)


def _floor_spd(mat, floor):
    sym = (mat + mat.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    if evals.min() >= floor:
        return sym, False
    return (evecs * np.maximum(evals, floor)) @ evecs.T, True


def _cholesky(mat, name):
    try:
        return scipy.linalg.cholesky(mat, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise NumericError(f"{name} lost positive definiteness") from None


def _full_matrix(span, block, scale):
    """The (D, D) matrix that is ``block`` on the span and ``scale`` times the
    identity off it: U (A - c I) U^T + c I."""
    full = span.basis @ (block - scale * np.eye(len(block))) @ span.basis.T
    full[np.diag_indices_from(full)] += scale
    return full


def _plda_loglik(span, phi_b, phi_w, off_b):
    """Exact marginal log-likelihood of the two-covariance model that is
    ``phi_b``/``phi_w`` on the span and ``off_b``/``PLDA_FLOOR`` times the
    identity off it.

    A class of n vectors splits into its mean, ~ N(mu, Phi_b + Phi_w/n), and
    n - 1 independent within-class directions, ~ N(0, Phi_w) each. The rows
    have no part off the span, where only the log-determinants count.
    """
    n_off = span.d - len(phi_w)
    chol_w = _cholesky(phi_w, "within-class covariance")
    logdet_w = 2.0 * np.log(np.diag(chol_w)).sum() + n_off * np.log(PLDA_FLOOR)
    quad_w = np.square(scipy.linalg.solve_triangular(chol_w, span.resid.T, lower=True)).sum()
    total = -0.5 * (span.n * span.d * np.log(2 * np.pi)
                    + (span.n - len(span.counts)) * logdet_w + quad_w)
    for n in np.unique(span.counts):
        chol_m = _cholesky(phi_b + phi_w / n, "mean covariance")
        means = span.means[span.counts == n]
        quad_m = np.square(scipy.linalg.solve_triangular(chol_m, means.T, lower=True)).sum()
        logdet_m = 2.0 * np.log(np.diag(chol_m)).sum() + n_off * np.log(off_b + PLDA_FLOOR / n)
        total -= 0.5 * (len(means) * (span.d * np.log(n) + logdet_m) + quad_m)
    return float(total)


def train_plda(span: TrainingSpan, n_iters=10) -> PLDAModel:
    """EM for the two-covariance model; objective recorded per iteration.

    Classes with a single example still contribute (their posterior simply
    has more weight on the prior). The within-class covariance is
    eigenvalue-floored at ``PLDA_FLOOR`` if it loses definiteness. The EM
    runs on the span's r x r blocks; off the span the model is a multiple of
    the identity. There the within-class scatter is zero, and an M-step gives
    variance sum_c n_c post_c / N < K / N * PLDA_FLOOR, so it stays at the
    floor. A span short of D has r = N - 1 dimensions, in which the
    within-class scatter has rank at most N - K, so the block is floored
    whenever the complement is, and one flag logs both.
    """
    counts = span.counts
    if len(counts) < 2:
        raise InvalidArgumentError("PLDA needs at least 2 classes")
    if counts.max() < 2:
        raise InvalidArgumentError("PLDA needs some class with >= 2 examples")
    rank = span.basis.shape[1]
    phi_w, floored = _floor_spd(span.s_w, PLDA_FLOOR)
    if floored:
        log.info("PLDA init: within-class covariance floored")
    # between scatter can be rank-deficient (rank <= classes-1); a small ridge
    # keeps the first E-step's inverse well defined
    off_b = RIDGE * max(1.0, np.trace(span.s_b) / span.d)
    phi_b = (span.s_b + span.s_b.T) / 2.0 + off_b * np.eye(rank)
    sizes, n_of_size = np.unique(counts, return_counts=True)
    objective = []
    for _ in range(n_iters + 1):
        objective.append(_plda_loglik(span, phi_b, phi_w, off_b))
        if len(objective) == n_iters + 1:
            break
        inv_b = np.linalg.inv(phi_b)
        inv_w = np.linalg.inv(phi_w)
        y_hat = np.empty_like(span.means)
        acc_b = np.zeros((rank, rank))
        acc_w = np.zeros((rank, rank))
        for n, n_classes in zip(sizes, n_of_size):
            cov = np.linalg.inv(inv_b + n * inv_w)
            members = counts == n
            y_hat[members] = n * span.means[members] @ (inv_w @ cov)
            acc_b += n_classes * cov
            acc_w += n_classes * n * cov
        acc_b += y_hat.T @ y_hat
        dev = span.rows - y_hat[span.label_index]
        acc_w += dev.T @ dev
        phi_b, _ = _floor_spd(acc_b / len(counts), 0.0)
        phi_w, floored = _floor_spd(acc_w / span.n, PLDA_FLOOR)
        # off the span a class of n has posterior variance 1 / (1/off_b + n/PLDA_FLOOR)
        off_b = n_of_size @ (off_b * PLDA_FLOOR / (PLDA_FLOOR + sizes * off_b)) / len(counts)
        if floored:
            log.info("PLDA M-step: within-class covariance floored")
    return PLDAModel(mu=span.mu, phi_b=_full_matrix(span, phi_b, off_b),
                     phi_w=_full_matrix(span, phi_w, PLDA_FLOOR), objective=objective)


class CosineScorer:
    """Cosine over embeddings, or over ``(x - mu) @ lda`` given an LDA matrix
    and the training mean it was fitted around."""

    def __init__(self, lda=None, mu=None):
        self.lda = lda
        self.mu = mu

    def prepare(self, vectors):
        x = np.asarray(vectors, dtype=np.float64)
        if self.lda is not None:
            x = (x - self.mu) @ self.lda
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms <= EPS_NORM):
            raise DegenerateInputError("cosine of a zero vector")
        return x / norms[:, None]

    def score_pairs(self, enroll, test):
        """(len(enroll), len(test)) scores of every pair of prepared rows."""
        return enroll @ test.T


class PLDAScorer:
    """Same/different-speaker log-likelihood ratio in the basis where
    V^T Phi_w V = I and V^T Phi_b V = diag(psi) (Ioffe, ECCV 2006)."""

    def __init__(self, model: PLDAModel):
        psi, v = scipy.linalg.eigh(model.phi_b, model.phi_w, check_finite=False)
        psi = np.maximum(psi[::-1], 0.0)
        self.mu = model.mu
        self.v = np.ascontiguousarray(v[:, ::-1])
        s = 1.0 + psi
        denom = s * s - psi * psi
        self.k0 = float(np.sum(np.log(s) - 0.5 * np.log(denom)))
        self.q = 0.5 * (1.0 / s - s / denom)
        self.p = psi / denom

    def prepare(self, vectors):
        return (np.asarray(vectors, dtype=np.float64) - self.mu) @ self.v

    def score_pairs(self, enroll, test):
        """(len(enroll), len(test)) scores of every pair of prepared rows."""
        return (self.k0 + ((enroll**2) @ self.q)[:, None] + (test**2) @ self.q
                + (enroll * self.p) @ test.T)
