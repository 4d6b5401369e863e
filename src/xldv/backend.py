"""Embedding back-ends: cosine, Fisher LDA, centering+length-norm, PLDA.

PLDA is the two-covariance model x = mu + y + e with y ~ N(0, Phi_b) and
e ~ N(0, Phi_w), trained by EM on class-labeled embeddings and scored as the
same/different-speaker log-likelihood ratio in the simultaneously
diagonalized basis. All back-end statistics are estimated on training data
only; evaluation embeddings are never folded into means or covariances.

LDA and PLDA live in the span that the N centred training rows fill: an
orthonormal basis U (D x r) of their right singular vectors whose variance
over the rows, s_i^2 / N, exceeds ``PLDA_FLOOR``, the least within-class
variance PLDA allows (``TrainingSpan``). So r <= min(N - 1, D), and
directions that only rounding fills (learned embeddings of rank 128 in 400
dimensions) are left out. Every matrix the back-ends factorize is r x r,
and the model is stored as U with r x r covariances. The one modelling
decision: an evaluation vector is projected onto U, and its part off the
span, where the training rows had no variance to learn from, is dropped
rather than scored. LDA keeps at most min(r, K - 1) directions for K
classes, and adds its within-class ridge whenever N - K < r, where S_w is
singular by count, and otherwise only when the factorization fails.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, InvalidArgumentError, NumericError

log = logging.getLogger(__name__)

EPS_NORM = 1e-12
RIDGE = 1e-8
PLDA_FLOOR = 1e-8  # least variance of a span direction and of PLDA's within-class model


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

    ``basis`` is (D, r): the right singular vectors of the centred rows whose
    variance over the N rows exceeds ``PLDA_FLOOR``. ``rows`` are the centred
    rows in its coordinates, ``means`` the class means, ``resid`` each row's
    deviation from its class mean, and ``s_b``/``s_w`` the r x r between- and
    within-class scatters over N. ``train_lda`` and ``train_plda`` share one span.

    The variance test is absolute. It is meant for centred, length-normed rows,
    as the pipeline passes them (total variance at most 1); rows on another
    scale keep or lose directions with that scale. Rows with no direction
    above the floor (all equal, or scaled down to it) raise DegenerateInputError.
    """

    def __init__(self, vectors, labels):
        x = np.asarray(vectors, dtype=np.float64)
        self.n = len(x)
        self.mu = x.mean(axis=0)
        _, s, vt = np.linalg.svd(x - self.mu, full_matrices=False)
        self.basis = vt[s * s / self.n > PLDA_FLOOR].T
        self.rank = self.basis.shape[1]
        if self.rank == 0:
            raise DegenerateInputError(
                f"no direction of the training rows has variance above {PLDA_FLOOR:g}")
        self.rows = (x - self.mu) @ self.basis
        _, self.label_index, self.counts = np.unique(labels, return_inverse=True,
                                                     return_counts=True)
        member = self.label_index == np.arange(len(self.counts))[:, None]
        self.means = member @ self.rows / self.counts[:, None]
        self.resid = self.rows - self.means[self.label_index]
        self.s_w = self.resid.T @ self.resid / self.n
        self.s_b = (self.means.T * self.counts) @ self.means / self.n


def train_lda(span: TrainingSpan, k) -> np.ndarray:
    """Solve S_b v = lambda S_w v in the span; the (D, k) matrix of the top-k directions.

    Its columns lie in the span and are scaled so that the projected
    within-class covariance is the identity. Projection is ``(x - mu) @ lda``,
    with the span's training mean, which ``PLDAModel`` stores. With N - K < r
    (K classes) S_w is singular by count and always gets the ridge; otherwise
    only when its factorization fails.
    """
    n_classes = len(span.counts)
    if n_classes < 2:
        raise InvalidArgumentError("LDA needs at least 2 classes")
    if not 1 <= k <= min(span.rank, n_classes - 1):
        raise InvalidArgumentError(f"K={k} outside 1..min(rank, n_classes-1)")
    s_b, s_w = span.s_b, span.s_w
    singular = span.n - n_classes < span.rank
    if not singular:
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w, check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            singular = True
    if singular:
        ridge = RIDGE * np.trace(s_w) / span.rank
        if not ridge > 0:  # every class is a single point: nothing to scale a ridge by
            raise NumericError("LDA: within-class scatter is zero")
        log.info("LDA: within-class scatter singular, ridge %.3g added", ridge)
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w + ridge * np.eye(span.rank))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            raise NumericError(
                f"LDA: within-class scatter singular even with ridge {ridge:.3g}") from None
    return span.basis @ evecs[:, np.argsort(evals)[::-1][:k]]


@dataclass
class PLDAModel:
    mu: np.ndarray  # (D,) training mean
    basis: np.ndarray  # (D, r) orthonormal basis of the training span
    phi_b: np.ndarray  # (r, r) between-class covariance, PSD
    phi_w: np.ndarray  # (r, r) within-class covariance, PD
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


def _plda_loglik(span, phi_b, phi_w):
    """Exact marginal log-likelihood of the span's rows under the two-covariance model.

    A class of n vectors splits into its mean, ~ N(mu, Phi_b + Phi_w/n), and
    n - 1 independent within-class directions, ~ N(0, Phi_w) each.
    """
    chol_w = _cholesky(phi_w, "within-class covariance")
    logdet_w = 2.0 * np.log(np.diag(chol_w)).sum()
    quad_w = np.square(scipy.linalg.solve_triangular(chol_w, span.resid.T, lower=True)).sum()
    total = -0.5 * (span.n * span.rank * np.log(2 * np.pi)
                    + (span.n - len(span.counts)) * logdet_w + quad_w)
    for n in np.unique(span.counts):
        chol_m = _cholesky(phi_b + phi_w / n, "mean covariance")
        means = span.means[span.counts == n]
        quad_m = np.square(scipy.linalg.solve_triangular(chol_m, means.T, lower=True)).sum()
        logdet_m = 2.0 * np.log(np.diag(chol_m)).sum()
        total -= 0.5 * (len(means) * (span.rank * np.log(n) + logdet_m) + quad_m)
    return float(total)


def train_plda(span: TrainingSpan, n_iters=10) -> PLDAModel:
    """EM for the two-covariance model in the span; objective recorded per iteration.

    Classes with a single example still contribute (their posterior simply
    has more weight on the prior). The within-class covariance is
    eigenvalue-floored at ``PLDA_FLOOR`` if it loses definiteness, as it
    must when N - K < r.
    """
    counts = span.counts
    if len(counts) < 2:
        raise InvalidArgumentError("PLDA needs at least 2 classes")
    if counts.max() < 2:
        raise InvalidArgumentError("PLDA needs some class with >= 2 examples")
    rank = span.rank
    phi_w, floored = _floor_spd(span.s_w, PLDA_FLOOR)
    if floored:
        log.info("PLDA init: within-class covariance floored")
    # between scatter can be rank-deficient (rank <= classes-1); a small ridge
    # keeps the first E-step's inverse well defined
    eps_b = RIDGE * max(1.0, np.trace(span.s_b) / rank)
    phi_b = (span.s_b + span.s_b.T) / 2.0 + eps_b * np.eye(rank)
    sizes, n_of_size = np.unique(counts, return_counts=True)
    objective = []
    for _ in range(n_iters + 1):
        objective.append(_plda_loglik(span, phi_b, phi_w))
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
        if floored:
            log.info("PLDA M-step: within-class covariance floored")
    return PLDAModel(mu=span.mu, basis=span.basis, phi_b=phi_b, phi_w=phi_w,
                     objective=objective)


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
    """Same/different-speaker log-likelihood ratio in the span coordinates
    where V^T Phi_w V = I and V^T Phi_b V = diag(psi) (Ioffe, ECCV 2006).

    ``prepare`` projects onto the span, which drops a vector's part off it."""

    def __init__(self, model: PLDAModel):
        psi, v = scipy.linalg.eigh(model.phi_b, model.phi_w, check_finite=False)
        psi = np.maximum(psi[::-1], 0.0)
        self.mu = model.mu
        self.v = model.basis @ v[:, ::-1]
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
