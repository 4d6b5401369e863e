"""Embedding back-ends: cosine, Fisher LDA, centering+length-norm, PLDA.

PLDA is the two-covariance model x = mu + y + e with y ~ N(0, Phi_b) and
e ~ N(0, Phi_w), trained by EM on class-labeled embeddings and scored as the
same/different-speaker log-likelihood ratio in the simultaneously
diagonalized basis. All back-end statistics are estimated on training data
only; evaluation embeddings are never folded into means or covariances.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, InvalidArgumentError, NumericError

log = logging.getLogger(__name__)

EPS_NORM = 1e-12
RIDGE = 1e-8


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


def cosine_score(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= EPS_NORM or nb <= EPS_NORM:
        raise DegenerateInputError("cosine of a zero vector")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def center_lengthnorm(vectors, mean) -> np.ndarray:
    """x -> (x - mean) / ||x - mean||, mean from the training set only."""
    x = np.asarray(vectors, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms <= EPS_NORM):
        bad = int(np.argmax(norms <= EPS_NORM))
        raise DegenerateInputError(f"embedding {bad} equals the centering mean")
    out = x / norms[:, None]
    return out[0] if single else out


def _scatters(x, labels):
    classes = sorted(set(labels))
    mu = x.mean(axis=0)
    d = x.shape[1]
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    labels = np.asarray(labels)
    for cls in classes:
        xc = x[labels == cls]
        mc = xc.mean(axis=0)
        dev = xc - mc
        s_w += dev.T @ dev
        diff = (mc - mu)[:, None]
        s_b += xc.shape[0] * (diff @ diff.T)
    return s_b / x.shape[0], s_w / x.shape[0], classes


def train_lda(vectors, labels, k) -> np.ndarray:
    """Solve S_b v = lambda S_w v; the (D, k) matrix of the top-k directions.

    Its columns are scaled so that the projected within-class covariance is
    the identity. Projection centres by the training mean, ``PLDAModel.mu``.
    """
    x = np.asarray(vectors, dtype=np.float64)
    s_b, s_w, classes = _scatters(x, labels)
    if len(classes) < 2:
        raise InvalidArgumentError("LDA needs at least 2 classes")
    k_max = min(x.shape[1], len(classes) - 1)
    if not 1 <= k <= x.shape[1]:
        raise InvalidArgumentError(f"K={k} outside 1..{x.shape[1]}")
    if k > k_max:
        raise InvalidArgumentError(
            f"K={k} exceeds min(D, n_classes-1)={k_max}"
        )
    try:
        evals, evecs = scipy.linalg.eigh(s_b, s_w, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        ridge = RIDGE * np.trace(s_w) / x.shape[1]
        if not ridge > 0:  # every class is a single point: nothing to scale a ridge by
            raise NumericError("LDA: within-class scatter is zero") from None
        log.info("LDA: within-class scatter singular, ridge %.3g added", ridge)
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w + ridge * np.eye(x.shape[1]))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            raise NumericError(
                f"LDA: within-class scatter singular even with ridge {ridge:.3g}") from None
    return evecs[:, np.argsort(evals)[::-1][:k]]


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


def _plda_loglik(x, labels, mu, phi_b, phi_w):
    """Exact marginal log-likelihood of the two-covariance model.

    A class of n vectors splits into its mean, ~ N(mu, Phi_b + Phi_w/n), and
    n - 1 independent within-class directions, ~ N(0, Phi_w) each.
    """
    labels = np.asarray(labels)
    d = x.shape[1]
    chol_w = _cholesky(phi_w, "within-class covariance")
    logdet_w = 2.0 * np.log(np.diag(chol_w)).sum()
    by_n = {}
    for cls in sorted(set(labels)):
        xc = x[labels == cls] - mu
        by_n.setdefault(xc.shape[0], []).append(xc)
    total = 0.0
    for n, groups in by_n.items():
        chol_m = _cholesky(phi_b + phi_w / n, "mean covariance")
        xc = np.stack(groups)  # (classes, n, D)
        xbar = xc.mean(axis=1)
        dev = (xc - xbar[:, None, :]).reshape(-1, d)
        quad_w = np.square(scipy.linalg.solve_triangular(chol_w, dev.T, lower=True)).sum()
        quad_m = np.square(scipy.linalg.solve_triangular(chol_m, xbar.T, lower=True)).sum()
        logdet_m = 2.0 * np.log(np.diag(chol_m)).sum()
        total += len(groups) * (
            -0.5 * n * d * np.log(2 * np.pi)
            - 0.5 * (n - 1) * logdet_w
            - 0.5 * d * np.log(n)
            - 0.5 * logdet_m
        ) - 0.5 * (quad_w + quad_m)
    return float(total)


def train_plda(vectors, labels, n_iters=10) -> PLDAModel:
    """EM for the two-covariance model; objective recorded per iteration.

    Classes with a single example still contribute (their posterior simply
    has more weight on the prior). The within-class covariance is
    eigenvalue-floored at 1e-8 if it loses definiteness.
    """
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise InvalidArgumentError("PLDA needs at least 2 classes")
    counts = {cls: int((labels == cls).sum()) for cls in classes}
    if max(counts.values()) < 2:
        raise InvalidArgumentError("PLDA needs some class with >= 2 examples")
    n, d = x.shape
    mu = x.mean(axis=0)
    s_b, s_w, _ = _scatters(x, labels)
    phi_w, floored = _floor_spd(s_w, 1e-8)
    if floored:
        log.info("PLDA init: within-class covariance floored")
    # between scatter can be rank-deficient (rank <= classes-1); a small ridge
    # keeps the first E-step's inverse well defined
    eps_b = RIDGE * max(1.0, np.trace(s_b) / d)
    phi_b = (s_b + s_b.T) / 2.0 + eps_b * np.eye(d)
    model = PLDAModel(mu=mu, phi_b=phi_b, phi_w=phi_w)
    xc_by_class = {cls: x[labels == cls] - mu for cls in classes}
    for _ in range(n_iters + 1):
        model.objective.append(_plda_loglik(x, labels, mu, model.phi_b, model.phi_w))
        if len(model.objective) == n_iters + 1:
            break
        inv_b = np.linalg.inv(model.phi_b)
        inv_w = np.linalg.inv(model.phi_w)
        acc_b = np.zeros((d, d))
        acc_w = np.zeros((d, d))
        post_cov = {
            cnt: np.linalg.inv(inv_b + cnt * inv_w) for cnt in set(counts.values())
        }
        for cls in classes:
            xc = xc_by_class[cls]
            cnt = xc.shape[0]
            cov = post_cov[cnt]
            y_hat = cov @ (inv_w @ (cnt * xc.mean(axis=0)))
            acc_b += cov + np.outer(y_hat, y_hat)
            dev = xc - y_hat
            acc_w += dev.T @ dev + cnt * cov
        phi_b, _ = _floor_spd(acc_b / len(classes), 0.0)
        phi_w, floored = _floor_spd(acc_w / n, 1e-8)
        if floored:
            log.info("PLDA M-step: within-class covariance floored")
        model.phi_b, model.phi_w = phi_b, phi_w
    return model


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
        return (enroll * test).sum(axis=1)


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
        return (self.k0 + (enroll**2) @ self.q + (test**2) @ self.q
                + ((enroll * self.p) * test).sum(axis=1))
