"""References that ``xldv.backend`` must match: the scalar cosine of one pair,
and dense LDA and PLDA training.

The trainers factorize D x D matrices of whatever rows they are given, with
no basis of their own: run on ``TrainingSpan.rows`` they must give the
span-basis model, and their ``PLDAModel`` has the identity as its basis. LDA
adds its ridge whenever N - K < D (K classes), where the within-class
scatter is singular by count.
"""

import logging

import numpy as np
import scipy.linalg

from xldv.backend import EPS_NORM, PLDA_FLOOR, RIDGE, PLDAModel, _cholesky, _floor_spd
from xldv.errors import DegenerateInputError, InvalidArgumentError, NumericError

log = logging.getLogger(__name__)


def cosine_score(a, b) -> float:
    """The cosine of two vectors, one pair at a time: ``CosineScorer``'s oracle."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= EPS_NORM or nb <= EPS_NORM:
        raise DegenerateInputError("cosine of a zero vector")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


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
    singular = x.shape[0] - len(classes) < x.shape[1]
    if not singular:
        try:
            evals, evecs = scipy.linalg.eigh(s_b, s_w, check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            singular = True
    if singular:
        ridge = RIDGE * np.trace(s_w) / x.shape[1]
        if not ridge > 0:
            raise NumericError("LDA: within-class scatter is zero")
        log.info("LDA: within-class scatter singular, ridge %.3g added", ridge)
        evals, evecs = scipy.linalg.eigh(s_b, s_w + ridge * np.eye(x.shape[1]))
    return evecs[:, np.argsort(evals)[::-1][:k]]


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
    phi_w, floored = _floor_spd(s_w, PLDA_FLOOR)
    if floored:
        log.info("PLDA init: within-class covariance floored")
    eps_b = RIDGE * max(1.0, np.trace(s_b) / d)
    phi_b = (s_b + s_b.T) / 2.0 + eps_b * np.eye(d)
    model = PLDAModel(mu=mu, basis=np.eye(d), phi_b=phi_b, phi_w=phi_w)
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
        phi_w, floored = _floor_spd(acc_w / n, PLDA_FLOOR)
        if floored:
            log.info("PLDA M-step: within-class covariance floored")
        model.phi_b, model.phi_w = phi_b, phi_w
    return model
