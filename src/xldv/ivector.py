"""Diagonal-covariance UBM, Baum-Welch statistics, and total-variability i-vectors.

UBM training is plain EM with a k-means-style start from random frames and a
variance floor at 1e-4 of the global variance. The E-step (``_e_step``, shared
with ``accumulate_stats``) runs over blocks of ``E_STEP_ROWS`` frames, so its
(N, C) temporaries shrink to block size; each row gets the same arithmetic as
a whole-matrix pass. The posterior itself is kept whole, so the M-step sums
over all N frames exactly as before. The total-variability model
M = m + T w (w ~ N(0, I)) is trained by EM over per-utterance sufficient
statistics; both EM loops record their objective per iteration so callers can
assert monotonicity. Training builds the whitened T and per-component Gram
(``_whitened_gram``) once per EM iteration; extraction takes them from
``whiten``, built once per (T, UBM).
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .corpus import derive_rng
from .errors import InvalidArgumentError, NumericError

log = logging.getLogger(__name__)

VAR_FLOOR_FRACTION = 1e-4
EMPTY_COMPONENT_OCCUPANCY = 1e-8
RIDGE = 1e-8
E_STEP_ROWS = 2048  # frames per E-step block


@dataclass
class UBM:
    weights: np.ndarray  # (C,), simplex
    means: np.ndarray  # (C, D)
    variances: np.ndarray  # (C, D), diagonal, floored
    objective: list = field(default_factory=list)  # total LL per EM iteration

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise InvalidArgumentError("UBM weights must sum to 1")
        if np.any(self.variances <= 0):
            raise InvalidArgumentError("UBM variances must be positive")

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def log_posteriors(self, x):
        """(N, C) log responsibilities and (N,) per-frame log-likelihoods."""
        inv_var = 1.0 / self.variances
        quad = (
            (x**2) @ inv_var.T
            - 2.0 * x @ (self.means * inv_var).T
            + ((self.means**2) * inv_var).sum(axis=1)
        )
        log_gauss = -0.5 * (
            quad + np.log(self.variances).sum(axis=1) + self.dim * np.log(2 * np.pi)
        )
        log_joint = log_gauss + np.log(self.weights)
        ll = _logsumexp(log_joint)
        return log_joint - ll[:, None], ll


def _logsumexp(a):
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True)))[:, 0]


def _e_step(ubm: UBM, frames):
    """(N, C) posteriors and (N,) per-frame log-likelihoods of ``frames``.

    Computed ``E_STEP_ROWS`` rows at a time into preallocated arrays; every
    row is bitwise what ``np.exp(ubm.log_posteriors(frames)[0])`` gives.
    """
    n = frames.shape[0]
    post = np.empty((n, ubm.n_components))
    ll = np.empty(n)
    for start in range(0, n, E_STEP_ROWS):
        rows = slice(start, start + E_STEP_ROWS)
        log_post, ll[rows] = ubm.log_posteriors(frames[rows])
        np.exp(log_post, out=post[rows])
    return post, ll


def train_ubm(frames: np.ndarray, n_components, n_iters=10, seed=0) -> UBM:
    """EM-train a diagonal GMM on an (N, D) frame matrix.

    The recorded objective has n_iters+1 entries: the total log-likelihood
    before each M-step and once more after the last. Empty components are
    re-seeded by splitting the highest-occupancy component.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n, dim = frames.shape
    if n < 2 * n_components:
        raise InvalidArgumentError(
            f"{n} frames is too few for {n_components} components"
        )
    rng = derive_rng(seed, "ubm-init")
    pick = rng.choice(n, size=n_components, replace=False)
    global_var = frames.var(axis=0)
    floor = VAR_FLOOR_FRACTION * global_var + 1e-12
    ubm = UBM(
        weights=np.full(n_components, 1.0 / n_components),
        means=frames[pick].copy(),
        variances=np.tile(np.maximum(global_var, floor), (n_components, 1)),
    )
    for it in range(n_iters):
        post, ll = _e_step(ubm, frames)
        ubm.objective.append(float(ll.sum()))
        occ = post.sum(axis=0)
        order = np.argsort(occ)
        for c in order:
            if occ[c] / n > EMPTY_COMPONENT_OCCUPANCY:
                continue
            donor = int(np.argmax(occ))
            log.info("iteration %d: re-seeding empty component %d from %d", it, c, donor)
            jitter = derive_rng(seed, "split", it, int(c)).normal(
                0.0, 1.0, dim
            ) * np.sqrt(ubm.variances[donor]) * 0.1
            ubm.means[c] = ubm.means[donor] + jitter
            ubm.variances[c] = ubm.variances[donor]
            occ[c] = occ[donor] = occ[donor] / 2.0
            half = post[:, donor] / 2.0
            post[:, c] = half
            post[:, donor] = half
        weights = occ / occ.sum()
        means = (post.T @ frames) / occ[:, None]
        second = (post.T @ (frames**2)) / occ[:, None]
        del post  # the next E-step allocates a fresh one
        variances = np.maximum(second - means**2, floor)
        ubm.weights, ubm.means, ubm.variances = weights, means, variances
    _, ll = _e_step(ubm, frames)
    ubm.objective.append(float(ll.sum()))
    return ubm


@dataclass
class SuffStats:
    """Zeroth/centered-first-order Baum-Welch statistics for one utterance."""

    n: np.ndarray  # (C,)
    f: np.ndarray  # (C, D), centered on the UBM means
    n_frames: int


def accumulate_stats(ubm: UBM, features) -> SuffStats:
    """Per-utterance statistics; features is (T, D) or a FeatureMatrix."""
    x = np.asarray(getattr(features, "data", features), dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ubm.dim:
        raise InvalidArgumentError(
            f"features must be (T, {ubm.dim}), got {x.shape}"
        )
    post, _ = _e_step(ubm, x)
    n = post.sum(axis=0)
    f = post.T @ x - n[:, None] * ubm.means
    return SuffStats(n=n, f=f, n_frames=x.shape[0])


@dataclass
class TMatrix:
    t: np.ndarray  # (C*D, R)
    n_components: int
    dim: int
    objective: list = field(default_factory=list)


def _whitened_gram(ubm: UBM, tmat: np.ndarray):
    """(t3, inv_std, gram): T_c scaled by Sigma_c^-1/2 and gram_c = t3_c' t3_c."""
    c, d = ubm.n_components, ubm.dim
    inv_std = 1.0 / np.sqrt(ubm.variances)  # (C, D)
    t3 = tmat.reshape(c, d, -1) * inv_std[:, :, None]
    gram = np.einsum("cdr,cds->crs", t3, t3)
    return t3, inv_std, gram


def _posterior(t3, gram, inv_std, stats: SuffStats):
    """Posterior mean/precision of w for one utterance's statistics."""
    r = t3.shape[2]
    precision = np.eye(r) + np.tensordot(stats.n, gram, axes=(0, 0))
    b = np.einsum("cdr,cd->r", t3, stats.f * inv_std)
    return precision, b


def _solve_spd(a, b, what):
    try:
        c, lower = scipy.linalg.cho_factor(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what}: posterior precision is not PD: {exc}") from exc
    return scipy.linalg.cho_solve((c, lower), b, check_finite=False)


def train_tmatrix(ubm: UBM, stats_list, rank, n_iters=10, seed=0) -> TMatrix:
    """EM for the total-variability matrix over a list of SuffStats.

    Objective is the exact marginal log-likelihood of the (whitened) first
    order statistics up to a T-independent constant: per utterance,
    -0.5 logdet(L) + 0.5 b^T L^-1 b. Recorded before each M-step and after
    the last, so monotonicity is checkable.
    """
    if rank < 1:
        raise InvalidArgumentError("rank must be >= 1")
    if len(stats_list) < rank:
        raise InvalidArgumentError(
            f"need at least rank={rank} utterances, got {len(stats_list)}"
        )
    c, d = ubm.n_components, ubm.dim
    if rank > c * d:
        raise InvalidArgumentError(f"rank {rank} exceeds supervector dim {c * d}")
    rng = derive_rng(seed, "tmatrix-init")
    tmat = rng.normal(0.0, 1.0, (c * d, rank)) * np.sqrt(ubm.variances.reshape(-1, 1))
    result = TMatrix(t=tmat, n_components=c, dim=d)
    for _ in range(n_iters + 1):
        t3, inv_std, gram = _whitened_gram(ubm, result.t)
        obj = 0.0
        acc_a = np.zeros((c, rank, rank))
        acc_k = np.zeros((rank, c * d))
        for stats in stats_list:
            precision, b = _posterior(t3, gram, inv_std, stats)
            w = _solve_spd(precision, b, "t-matrix E-step")
            sign, logdet = np.linalg.slogdet(precision)
            if sign <= 0:
                raise NumericError("t-matrix posterior precision lost definiteness")
            obj += -0.5 * logdet + 0.5 * float(b @ w)
            cov = np.linalg.inv(precision)
            eww = cov + np.outer(w, w)
            acc_a += stats.n[:, None, None] * eww
            acc_k += np.outer(w, (stats.f * inv_std).reshape(-1))
        result.objective.append(obj)
        if len(result.objective) == n_iters + 1:
            break
        t_new = np.empty((c, d, rank))
        for ci in range(c):
            a = acc_a[ci]
            rhs = acc_k[:, ci * d : (ci + 1) * d]
            try:
                sol = scipy.linalg.solve(a, rhs, assume_a="pos", check_finite=False)
            except np.linalg.LinAlgError:
                log.info("t-matrix M-step: ridge added to component %d", ci)
                sol = scipy.linalg.solve(
                    a + RIDGE * np.trace(a) / rank * np.eye(rank), rhs
                )
            t_new[ci] = sol.T
        result.t = (t_new * np.sqrt(ubm.variances)[:, :, None]).reshape(c * d, rank)
    return result


def whiten(ubm: UBM, tmatrix: TMatrix):
    """The whitened T and per-component Gram that ``extract_ivector`` takes.

    Built once per (T, UBM) rather than once per utterance (Glembek et al.,
    "Simplification and optimization of i-vector extraction", ICASSP 2011).
    """
    if tmatrix.n_components != ubm.n_components or tmatrix.dim != ubm.dim:
        raise InvalidArgumentError("T-matrix shape does not match the UBM")
    return _whitened_gram(ubm, tmatrix.t)


def extract_ivector(whitened, stats: SuffStats) -> np.ndarray:
    """Posterior mean w = (I + T' S^-1 N T)^-1 T' S^-1 F; ``whitened`` is ``whiten(ubm, T)``."""
    t3, inv_std, gram = whitened
    precision, b = _posterior(t3, gram, inv_std, stats)
    if not np.allclose(precision, precision.T, atol=1e-8):
        raise NumericError("posterior precision is not symmetric")
    w = _solve_spd(precision, b, "i-vector extraction")
    if not np.all(np.isfinite(w)):
        bad = int(np.argmax(~np.isfinite(w)))
        raise NumericError(f"non-finite i-vector component {bad}")
    return w
