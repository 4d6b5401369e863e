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
``whiten``, built once per (T, UBM). The T-matrix E-step (``_posteriors``)
runs over blocks of ``TV_BLOCK_UTTS`` utterances, stacked one block at a
time: the block's posterior precisions are one GEMM of its zeroth-order
statistics with the Gram, each precision gets one Cholesky factorization, and
the M-step statistics are two GEMMs per block, summed in block order. The pass
after the last M-step computes only the objective. Extraction runs the same
kernel on a block of one utterance.

The arrays live in each EM step, beside the caller's inputs (N frames of D
dims, C components, rank R, B = ``TV_BLOCK_UTTS``); every one is float64
unless named otherwise, and no step changes a bit of the results:

- UBM E-step: the (N, C) posterior and the (N,) log-likelihoods, plus one
  block's (``E_STEP_ROWS``, C) temporaries. The frames may be float32, as the
  pipeline passes them; only the block in hand is cast.
- UBM M-step: the posterior and one (N, D) working copy of the frames, which
  gives the first moment and is then squared in place for the second.
- T-matrix E-step: T (C*D, R), whitened in place when an M-step will replace
  it, the (C, R, R) Gram, and the sums acc_a (C, R, R) and acc_k (R, C*D);
  per block, the stacked statistics (B, C) and (B, C*D) and the (B, R, R)
  precisions, each overwritten by its E[w w'] once factored. The block's
  sums are added in column chunks (``_column_chunks``), so no whole (C, R, R)
  product is built.
- T-matrix M-step: the whitened T and the Gram are freed first; the step
  holds acc_a, acc_k and the new T.
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
TV_BLOCK_UTTS = 64  # utterances per T-matrix E-step block
ACC_CHUNK_COLS = 1024  # columns per chunk of a block's M-step statistics


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

    Computed ``E_STEP_ROWS`` rows at a time into preallocated arrays, each
    block cast to float64; every row is bitwise what
    ``np.exp(ubm.log_posteriors(frames.astype(np.float64))[0])`` gives.
    """
    n = frames.shape[0]
    post = np.empty((n, ubm.n_components))
    ll = np.empty(n)
    for start in range(0, n, E_STEP_ROWS):
        rows = slice(start, start + E_STEP_ROWS)
        log_post, ll[rows] = ubm.log_posteriors(frames[rows].astype(np.float64, copy=False))
        np.exp(log_post, out=post[rows])
    return post, ll


def train_ubm(frames: np.ndarray, n_components, n_iters=10, seed=0) -> UBM:
    """EM-train a diagonal GMM on an (N, D) frame matrix.

    The recorded objective has n_iters+1 entries: the total log-likelihood
    before each M-step and once more after the last. Empty components are
    re-seeded by splitting the highest-occupancy component. ``frames`` may be
    float32: the arithmetic is float64 throughout, as on a float64 copy, but
    only E-step blocks and the M-step's working copy are ever cast.
    """
    frames = np.asarray(frames)
    n, dim = frames.shape
    if n < 2 * n_components:
        raise InvalidArgumentError(
            f"{n} frames is too few for {n_components} components"
        )
    rng = derive_rng(seed, "ubm-init")
    pick = rng.choice(n, size=n_components, replace=False)
    global_var = frames.var(axis=0, dtype=np.float64)
    floor = VAR_FLOOR_FRACTION * global_var + 1e-12
    ubm = UBM(
        weights=np.full(n_components, 1.0 / n_components),
        means=frames[pick].astype(np.float64),
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
        work = frames.astype(np.float64)  # squared in place for the second moment
        means = (post.T @ work) / occ[:, None]
        second = (post.T @ np.square(work, out=work)) / occ[:, None]
        del post, work  # the next E-step allocates a fresh posterior
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
    """Per-utterance statistics of a FeatureMatrix."""
    x = np.asarray(features.data, dtype=np.float64)
    if x.shape[1] != ubm.dim:
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


def _whitened_gram(ubm: UBM, tmat: np.ndarray, in_place=False):
    """(t3, inv_std, gram): T_c scaled by Sigma_c^-1/2 and gram_c = t3_c' t3_c.

    ``in_place`` whitens ``tmat`` itself, for a T that an M-step replaces.
    """
    c, d = ubm.n_components, ubm.dim
    inv_std = 1.0 / np.sqrt(ubm.variances)  # (C, D)
    t3 = tmat.reshape(c, d, -1)
    t3 = np.multiply(t3, inv_std[:, :, None], out=t3 if in_place else None)
    gram = np.matmul(t3.transpose(0, 2, 1), t3)
    return t3, inv_std, gram


def _column_chunks(m):
    """Slices of ``m`` columns for a block's M-step sums, each ``ACC_CHUNK_COLS``
    wide except the last, which takes the rest (up to twice that).

    A chunk's product keeps the bits of the whole product's columns only where
    both take the same GEMM kernel path. OpenBLAS's SkylakeX kernel takes a
    small-matrix path for a narrow chunk where the whole takes the blocked
    one, and the two round the columns past the last multiple of 16 apart
    (measured at R = 50). So a column count that is no multiple of 16 stays
    one chunk. tests/test_ivector.py checks the bits under two BLAS kernels.
    """
    n = max(1, m // ACC_CHUNK_COLS) if m % 16 == 0 else 1
    edges = [i * ACC_CHUNK_COLS for i in range(n)] + [m]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _posteriors(whitened, block, what, acc=None):
    """Posterior of w for each utterance of ``block``, a list of SuffStats.

    Returns b = T' S^-1 F (B, R), the means w = L^-1 b (B, R) and log det L
    (B,), where L = I + sum_c N_c gram_c; one Cholesky factor of each L gives
    both. With ``acc = (acc_a, acc_k)`` it also adds the block's M-step
    statistics, sum_u N_u E[w w'] (C, R, R) and sum_u w F' (R, C*D): each
    E[w w'] overwrites its factored precision, and the sums are added in
    column chunks, so no (C, R, R) product is allocated.
    """
    t3, inv_std, gram = whitened
    c, d, r = t3.shape
    n = np.array([s.n for s in block])
    fw = np.array([(s.f * inv_std).reshape(-1) for s in block])
    precision = (n @ gram.reshape(c, r * r)).reshape(-1, r, r)
    precision.reshape(-1, r * r)[:, :: r + 1] += 1.0
    b = fw @ t3.reshape(c * d, r)
    w = np.empty_like(b)
    logdet = np.empty(len(block))
    for i, p in enumerate(precision):
        try:
            factor = scipy.linalg.cho_factor(p, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"{what}: posterior precision is not PD: {exc}") from exc
        w[i] = scipy.linalg.cho_solve(factor, b[i], check_finite=False)
        logdet[i] = 2.0 * np.log(np.diag(factor[0])).sum()
        if acc is not None:  # E[w w'], in the factored precision's place
            p[:] = scipy.linalg.cho_solve(factor, np.eye(r), check_finite=False)
            p += np.outer(w[i], w[i])
    if acc is not None:
        acc_a, acc_k = acc
        sums = ((acc_a.reshape(c, -1), n.T, precision.reshape(len(block), -1)),
                (acc_k, w.T, fw))
        for total, left, right in sums:
            for cols in _column_chunks(right.shape[1]):
                total[:, cols] += left @ right[:, cols]
    return b, w, logdet


def _m_step(ubm: UBM, acc_a, acc_k):
    """The T-matrix that maximises the EM bound, one R x R solve per component."""
    c, d = ubm.n_components, ubm.dim
    rank = acc_a.shape[1]
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
    return (t_new * np.sqrt(ubm.variances)[:, :, None]).reshape(c * d, rank)


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
    objective = []
    for it in range(n_iters + 1):
        # the pass after the last M-step only scores the final T, which stays as it is;
        # every earlier T is whitened in place, as its M-step replaces it
        last = it == n_iters
        whitened = _whitened_gram(ubm, tmat, in_place=not last)
        acc = None if last else (np.zeros((c, rank, rank)), np.zeros((rank, c * d)))
        obj = 0.0
        for start in range(0, len(stats_list), TV_BLOCK_UTTS):
            b, w, logdet = _posteriors(
                whitened, stats_list[start : start + TV_BLOCK_UTTS], "t-matrix E-step", acc
            )
            obj += 0.5 * (float(np.sum(b * w)) - float(logdet.sum()))
        objective.append(obj)
        if last:
            break
        del whitened, tmat  # the whitened T and the Gram go before the M-step allocates
        tmat = _m_step(ubm, *acc)
        del acc  # freed before the next E-step allocates its own
    return TMatrix(t=tmat, n_components=c, dim=d, objective=objective)


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
    w = _posteriors(whitened, [stats], "i-vector extraction")[1][0]
    if not np.all(np.isfinite(w)):
        bad = int(np.argmax(~np.isfinite(w)))
        raise NumericError(f"non-finite i-vector component {bad}")
    return w
