"""Frame-level phone classifier and the low-rank linguistic-factor extractor.

The classifier is a small stack of time-delay layers (with pnorm
nonlinearities) over log-mel input, ending in an affine map onto the phone
set. A rank-r SVD of that final affine transform gives the factor extractor:
per frame, factor = sqrt(S_r) V_r^T h where h is the last hidden activation
(the balanced square-root split of S_r). Its depth (``N_STAGES``), training
chunks (``CHUNK_FRAMES`` x ``BATCH_CHUNKS``) and initial ``LEARNING_RATE``
are constants; ``PhoneNetConfig`` holds the widths a run may set.
"""

import logging
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .frontend import N_MELS, FeatureMatrix
from .nn import LayerSpec, NetworkGraph, TrainState, train
from .ctdnn import PNORM_GROUP, ChunkDataset

log = logging.getLogger(__name__)

N_STAGES = 2  # time-delay + pnorm stages
CHUNK_FRAMES = 32
BATCH_CHUNKS = 8
LEARNING_RATE = 0.01


@dataclass
class PhoneNetConfig:
    n_phones: int
    td_hidden: int = 256


def build_phone_classifier(config: PhoneNetConfig, seed=0, dtype=np.float32) -> NetworkGraph:
    specs = []
    for _ in range(N_STAGES):
        specs.append(LayerSpec("timedelay", offsets=[-2, 0, 2], dim=config.td_hidden))
        specs.append(LayerSpec("pnorm", group=PNORM_GROUP))
    specs.append(LayerSpec("affine", dim=config.n_phones))
    specs.append(LayerSpec("softmax-xent"))
    return NetworkGraph(specs, ("vec", N_MELS), seed=seed, dtype=dtype)


def hidden_layer_index(graph: NetworkGraph) -> int:
    """Index of the last hidden layer (input to the final affine)."""
    return len(graph.layers) - 3


def final_affine(graph: NetworkGraph) -> np.ndarray:
    """The final affine transform in math orientation: (n_phones, hidden)."""
    return graph.layers[-2].params["W"].T.astype(np.float64)


def make_phone_dataset(feats, labels_by_utt, val_fraction=0.05, seed=0):
    """Chunks of frame rows, each labeled by its phone."""
    items = []
    for feat in feats:
        labels = np.asarray(labels_by_utt[feat.utterance_id], dtype=np.int64)
        if labels.shape[0] != feat.n_frames:
            raise InvalidArgumentError(
                f"{feat.utterance_id}: {labels.shape[0]} labels for {feat.n_frames} frames"
            )
        items.append((np.asarray(feat.data, np.float32), None, labels))
    return ChunkDataset(items, operator.getitem, CHUNK_FRAMES, BATCH_CHUNKS,
                        val_fraction, seed)


def train_phone_classifier(graph: NetworkGraph, dataset, state: TrainState):
    dataset.check_labels(graph.output_shape[1], "phone")
    return train(graph, dataset, state)


@dataclass
class LinguisticFactorExtractor:
    """Truncated factors of the classifier's final affine transform."""

    v_r: np.ndarray  # (hidden, r), orthonormal columns
    s_r: np.ndarray  # (r,), non-increasing, >= 0
    rank: int

    def __post_init__(self):
        if np.any(np.diff(self.s_r) > 1e-12):
            raise InvalidArgumentError("singular values must be non-increasing")
        gram = self.v_r.T @ self.v_r
        if np.abs(gram - np.eye(self.rank)).max() > 1e-6:
            raise InvalidArgumentError("V_r columns must be orthonormal within 1e-6")


def svd_decompose(graph: NetworkGraph, rank=40) -> LinguisticFactorExtractor:
    """Best rank-r factors of the final affine: W ~ U_r S_r V_r^T (Frobenius).

    Each singular pair's sign is fixed so that the largest-magnitude entry of
    its V column is positive; the factors then depend on W alone, not on the
    signs LAPACK happens to return.
    """
    w = final_affine(graph)  # (P, H)
    r_max = min(w.shape)
    if not 1 <= rank <= r_max:
        raise InvalidArgumentError(f"rank {rank} outside 1..{r_max}")
    _, s, vt = np.linalg.svd(w, full_matrices=False)
    v_r = vt[:rank].T.copy()
    v_r *= np.sign(v_r[np.abs(v_r).argmax(axis=0), np.arange(rank)])
    return LinguisticFactorExtractor(v_r=v_r, s_r=s[:rank], rank=rank)


def hidden_activations(graph: NetworkGraph, feat: FeatureMatrix) -> np.ndarray:
    """Last hidden activation per frame, (T, hidden)."""
    if feat.dim != graph.input_shape[1]:
        raise InvalidArgumentError(
            f"classifier expects dim {graph.input_shape[1]}, got {feat.dim}"
        )
    out = graph.forward(feat.data[None, :, :], upto=hidden_layer_index(graph))
    return out[0].astype(np.float64)


def linguistic_factor(extractor: LinguisticFactorExtractor, graph: NetworkGraph,
                      feat: FeatureMatrix) -> np.ndarray:
    """Per-frame factor, (T, r): sqrt(S_r) V_r^T h."""
    h = hidden_activations(graph, feat)
    return h @ extractor.v_r * np.sqrt(extractor.s_r)
