"""Deep speaker-feature learner: convolutional front + time-delay back.

The network reads ``frontend.N_MELS`` = 40 log-mel bands spliced +-``SPLICE``
= 4 frames, laid out as a (freq=40, chan=9) map per frame: two
convolution+maxpool stages learn local spectral patterns, a 512-unit
bottleneck bridges into two time-delay+pnorm stages (groups of
``PNORM_GROUP`` = 2) that widen the temporal context, and a 400-unit feature
layer is length-normalized to give the per-frame speaker feature. Utterance
embeddings (d-vectors) average the frame features. The phone-aware variant
concatenates a per-frame linguistic factor to the bottleneck output, right
before the first time-delay layer. The input geometry and the p-norm group
are constants, not config keys; the layer widths are ``CTDNNConfig`` fields.

The temporal geometry is fixed (output frame t reads input frames t-10..t+9, a
20-frame window): splice +-4, conv taps {-2..1}, conv taps {-1..1}, then
time-delay offsets {-1, 2} and {-2, 1}. The mirrored second stage makes the
composite time-delay reach {-3, 0, +3}, so frame t's feature depends on frame
t's own bottleneck output (and linguistic factor).
"""

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .corpus import derive_rng
from .errors import DegenerateInputError, InvalidArgumentError
from .frontend import N_MELS, FeatureMatrix, edge_index
from .nn import LayerSpec, NetworkGraph, TrainState, train

log = logging.getLogger(__name__)

SPLICE = 4  # input frames of context on each side of the centre frame
PNORM_GROUP = 2


@dataclass
class CTDNNConfig:
    n_speakers: int
    conv1_channels: int = 32
    conv2_channels: int = 64
    bottleneck_dim: int = 512
    td_hidden: int = 256
    feature_dim: int = 400
    factor_dim: int = 40  # phone-aware only
    n_mels: ClassVar[int] = N_MELS
    splice_width: ClassVar[int] = 2 * SPLICE + 1


def _specs(config: CTDNNConfig):
    """The layer stack; its temporal and frequency geometry is fixed."""
    return [
        LayerSpec("conv2d", kernel_t=4, kernel_f=5, channels=config.conv1_channels,
                  t_lo=-2, stride_f=2),
        LayerSpec("maxpool", window_f=2),
        LayerSpec("conv2d", kernel_t=3, kernel_f=4, channels=config.conv2_channels,
                  t_lo=-1, stride_f=1),
        LayerSpec("maxpool", window_f=2),
        LayerSpec("affine", dim=config.bottleneck_dim),
        LayerSpec("timedelay", offsets=[-1, 2], dim=config.td_hidden),
        LayerSpec("pnorm", group=PNORM_GROUP),
        LayerSpec("timedelay", offsets=[-2, 1], dim=config.td_hidden),
        LayerSpec("pnorm", group=PNORM_GROUP),
        LayerSpec("affine", dim=config.feature_dim),
        LayerSpec("lengthnorm"),
        LayerSpec("affine", dim=config.n_speakers),
        LayerSpec("softmax-xent"),
    ]


FEATURE_LAYER_OFFSET = 3  # lengthnorm output, counted from the end


def feature_layer_index(graph):
    return len(graph.layers) - FEATURE_LAYER_OFFSET


def _build(config: CTDNNConfig, seed, dtype, aux=None) -> NetworkGraph:
    return NetworkGraph(
        _specs(config),
        ("map", config.n_mels, config.splice_width),
        seed=seed,
        dtype=dtype,
        input_context=(-SPLICE, SPLICE),
        aux=aux,
    )


def build_phone_blind(config: CTDNNConfig, seed=0, dtype=np.float32) -> NetworkGraph:
    """The baseline structure; input is spliced Fbank as a (n_mels, splice) map."""
    return _build(config, seed, dtype)


def build_phone_aware(config: CTDNNConfig, seed=0, dtype=np.float32) -> NetworkGraph:
    """Phone-blind structure plus a per-frame linguistic-factor input.

    The ``factor_dim``-wide factor is concatenated to the bottleneck output
    just before the first time-delay layer.
    """
    return _build(config, seed, dtype, aux={"layer": 5, "dim": config.factor_dim})


def _splice_maps(frames, rows) -> np.ndarray:
    """(len(rows), n_mels, splice) maps centred on ``rows`` of (T, n_mels) frames."""
    offsets = range(-SPLICE, SPLICE + 1)
    return frames[edge_index(frames.shape[0], rows, offsets)].transpose(0, 2, 1)


def to_input_tensor(feat: FeatureMatrix, config: CTDNNConfig) -> np.ndarray:
    """(T, n_mels) features -> (1, T, n_mels, splice) tensor."""
    if feat.dim != config.n_mels:
        raise InvalidArgumentError(
            f"feature dim {feat.dim} does not match n_mels {config.n_mels}"
        )
    return _splice_maps(feat.data, np.arange(feat.n_frames))[None]


def extract_frame_features(graph: NetworkGraph, feat: FeatureMatrix,
                           config: CTDNNConfig, factors=None) -> np.ndarray:
    """Per-frame speaker features (T x feature_dim, unit-norm rows)."""
    x = to_input_tensor(feat, config)
    aux = None
    if graph.aux is not None:
        if factors is None:
            raise InvalidArgumentError(
                "phone-aware graph needs per-frame linguistic factors"
            )
        if factors.shape[0] != feat.n_frames:
            raise InvalidArgumentError(
                f"factor rows {factors.shape[0]} != feature frames {feat.n_frames}"
            )
        aux = np.asarray(factors)[None, :, :]
    out = graph.forward(x, aux=aux, upto=feature_layer_index(graph))
    return out[0].astype(np.float64)


def dvector(frame_features: np.ndarray) -> np.ndarray:
    """Utterance embedding: arithmetic mean of the frame features."""
    frame_features = np.asarray(frame_features)
    if frame_features.ndim != 2 or frame_features.shape[0] < 1:
        raise DegenerateInputError("d-vector needs at least one frame feature")
    return frame_features.mean(axis=0)


MIN_VAL_ITEMS = 2  # held-out utterances, however small ``val_fraction``


class ChunkDataset:
    """Fixed-length chunk sampler over utterance-level arrays.

    ``items`` is a list of (frames (T, D) float32, aux (T, A) or None,
    labels (T,) int64). A chunk takes the rows ``start..start+chunk_frames-1``
    of each array with edge clamping, so a chunk near an utterance boundary
    replicates the boundary frame exactly like the network's own edge
    handling; ``make_input(frames, rows)`` turns the frame rows into the
    network input. Validation batches are pre-cut deterministically; training
    batches sample (utterance, offset) pairs from the trainer RNG, so the
    trajectory depends only on seeds.
    """

    def __init__(self, items, make_input, chunk_frames, batch_chunks, val_fraction, seed):
        if not items:
            raise InvalidArgumentError("dataset is empty")
        rng = derive_rng(seed, "dataset-split")
        order = rng.permutation(len(items))
        n_val = max(MIN_VAL_ITEMS, int(round(val_fraction * len(items))))
        n_val = min(n_val, max(1, len(items) - 1))
        val_idx = set(order[:n_val].tolist())
        self.train_items = [it for i, it in enumerate(items) if i not in val_idx]
        self.val_items = [it for i, it in enumerate(items) if i in val_idx]
        self.make_input = make_input
        self.chunk_frames = chunk_frames
        self.batch_chunks = batch_chunks
        self.val_batches = self._cut_val()

    def chunk(self, item, start):
        """(input, aux rows or None, labels) of the chunk at ``start``."""
        frames, aux, labels = item
        rows = edge_index(frames.shape[0], start, np.arange(self.chunk_frames))
        return (self.make_input(frames, rows),
                None if aux is None else aux[rows], labels[rows])

    def check_labels(self, n_out, kind):
        """The set of labels; raises unless all lie in 0..n_out-1."""
        items = self.train_items + self.val_items
        labels = set().union(*(np.unique(item[2]).tolist() for item in items))
        if min(labels) < 0 or max(labels) >= n_out:
            raise InvalidArgumentError(f"{kind} labels must lie within 0..{n_out - 1}")
        return labels

    def _stack(self, chunks):
        xs = np.stack([c[0] for c in chunks])
        aux = None
        if chunks[0][1] is not None:
            aux = np.stack([c[1] for c in chunks])
        labels = np.concatenate([c[2] for c in chunks])
        return xs, aux, labels

    def _cut_val(self):
        batches = []
        pending = []
        for item in self.val_items:
            for start in range(0, item[0].shape[0], self.chunk_frames):
                pending.append(self.chunk(item, start))
                if len(pending) == self.batch_chunks:
                    batches.append(self._stack(pending))
                    pending = []
        if pending:
            batches.append(self._stack(pending))
        return batches

    def train_batch(self, rng):
        chunks = []
        for _ in range(self.batch_chunks):
            item = self.train_items[rng.integers(len(self.train_items))]
            max_start = max(1, item[0].shape[0] - self.chunk_frames + 1)
            chunks.append(self.chunk(item, int(rng.integers(max_start))))
        return self._stack(chunks)


def make_speaker_dataset(feats, labels_by_utt, config: CTDNNConfig, factors_by_utt,
                         chunk_frames, batch_chunks, val_fraction, seed) -> ChunkDataset:
    """Chunks of spliced (n_mels, splice) maps, each frame labeled by speaker.

    ``feats`` is an iterable of FeatureMatrix (n_mels wide, CMVN applied);
    ``labels_by_utt`` maps utterance_id -> its speaker's class index, and
    ``factors_by_utt``, None for the phone-blind net, to its linguistic
    factors. A chunk's maps are rows of ``to_input_tensor`` on the whole
    utterance.
    """
    items = []
    for feat in feats:
        if feat.dim != config.n_mels:
            raise InvalidArgumentError(
                f"{feat.utterance_id}: expected {config.n_mels}-dim features, "
                f"got {feat.dim}"
            )
        factors = None
        if factors_by_utt is not None:
            factors = np.asarray(factors_by_utt[feat.utterance_id], dtype=np.float32)
        items.append((np.asarray(feat.data, np.float32), factors,
                      np.full(feat.n_frames, labels_by_utt[feat.utterance_id],
                              dtype=np.int64)))
    return ChunkDataset(items, _splice_maps, chunk_frames, batch_chunks, val_fraction, seed)


def contiguous_labels(speaker_ids):
    """Map sorted unique speaker ids to 0..K-1."""
    return {spk: i for i, spk in enumerate(sorted(set(speaker_ids)))}


def train_ctdnn(graph: NetworkGraph, dataset: ChunkDataset, state: TrainState):
    """Train and return the TrainResult; caller persists the checkpoint."""
    labels = dataset.check_labels(graph.output_shape[1], "speaker")
    if labels != set(range(max(labels) + 1)):
        raise InvalidArgumentError("speaker label set has gaps")
    return train(graph, dataset, state)
