"""Deep speaker-feature learner: convolutional front + time-delay back.

The network reads spliced log-mel features laid out as a (freq=40, chan=9)
map per frame: two convolution+maxpool stages learn local spectral patterns,
a 512-unit bottleneck bridges into two time-delay+pnorm stages that widen the
temporal context, and a 400-unit feature layer is length-normalized to give
the per-frame speaker feature. Utterance embeddings (d-vectors) average the
frame features. The phone-aware variant concatenates a per-frame linguistic
factor to the bottleneck output, right before the first time-delay layer.

Default temporal geometry (output frame t reads input frames t-10..t+9, a
20-frame window): splice +-4, conv taps {-2..1}, conv taps {-1..1}, then
time-delay offsets {-1, 2} and {-2, 1}. The mirrored second stage makes the
composite time-delay reach {-3, 0, +3}, so frame t's feature depends on frame
t's own bottleneck output (and linguistic factor).
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import derive_rng
from .errors import DegenerateInputError, InvalidArgumentError
from .frontend import FeatureMatrix, edge_index
from .nn import LayerSpec, NetworkGraph, TrainState, train

log = logging.getLogger(__name__)


@dataclass
class CTDNNConfig:
    n_speakers: int
    n_mels: int = 40
    splice_left: int = 4
    splice_right: int = 4
    conv1_channels: int = 32
    conv2_channels: int = 64
    conv1_time: int = 4
    conv2_time: int = 3
    conv1_freq: int = 5
    conv2_freq: int = 4
    conv1_freq_stride: int = 2
    conv2_freq_stride: int = 1
    pool_freq: int = 2
    bottleneck_dim: int = 512
    td1_offsets: tuple = (-1, 2)
    td2_offsets: tuple = (-2, 1)
    td_hidden: int = 256
    pnorm_group: int = 2
    feature_dim: int = 400
    factor_dim: int = 40  # phone-aware only

    @property
    def splice_width(self):
        return self.splice_left + self.splice_right + 1

    def validate(self):
        if self.n_speakers < 2:
            raise InvalidArgumentError("need at least 2 speakers")
        if self.feature_dim < 1 or self.bottleneck_dim < 1:
            raise InvalidArgumentError("feature and bottleneck dims must be >= 1")
        if self.td_hidden % self.pnorm_group:
            raise InvalidArgumentError("td_hidden must divide by the pnorm group size")


def _specs(config: CTDNNConfig):
    return [
        LayerSpec("conv2d", kernel_t=config.conv1_time, kernel_f=config.conv1_freq,
                  channels=config.conv1_channels, t_lo=-(config.conv1_time // 2),
                  stride_f=config.conv1_freq_stride),
        LayerSpec("maxpool", window_f=config.pool_freq),
        LayerSpec("conv2d", kernel_t=config.conv2_time, kernel_f=config.conv2_freq,
                  channels=config.conv2_channels, t_lo=-(config.conv2_time // 2),
                  stride_f=config.conv2_freq_stride),
        LayerSpec("maxpool", window_f=config.pool_freq),
        LayerSpec("affine", dim=config.bottleneck_dim),
        LayerSpec("timedelay", offsets=list(config.td1_offsets), dim=config.td_hidden),
        LayerSpec("pnorm", group=config.pnorm_group),
        LayerSpec("timedelay", offsets=list(config.td2_offsets), dim=config.td_hidden),
        LayerSpec("pnorm", group=config.pnorm_group),
        LayerSpec("affine", dim=config.feature_dim),
        LayerSpec("lengthnorm"),
        LayerSpec("affine", dim=config.n_speakers),
        LayerSpec("softmax-xent"),
    ]


FEATURE_LAYER_OFFSET = 3  # lengthnorm output, counted from the end


def feature_layer_index(graph):
    return len(graph.layers) - FEATURE_LAYER_OFFSET


def _build(config: CTDNNConfig, seed, dtype, aux=None) -> NetworkGraph:
    config.validate()
    return NetworkGraph(
        _specs(config),
        ("map", config.n_mels, config.splice_width),
        seed=seed,
        dtype=dtype,
        input_context=(-config.splice_left, config.splice_right),
        aux=aux,
    )


def build_phone_blind(config: CTDNNConfig, seed=0, dtype=np.float32) -> NetworkGraph:
    """The baseline structure; input is spliced Fbank as a (n_mels, splice) map."""
    return _build(config, seed, dtype)


def build_phone_aware(config: CTDNNConfig, linguistic_dim=None, seed=0,
                      dtype=np.float32) -> NetworkGraph:
    """Phone-blind structure plus a per-frame linguistic-factor input.

    The factor is concatenated to the bottleneck output just before the first
    time-delay layer.
    """
    dim = config.factor_dim if linguistic_dim is None else linguistic_dim
    if dim < 1:
        raise InvalidArgumentError("linguistic factor dim must be >= 1")
    return _build(config, seed, dtype, aux={"layer": 5, "dim": dim})  # first timedelay


def receptive_field(graph: NetworkGraph) -> int:
    """Symbolic temporal context (frames) of one output/feature frame."""
    lo, hi = graph.time_span()
    return hi - lo + 1


def _splice_maps(frames, rows, config: CTDNNConfig) -> np.ndarray:
    """(len(rows), n_mels, splice) maps centred on ``rows`` of (T, n_mels) frames."""
    offsets = range(-config.splice_left, config.splice_right + 1)
    return frames[edge_index(frames.shape[0], rows, offsets)].transpose(0, 2, 1)


def to_input_tensor(feat: FeatureMatrix, config: CTDNNConfig) -> np.ndarray:
    """(T, n_mels) features -> (1, T, n_mels, splice) tensor."""
    if feat.dim != config.n_mels:
        raise InvalidArgumentError(
            f"feature dim {feat.dim} does not match n_mels {config.n_mels}"
        )
    return _splice_maps(feat.data, np.arange(feat.n_frames), config)[None]


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


class ChunkDataset:
    """Fixed-length chunk sampler over utterance-level arrays.

    ``items`` is a list of (frames (T,...) float32, aux (T,A) or None, label).
    Chunks are index-gathered with edge clamping, so a chunk near an
    utterance boundary replicates the boundary frame exactly like the
    network's own edge handling. Validation batches are pre-cut
    deterministically; training batches sample (utterance, offset) pairs from
    the trainer RNG, so the trajectory depends only on seeds.

    Subclasses define ``_make_chunk(item, start)``, which turns the frame
    window ``_window(item, start)`` into (input, aux or None, labels).
    """

    def __init__(self, items, chunk_frames=24, batch_chunks=8, val_fraction=0.05,
                 seed=0, min_val_items=2):
        if not items:
            raise InvalidArgumentError("dataset is empty")
        rng = derive_rng(seed, "dataset-split")
        order = rng.permutation(len(items))
        n_val = max(min_val_items, int(round(val_fraction * len(items))))
        n_val = min(n_val, max(1, len(items) - 1))
        val_idx = set(order[:n_val].tolist())
        self.train_items = [it for i, it in enumerate(items) if i not in val_idx]
        self.val_items = [it for i, it in enumerate(items) if i in val_idx]
        self.chunk_frames = chunk_frames
        self.batch_chunks = batch_chunks
        self.val_batches = self._cut_val()

    def _window(self, item, start):
        return edge_index(item[0].shape[0], start, np.arange(self.chunk_frames))

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
                pending.append(self._make_chunk(item, start))
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
            chunks.append(self._make_chunk(item, int(rng.integers(max_start))))
        return self._stack(chunks)


class SpeakerChunkDataset(ChunkDataset):
    """Chunks of spliced (n_mels, splice) maps labeled by speaker.

    Frames are stored compactly as (T, n_mels); each chunk's maps are the
    rows ``_window(item, start)`` of ``to_input_tensor`` on the whole
    utterance.
    """

    def __init__(self, items, config: CTDNNConfig, **kw):
        self.config = config
        super().__init__(items, **kw)

    def _make_chunk(self, item, start):
        frames, aux, label = item
        idx = self._window(item, start)
        x = _splice_maps(frames, idx, self.config)
        a = aux[idx] if aux is not None else None
        return x, a, np.full(self.chunk_frames, label, dtype=np.int64)


def make_speaker_dataset(feats, labels_by_speaker, config: CTDNNConfig,
                         factors_by_utt=None, chunk_frames=24, batch_chunks=8,
                         val_fraction=0.05, seed=0) -> SpeakerChunkDataset:
    """Build a chunk dataset keyed by speaker labels.

    ``feats`` is an iterable of FeatureMatrix (n_mels wide, CMVN applied);
    ``labels_by_speaker`` maps speaker_id -> contiguous class index.
    """
    items = []
    for feat in feats:
        if feat.speaker_id not in labels_by_speaker:
            raise InvalidArgumentError(f"no label for speaker {feat.speaker_id!r}")
        if feat.dim != config.n_mels:
            raise InvalidArgumentError(
                f"{feat.utterance_id}: expected {config.n_mels}-dim features, "
                f"got {feat.dim}"
            )
        factors = None
        if factors_by_utt is not None:
            factors = np.asarray(factors_by_utt[feat.utterance_id], dtype=np.float32)
        items.append((feat.data.astype(np.float32), factors,
                      labels_by_speaker[feat.speaker_id]))
    return SpeakerChunkDataset(items, config, chunk_frames=chunk_frames,
                               batch_chunks=batch_chunks,
                               val_fraction=val_fraction, seed=seed)


def contiguous_labels(speaker_ids):
    """Map sorted unique speaker ids to 0..K-1."""
    return {spk: i for i, spk in enumerate(sorted(set(speaker_ids)))}


def train_ctdnn(graph: NetworkGraph, dataset: ChunkDataset, state: TrainState):
    """Train and return the TrainResult; caller persists the checkpoint."""
    n_out = graph.output_shape[1]
    labels = {label for _, _, label in dataset.train_items + dataset.val_items}
    if min(labels) < 0 or max(labels) >= n_out:
        raise InvalidArgumentError(
            f"speaker labels must lie within 0..{n_out - 1}"
        )
    if labels != set(range(max(labels) + 1)):
        raise InvalidArgumentError("speaker label set has gaps")
    return train(graph, dataset, state)
