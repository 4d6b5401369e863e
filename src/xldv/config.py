"""Flat INI-style experiment configuration: ``section.key = value`` lines.

Every key is declared in the schema with a type and default; unknown keys,
type errors and non-finite floats are rejected with line numbers. ``SCHEMA``
also owns each key's range: a ``Field``'s ``low`` is the least value any
stage can run with, and ``ExperimentConfig.validate`` is the one place that
checks it, before any stage runs. Section seeds default to values
derived from ``experiment.seed`` so that, after loading, every seed is
explicit and the whole pipeline is reproducible from the resolved file.

Only settings that runs or planned studies vary are keys. A fixed setting is a
constant of the module that uses it: ``frontend.N_MELS``, ``ctdnn.SPLICE``
and ``PNORM_GROUP``, ``corpus.ENVELOPE_FLOOR``, ``nn.training.MOMENTUM`` and
the phone net's ``N_STAGES``, ``CHUNK_FRAMES``, ``BATCH_CHUNKS`` and
``LEARNING_RATE``.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

from .corpus import derive_rng
from .ctdnn import PNORM_GROUP
from .errors import ConfigError


@dataclass
class Field:
    """One key: its type, default, help text and, if it has one, its least value."""

    type: type
    default: object
    help: str
    low: int | None = None


SCHEMA = {
    "experiment.seed": Field(int, 12345, "master seed; derived section seeds follow it"),
    "corpus.seed": Field(int, -1, "corpus seed (-1: derive from experiment.seed)"),
    "corpus.n_train_speakers": Field(int, 200, "training-language speakers", 2),
    "corpus.n_train_utts": Field(int, 20, "utterances per training speaker", 2),
    "corpus.n_eval_speakers": Field(int, 40, "eval speakers (each in both languages)", 2),
    "corpus.n_eval_utts": Field(int, 10, "utterances per eval speaker per language", 2),
    "corpus.n_phones": Field(int, 48, "phone templates per language", 1),
    "corpus.min_duration_s": Field(float, 2.0, "minimum utterance duration"),
    "corpus.max_duration_s": Field(float, 3.0, "maximum utterance duration"),
    "corpus.language_emphasis_db": Field(float, 6.0, "language-level band emphasis"),
    "ctdnn.seed": Field(int, -1, "feature-net seed (-1: derived)"),
    "ctdnn.conv1_channels": Field(int, 32, "first conv feature maps", 1),
    "ctdnn.conv2_channels": Field(int, 64, "second conv feature maps", 1),
    "ctdnn.bottleneck_dim": Field(int, 512, "CN/TD junction width", 1),
    "ctdnn.td_hidden": Field(int, 256, "time-delay affine width (pre-pnorm)", 1),
    "ctdnn.feature_dim": Field(int, 400, "speaker feature width", 1),
    "ctdnn.epochs": Field(int, 5, "training epochs", 0),
    "ctdnn.batches_per_epoch": Field(int, 900, "minibatches per epoch", 1),
    "ctdnn.chunk_frames": Field(int, 24, "frames per training chunk", 1),
    "ctdnn.batch_chunks": Field(int, 16, "chunks per minibatch", 1),
    "ctdnn.learning_rate": Field(float, 0.1, "initial SGD learning rate"),
    "ctdnn.val_fraction": Field(float, 0.025, "held-out utterance fraction"),
    "asr.seed": Field(int, -1, "phone-net seed (-1: derived)"),
    "asr.td_hidden": Field(int, 256, "phone-net time-delay width", 1),
    "asr.svd_rank": Field(int, 40, "linguistic factor rank", 1),
    "asr.epochs": Field(int, 3, "training epochs", 0),
    "asr.batches_per_epoch": Field(int, 300, "minibatches per epoch", 1),
    "ivector.seed": Field(int, -1, "UBM/T-matrix seed (-1: derived)"),
    "ivector.n_components": Field(int, 64, "UBM Gaussian components; one would give every "
                                  "frame to it, and CMVN'd frames sum to zero, so an "
                                  "i-vector would depend on the frame count alone", 2),
    "ivector.dim": Field(int, 100, "i-vector dimension; a 1-D i-vector length-norms to "
                         "+-1, so LDA's within-class scatter can be exactly zero", 2),
    "ivector.ubm_iters": Field(int, 10, "UBM EM iterations", 0),
    "ivector.tv_iters": Field(int, 10, "T-matrix EM iterations", 0),
    "ivector.ubm_frames": Field(int, 250000, "frame subsample for UBM EM", 1),
    "backend.lda_dim": Field(int, 150, "LDA projection dim (clamped per system)", 1),
    "backend.plda_iters": Field(int, 10, "PLDA EM iterations", 0),
    "backend.train_utts_per_speaker": Field(int, 8, "train utts embedded per speaker", 2),
}

DERIVED_SEED_SECTIONS = ("corpus", "ctdnn", "asr", "ivector")
LARGE_SCALE_THRESHOLDS = {
    "corpus.n_train_speakers": 1000,
    "ivector.n_components": 1024,
    "ivector.dim": 400,
}


def _parse_value(key, raw, line=None):
    field = SCHEMA.get(key)
    if field is None:
        raise ConfigError(f"unknown key {key!r}", line=line)
    raw = raw.strip()
    try:
        value = field.type(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line=line) from exc
    if not math.isfinite(value):
        raise ConfigError(f"bad value for {key}: {raw!r} is not finite", line=line)
    return value


@functools.cache
def _derived_seed(master, section):
    """A section's seed from ``experiment.seed``, once per process and pair."""
    return int(derive_rng(master, "section-seed", section).integers(0, 2**31 - 1))


class ExperimentConfig:
    """Materialized configuration: every schema key has an explicit value."""

    def __init__(self, values=None):
        self.values = {k: f.default for k, f in SCHEMA.items()}
        for k, v in (values or {}).items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown key {k!r}")
            self.values[k] = v
        for section in DERIVED_SEED_SECTIONS:
            key = f"{section}.seed"
            if self.values[key] == -1:
                self.values[key] = _derived_seed(self.values["experiment.seed"], section)

    def __getitem__(self, key):
        if key not in self.values:
            raise ConfigError(f"unknown key {key!r}")
        return self.values[key]

    def canonical_text(self):
        return "".join(f"{k} = {self.values[k]}\n" for k in sorted(self.values))

    def hash(self):
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def flags(self):
        out = []
        if any(self.values[k] >= v for k, v in LARGE_SCALE_THRESHOLDS.items()):
            out.append("large-scale")
        return out

    def validate(self):
        """Raises ConfigError on a config no stage could run: bounds, then cross-key."""
        v = self.values
        for key, field in SCHEMA.items():
            if field.low is not None and v[key] < field.low:
                raise ConfigError(f"{key} must be >= {field.low}")
        if v["ctdnn.learning_rate"] <= 0:
            raise ConfigError("ctdnn.learning_rate must be > 0")
        if not 0 <= v["ctdnn.val_fraction"] < 1:
            raise ConfigError("need 0 <= ctdnn.val_fraction < 1")
        if not 0 < v["corpus.min_duration_s"] <= v["corpus.max_duration_s"]:
            raise ConfigError("need 0 < corpus.min_duration_s <= corpus.max_duration_s")
        for key in ("ctdnn.td_hidden", "asr.td_hidden"):
            if v[key] % PNORM_GROUP:
                raise ConfigError(f"{key} must be a multiple of the p-norm group "
                                  f"size {PNORM_GROUP}")
        if v["asr.svd_rank"] > min(v["asr.td_hidden"] // PNORM_GROUP, v["corpus.n_phones"]):
            raise ConfigError(
                "asr.svd_rank exceeds min(phone-net hidden width, corpus.n_phones)"
            )
        n_train = v["corpus.n_train_speakers"] * v["corpus.n_train_utts"]
        if v["ivector.dim"] > n_train:
            raise ConfigError(f"ivector.dim exceeds the {n_train} training utterances "
                              "the T-matrix EM learns from")
        if v["ivector.ubm_frames"] < 2 * v["ivector.n_components"]:
            raise ConfigError("ivector.ubm_frames must be >= 2 * ivector.n_components")
        return self

    def report(self):
        """Every materialized value plus scale flags, one line each."""
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        for flag in self.flags():
            lines.append(f"flag: {flag}")
        return "\n".join(lines) + "\n"


def parse_config_text(text) -> dict:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw_line!r}",
                              line=lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = _parse_value(key, raw_value, line=lineno)
    return values


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Load a config file (optional) and apply ``--set key=value`` overrides."""
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        values = parse_config_text(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(values).validate()
