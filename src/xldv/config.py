"""Flat INI-style experiment configuration: ``section.key = value`` lines.

Every key is declared in the schema with a type and default; unknown keys and
type errors are rejected with line numbers. Section seeds default to values
derived from ``experiment.seed`` so that, after loading, every seed is
explicit and the whole pipeline is reproducible from the resolved file.
"""

import hashlib
from dataclasses import dataclass

from .corpus import derive_rng
from .errors import ConfigError


@dataclass
class Field:
    type: type
    default: object
    help: str


SCHEMA = {
    "experiment.seed": Field(int, 12345, "master seed; derived section seeds follow it"),
    "experiment.deterministic": Field(bool, False, "train in float64 (slower, test mode)"),
    "corpus.seed": Field(int, -1, "corpus seed (-1: derive from experiment.seed)"),
    "corpus.n_train_speakers": Field(int, 200, "training-language speakers"),
    "corpus.n_train_utts": Field(int, 20, "utterances per training speaker"),
    "corpus.n_eval_speakers": Field(int, 40, "eval speakers (each in both languages)"),
    "corpus.n_eval_utts": Field(int, 10, "utterances per eval speaker per language"),
    "corpus.n_phones": Field(int, 48, "phone templates per language"),
    "corpus.min_duration_s": Field(float, 2.0, "minimum utterance duration"),
    "corpus.max_duration_s": Field(float, 3.0, "maximum utterance duration"),
    "corpus.language_emphasis_db": Field(float, 6.0, "language-level band emphasis"),
    "corpus.envelope_floor": Field(float, 0.5, "phone template distance floor"),
    "frontend.n_mels": Field(int, 40, "filterbank size for the feature nets"),
    "frontend.splice_left": Field(int, 4, "left splice context"),
    "frontend.splice_right": Field(int, 4, "right splice context"),
    "ctdnn.seed": Field(int, -1, "feature-net seed (-1: derived)"),
    "ctdnn.conv1_channels": Field(int, 32, "first conv feature maps"),
    "ctdnn.conv2_channels": Field(int, 64, "second conv feature maps"),
    "ctdnn.bottleneck_dim": Field(int, 512, "CN/TD junction width"),
    "ctdnn.td_hidden": Field(int, 256, "time-delay affine width (pre-pnorm)"),
    "ctdnn.pnorm_group": Field(int, 2, "pnorm group size"),
    "ctdnn.feature_dim": Field(int, 400, "speaker feature width"),
    "ctdnn.epochs": Field(int, 5, "training epochs"),
    "ctdnn.batches_per_epoch": Field(int, 900, "minibatches per epoch"),
    "ctdnn.chunk_frames": Field(int, 24, "frames per training chunk"),
    "ctdnn.batch_chunks": Field(int, 16, "chunks per minibatch"),
    "ctdnn.learning_rate": Field(float, 0.1, "initial SGD learning rate"),
    "ctdnn.momentum": Field(float, 0.9, "SGD momentum"),
    "ctdnn.val_fraction": Field(float, 0.025, "held-out utterance fraction"),
    "asr.seed": Field(int, -1, "phone-net seed (-1: derived)"),
    "asr.td_hidden": Field(int, 256, "phone-net time-delay width"),
    "asr.n_stages": Field(int, 2, "time-delay stages"),
    "asr.svd_rank": Field(int, 40, "linguistic factor rank"),
    "asr.epochs": Field(int, 3, "training epochs"),
    "asr.batches_per_epoch": Field(int, 300, "minibatches per epoch"),
    "asr.chunk_frames": Field(int, 32, "frames per training chunk"),
    "asr.batch_chunks": Field(int, 8, "chunks per minibatch"),
    "asr.learning_rate": Field(float, 0.01, "initial SGD learning rate"),
    "ivector.seed": Field(int, -1, "UBM/T-matrix seed (-1: derived)"),
    "ivector.n_components": Field(int, 64, "UBM Gaussian components"),
    "ivector.dim": Field(int, 100, "i-vector dimension"),
    "ivector.ubm_iters": Field(int, 10, "UBM EM iterations"),
    "ivector.tv_iters": Field(int, 10, "T-matrix EM iterations"),
    "ivector.ubm_frames": Field(int, 250000, "frame subsample for UBM EM"),
    "backend.lda_dim": Field(int, 150, "LDA projection dim (clamped per system)"),
    "backend.plda_iters": Field(int, 10, "PLDA EM iterations"),
    "backend.train_utts_per_speaker": Field(int, 8, "train utts embedded per speaker"),
    "eval.conditions": Field(str, "A-A,B-B,A/B", "comma-separated trial conditions"),
}

DERIVED_SEED_SECTIONS = ("corpus", "ctdnn", "asr", "ivector")
LARGE_SCALE_THRESHOLDS = {
    "corpus.n_train_speakers": 1000,
    "ivector.n_components": 1024,
    "ivector.dim": 400,
}


def _parse_value(key, raw, line=None):
    field = SCHEMA[key]
    raw = raw.strip()
    try:
        if field.type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return field.type(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line=line) from exc


class ExperimentConfig:
    """Materialized configuration: every schema key has an explicit value."""

    def __init__(self, values=None):
        self.values = {k: f.default for k, f in SCHEMA.items()}
        self._explicit_seeds = set()
        if values:
            for k, v in values.items():
                if k not in SCHEMA:
                    raise ConfigError(f"unknown key {k!r}")
                self.values[k] = v
                if k.endswith(".seed") and k != "experiment.seed" and v != -1:
                    self._explicit_seeds.add(k)
        self._materialize_seeds()

    def _materialize_seeds(self):
        master = self.values["experiment.seed"]
        for section in DERIVED_SEED_SECTIONS:
            key = f"{section}.seed"
            if key not in self._explicit_seeds:
                rng = derive_rng(master, "section-seed", section)
                self.values[key] = int(rng.integers(0, 2**31 - 1))

    def __getitem__(self, key):
        if key not in self.values:
            raise ConfigError(f"unknown key {key!r}")
        return self.values[key]

    def set(self, key, raw_value):
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        value = _parse_value(key, str(raw_value))
        self.values[key] = value
        if key.endswith(".seed") and key != "experiment.seed":
            if value == -1:
                self._explicit_seeds.discard(key)
            else:
                self._explicit_seeds.add(key)
        self._materialize_seeds()

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
        """Cross-key checks; raises ConfigError on contradictions."""
        if self.values["corpus.min_duration_s"] > self.values["corpus.max_duration_s"]:
            raise ConfigError("corpus.min_duration_s exceeds corpus.max_duration_s")
        hidden = self.values["asr.td_hidden"] // 2
        if self.values["asr.svd_rank"] > min(hidden, self.values["corpus.n_phones"]):
            raise ConfigError(
                "asr.svd_rank exceeds min(phone-net hidden width, corpus.n_phones)"
            )
        for key in ("corpus.n_train_speakers", "corpus.n_eval_speakers",
                    "corpus.n_train_utts", "corpus.n_eval_utts", "corpus.n_phones"):
            if self.values[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
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
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        values[key] = _parse_value(key, raw_value, line=lineno)
    return values


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Load a config file (optional) and apply ``--set key=value`` overrides."""
    values = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    config = ExperimentConfig(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, raw = item.split("=", 1)
        config.set(key.strip(), raw.strip())
    return config.validate()


def validate_config(path) -> str:
    """Materialize a config file and report every value; raises on errors."""
    return load_config(path).report()
