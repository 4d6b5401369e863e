"""Span tracer that times xldv's layers from outside the program.

``Tracer.install()`` replaces public functions and methods of the xldv
modules with wrappers that record one span per call: name, start, end, the
span that was open when it started (its parent), process CPU time, and a
small per-call quantity (frames, pairs, bytes, ...). Nothing under ``src/``
is edited; the wrappers live only in the worker process that installs them.

Generators are traced per item: ``archive.archive_stream`` returns a
generator, so each ``next()`` on it is its own span, opened under whatever
span is consuming the stream. Generators passed *into* ``archive_write``
(the front-end records) run inside the write span and show up as its
children, which is why layer cost is reported as self time.
"""

import functools
import importlib
import inspect
import os
import sys
import time

NAME, START, END, PARENT, CPU0, CPU1, INFO = range(7)


def _file_size(pos, key="path"):
    def info(args, kwargs, result):
        try:
            return os.path.getsize(kwargs[key] if key in kwargs else args[pos])
        except OSError:
            return 0
    return info


def _arg(pos, key, default=None):
    def info(args, kwargs, result):
        if key in kwargs:
            return kwargs[key]
        return args[pos] if len(args) > pos else default
    return info


def _stage_info(args, kwargs, result):
    # run_stage(ctx, name, force=False) -> bool (True when the stage ran)
    return [args[1] if len(args) > 1 else kwargs["name"], bool(result)]


def _forward_info(args, kwargs, result):
    # NetworkGraph.forward(self, x, aux=None, want_cache=False, upto=None)
    x = args[1] if len(args) > 1 else kwargs["x"]
    cached = kwargs.get("want_cache", args[3] if len(args) > 3 else False)
    return [int(x.shape[0] * x.shape[1]), bool(cached)]


def _lr_halvings(args, kwargs, result):
    lrs = [h["lr"] for h in result.history]
    return sum(1 for a, b in zip(lrs, lrs[1:]) if b < a)


def _n_records(args, kwargs, result):
    return len(result.records)


def _frames_of_feat(pos):
    def info(args, kwargs, result):
        return int(args[pos].n_frames)
    return info


def _rows(args, kwargs, result):
    return int(len(result))


def _trials(args, kwargs, result):
    return int(len(result.scores))


# (module, attribute, span name, per-call info). Span names start with the
# layer they belong to; ``cli`` and ``config`` count as the pipeline layer.
WRAPPED = [
    ("xldv.cli", "main", "cli.main", None),
    ("xldv.config", "load_config", "config.load_config", None),
    ("xldv.pipeline", "run_stage", "pipeline.stage", _stage_info),
    ("xldv.pipeline", "sha256_file", "pipeline.sha256_file", _file_size(0)),
    ("xldv.pipeline", "RunManifest.__init__", "pipeline.manifest_load", None),
    ("xldv.pipeline", "RunManifest.save", "pipeline.manifest_save", None),
    ("xldv.pipeline", "make_context", "pipeline.make_context", None),
    ("xldv.corpus", "build_corpus", "corpus.build_corpus", _n_records),
    ("xldv.corpus", "load_utterance", "corpus.load_utterance", None),
    ("xldv.corpus", "CorpusManifest.load", "corpus.manifest_load", None),
    ("xldv.frontend", "fbank", "frontend.fbank", None),
    ("xldv.frontend", "mfcc", "frontend.mfcc", None),
    ("xldv.frontend", "add_deltas", "frontend.add_deltas", None),
    ("xldv.frontend", "cmvn", "frontend.cmvn", None),
    ("xldv.archive", "archive_write", "archive.write", _file_size(1)),
    ("xldv.archive", "archive_stream", "archive.stream", None),
    ("xldv.archive", "archive_read_dict", "archive.read_dict", None),
    ("xldv.archive", "save_checkpoint", "archive.save_checkpoint", _file_size(0)),
    ("xldv.archive", "load_checkpoint", "archive.load_checkpoint", _file_size(0)),
    ("xldv.nn.graph", "NetworkGraph.forward", "nn.forward", _forward_info),
    ("xldv.nn.graph", "NetworkGraph.backward", "nn.backward", None),
    ("xldv.nn.training", "sgd_step", "nn.sgd_step", None),
    ("xldv.nn.training", "train", "nn.train", None),
    ("xldv.ctdnn", "ChunkDataset.train_batch", "ctdnn.train_batch", None),
    ("xldv.ctdnn", "make_speaker_dataset", "ctdnn.make_dataset", None),
    ("xldv.ctdnn", "train_ctdnn", "ctdnn.train", _lr_halvings),
    ("xldv.ctdnn", "extract_frame_features", "ctdnn.extract", _frames_of_feat(1)),
    ("xldv.phonenet", "make_phone_dataset", "phonenet.make_dataset", None),
    ("xldv.phonenet", "train_phone_classifier", "phonenet.train", None),
    ("xldv.phonenet", "svd_decompose", "phonenet.svd", None),
    ("xldv.phonenet", "linguistic_factor", "phonenet.factor", _frames_of_feat(2)),
    ("xldv.ivector", "train_ubm", "ivector.train_ubm", _arg(2, "n_iters", 10)),
    ("xldv.ivector", "accumulate_stats", "ivector.stats", None),
    ("xldv.ivector", "train_tmatrix", "ivector.train_tmatrix", _arg(3, "n_iters", 10)),
    ("xldv.ivector", "extract_ivector", "ivector.extract", None),
    ("xldv.backend", "EmbeddingSet.from_archive", "backend.emb_load", None),
    ("xldv.backend", "EmbeddingSet.to_archive", "backend.emb_save", None),
    ("xldv.backend", "center_lengthnorm", "backend.lengthnorm", None),
    ("xldv.backend", "train_lda", "backend.train_lda", None),
    ("xldv.backend", "train_plda", "backend.train_plda", None),
    ("xldv.backend", "CosineScorer.score_pairs", "backend.cosine_pairs", _rows),
    ("xldv.backend", "PLDAScorer.score_pairs", "backend.plda_pairs", _rows),
    ("xldv.evalkit", "make_trials", "evalkit.make_trials", None),
    ("xldv.evalkit", "TrialList.save", "evalkit.trials_save", None),
    ("xldv.evalkit", "TrialList.load", "evalkit.trials_load", None),
    ("xldv.evalkit", "score_trials", "evalkit.score_trials", _trials),
    ("xldv.evalkit", "ScoreSet.save", "evalkit.scores_save", None),
    ("xldv.evalkit", "ScoreSet.load", "evalkit.scores_load", None),
    ("xldv.evalkit", "compute_eer", "evalkit.compute_eer", None),
    ("xldv.evalkit", "results_table", "evalkit.results_table", None),
]

# Functions that return generators: each next() is its own span, whose info is
# the record's payload bytes (float32 on disk).
GENERATOR_SPANS = {"archive.stream"}


class Tracer:
    """In-memory span recorder; single-threaded, so parents come from a stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           time.process_time(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, info=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[CPU1] = time.process_time()
        span[INFO] = info
        self._stack.pop()

    def _wrap_function(self, fn, name, info_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, info_fn(args, kwargs, result) if info_fn else None)
            return result
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.close(idx, 0)
                        return
                    except BaseException:
                        tracer.close(idx, 0)
                        raise
                    tracer.close(idx, int(item.data.size) * 4)
                    yield item
            return items()
        return traced

    def install(self):
        """Wrap every entry of WRAPPED in the loaded xldv modules."""
        replaced = {}
        for mod_name, attr, name, info_fn in WRAPPED:
            module = importlib.import_module(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[member] if owner_name else getattr(module, member)
            kind = None
            if isinstance(raw, classmethod):
                kind, raw = classmethod, raw.__func__
            if name in GENERATOR_SPANS:
                wrapped = self._wrap_generator(raw, name)
            else:
                wrapped = self._wrap_function(raw, name, info_fn)
            setattr(owner, member, kind(wrapped) if kind else wrapped)
            if not owner_name:
                replaced[id(raw)] = (raw, wrapped)
        # ``from .nn import train`` and similar bind the original function in
        # other modules' namespaces; point those names at the wrapper too.
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("xldv") or module is None:
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and inspect.isfunction(value):
                    setattr(module, key, hit[1])
