"""Per-layer metrics from the spans of traced worker steps.

Each layer metric is computed from the traced timed steps. When the timed
part never reaches the function a metric reads (eval-heavy trains nothing in
its timed part), the metric is computed from the traced set-up steps
instead, so every metric is measured on every workload; ``<layer>.self_s``
and the stage counts always describe the timed part alone.
"""

import math
import statistics

from tracer import CPU0, CPU1, END, INFO, NAME, PARENT, START

LAYERS = ("corpus", "frontend", "archive", "nn", "ctdnn", "phonenet", "ivector",
          "backend", "evalkit", "pipeline")
STAGES = ("synth", "feats", "train-asr", "train-ctdnn", "train-ubm", "train-tv",
          "extract", "backend-train", "score", "eval", "report")
TRAINING_STAGES = ("train-asr", "train-ctdnn", "train-ubm", "train-tv")
TAIL_QUANTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_of(name):
    prefix = name.split(".", 1)[0]
    return "pipeline" if prefix in ("cli", "config") else prefix


def percentile(values, q):
    data = sorted(values)
    pos = q / 100.0 * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(samples):
    """p50 plus the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_label": "none", "n": 0}
    label = next((q for q in TAIL_QUANTILES if n * (1 - q / 100.0) >= 10), 50.0)
    return {"p50": percentile(samples, 50.0), "tail": percentile(samples, label),
            "tail_label": f"p{label:g}", "n": n}


def window_spans(step):
    """The spans of a step, limited to its timed window when it has one."""
    spans = step["spans"]
    if "window" not in step:
        return spans
    t0, t1 = step["window"]
    return [s for s in spans if s[START] >= t0 and s[END] is not None and s[END] <= t1]


def self_times(step):
    """(name, self seconds) of each windowed span: its length minus its children's."""
    spans = step["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0 and s[END] is not None:
            child[s[PARENT]] += s[END] - s[START]
    wanted = {id(s) for s in window_spans(step)}
    return [(s[NAME], (s[END] - s[START]) - child[i])
            for i, s in enumerate(spans) if id(s) in wanted]


def train_steps_ms(spans):
    """Training step = cached forward start .. the following SGD step's end."""
    out, start = [], None
    for s in spans:
        if s[NAME] == "nn.forward" and s[INFO] and s[INFO][1]:
            start = s[START]
        elif s[NAME] == "nn.sgd_step" and start is not None:
            out.append((s[END] - start) * 1e3)
            start = None
    return out


class Phase:
    """The traced steps of one phase (set-up or timed) of a run."""

    def __init__(self, steps):
        self.steps = steps
        self.spans = [window_spans(st) for st in steps]

    def has(self, names):
        return any(s[NAME] in names for spans in self.spans for s in spans)

    def calls(self, names):
        return [s for spans in self.spans for s in spans if s[NAME] in names]

    def per_step(self, total):
        return total / max(len(self.steps), 1)

    def total_s(self, *names):
        return self.per_step(sum(s[END] - s[START] for s in self.calls(names)))

    def info_total(self, *names):
        return self.per_step(sum(s[INFO] or 0 for s in self.calls(names)))

    def rate(self, *names):
        calls = self.calls(names)
        busy = sum(s[END] - s[START] for s in calls)
        return sum(s[INFO] or 0 for s in calls) / busy if busy > 0 else 0.0

    def per_iter(self, name):
        calls = self.calls((name,))
        iters = sum(s[INFO] or 0 for s in calls)
        return sum(s[END] - s[START] for s in calls) / iters if iters else 0.0

    def ms_samples(self, name):
        return [(s[END] - s[START]) * 1e3 for s in self.calls((name,))]

    def count(self, key):
        return self.per_step(sum(st["counts"].get(key, 0) for st in self.steps))

    def self_s(self, match):
        return self.per_step(sum(sec for st in self.steps
                                 for name, sec in self_times(st) if match(name)))


def layer_metrics(timed_steps, setup_steps, layer_samples):
    """Ordered {name: (value, unit)} plus details (tails, sample counts)."""
    timed, setup = Phase(timed_steps), Phase(setup_steps)

    def pick(*names):
        return timed if timed.has(names) or not setup.has(names) else setup

    metrics, details = {}, {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    def put_timing(name, samples):
        summary = summarize(samples)
        details[name] = summary
        put(name, summary["p50"], "ms")
        put(name + ".tail", summary["tail"], "ms")
        put(name + ".n", summary["n"], "count")

    for stage in STAGES:
        ran = [s for s in timed.calls(("pipeline.stage",)) if s[INFO] == [stage, True]]
        if not ran:
            ran = [s for s in setup.calls(("pipeline.stage",)) if s[INFO] == [stage, True]]
        walls = [s[END] - s[START] for s in ran]
        cpus = [s[CPU1] - s[CPU0] for s in ran]
        put(f"pipeline.{stage}.wall_s", statistics.median(walls) if walls else 0.0, "s")
        put(f"pipeline.{stage}.cpu_s", statistics.median(cpus) if cpus else 0.0, "s")
    for key in ("stages_run", "stages_skipped"):
        values = [st["stage_counts"][key] for st in timed_steps]
        put(f"pipeline.{key}", statistics.median(values) if values else 0, "count")
    put("pipeline.hash_mb", timed.info_total("pipeline.sha256_file") / 1e6, "MB")
    put("pipeline.hash_s", timed.total_s("pipeline.sha256_file"), "s")
    put("pipeline.manifest_s",
        timed.total_s("pipeline.manifest_load", "pipeline.manifest_save"), "s")

    phase = pick("corpus.build_corpus")
    put("corpus.build_s", phase.total_s("corpus.build_corpus"), "s")
    put("corpus.utts_per_s", phase.rate("corpus.build_corpus"), "1/s")

    put_timing("frontend.fbank_ms", pick("frontend.fbank").ms_samples("frontend.fbank"))
    put_timing("frontend.mfcc_ms", pick("frontend.mfcc").ms_samples("frontend.mfcc"))

    writes = ("archive.write", "archive.save_checkpoint")
    reads = ("archive.stream", "archive.read_dict", "archive.load_checkpoint")
    put("archive.write_s", timed.self_s(lambda name: name in writes), "s")
    put("archive.read_s", timed.self_s(lambda name: name in reads), "s")
    put("archive.written_mb", timed.info_total(*writes) / 1e6, "MB")
    put("archive.read_mb", timed.info_total("archive.stream",
                                             "archive.load_checkpoint") / 1e6, "MB")

    for name, samples in layer_samples.items():
        summary = summarize(samples)
        details[name] = summary
        put(name, summary["p50"], "ms")
    phase = pick("nn.sgd_step")
    put_timing("nn.train_step_ms",
               [ms for spans in phase.spans for ms in train_steps_ms(spans)])
    put_timing("nn.batch_wait_ms", pick("ctdnn.train_batch").ms_samples("ctdnn.train_batch"))
    put_timing("nn.sgd_step_ms", phase.ms_samples("nn.sgd_step"))
    infer = [s for s in timed.calls(("nn.forward",)) if s[INFO] and not s[INFO][1]]
    busy = sum(s[END] - s[START] for s in infer)
    put("nn.infer_frames_per_s", sum(s[INFO][0] for s in infer) / busy if busy else 0.0,
        "1/s")

    phase = pick("ctdnn.train")
    put("ctdnn.train_s", phase.total_s("ctdnn.train"), "s")
    put("ctdnn.lr_halvings", phase.info_total("ctdnn.train"), "count")
    put("ctdnn.extract_frames_per_s", pick("ctdnn.extract").rate("ctdnn.extract"), "1/s")

    phase = pick("phonenet.train")
    put("phonenet.train_s", phase.total_s("phonenet.train"), "s")
    put("phonenet.svd_s", pick("phonenet.svd").total_s("phonenet.svd"), "s")
    put("phonenet.factor_frames_per_s", pick("phonenet.factor").rate("phonenet.factor"),
        "1/s")

    phase = pick("ivector.train_ubm")
    put("ivector.ubm_s_per_iter", phase.per_iter("ivector.train_ubm"), "s")
    put("ivector.ubm_reseeds", phase.count("ubm_reseeds"), "count")
    put_timing("ivector.stats_ms", pick("ivector.stats").ms_samples("ivector.stats"))
    phase = pick("ivector.train_tmatrix")
    put("ivector.tv_s_per_iter", phase.per_iter("ivector.train_tmatrix"), "s")
    put("ivector.tv_ridges", phase.count("tv_ridges"), "count")
    put_timing("ivector.extract_ms", pick("ivector.extract").ms_samples("ivector.extract"))

    phase = pick("backend.train_lda")
    put("backend.lda_train_s", phase.total_s("backend.train_lda"), "s")
    put("backend.lda_ridges", phase.count("lda_ridges"), "count")
    phase = pick("backend.train_plda")
    put("backend.plda_train_s", phase.total_s("backend.train_plda"), "s")
    put("backend.plda_floors", phase.count("plda_floors"), "count")
    put("backend.cosine_pairs_per_s",
        pick("backend.cosine_pairs").rate("backend.cosine_pairs"), "1/s")
    put("backend.plda_pairs_per_s", pick("backend.plda_pairs").rate("backend.plda_pairs"),
        "1/s")

    phase = pick("evalkit.score_trials")
    put("evalkit.trials", phase.info_total("evalkit.score_trials"), "count")
    put("evalkit.score_trials_per_s", phase.rate("evalkit.score_trials"), "1/s")
    put("evalkit.load_s", pick("evalkit.trials_load").total_s(
        "evalkit.trials_load", "evalkit.scores_load"), "s")
    put("evalkit.eer_s", pick("evalkit.compute_eer").total_s("evalkit.compute_eer"), "s")

    for layer in LAYERS:
        put(f"{layer}.self_s", timed.self_s(lambda name, layer=layer: layer_of(name) == layer),
            "s")
    return metrics, details


def stage_coverage(step):
    """Share of a traced timed step's wall time inside pipeline stage spans."""
    t0, t1 = step["window"]
    inside = sum(s[END] - s[START] for s in window_spans(step)
                 if s[NAME] == "pipeline.stage")
    return inside / (t1 - t0) if t1 > t0 else 0.0


def timed_pattern(values, traced_steps):
    """Where the traced timed part spends its time, to read against the ROADMAP."""
    ran = sorted({s[INFO][0] for st in traced_steps for s in window_spans(st)
                  if s[NAME] == "pipeline.stage" and s[INFO][1]})
    walls = {st: values[f"pipeline.{st}.wall_s"][0] for st in STAGES if st in ran}
    layers = {layer: values[f"{layer}.self_s"][0] for layer in LAYERS}
    extract_calls = values["ivector.extract_ms.n"][0] / max(len(traced_steps), 1)
    return {
        "stages_run_in_timed_part": ran,
        "training_stages_in_timed_part": [st for st in ran if st in TRAINING_STAGES],
        "largest_stage": max(walls, key=walls.get) if walls else None,
        "largest_layer_self_s": max(layers, key=layers.get),
        "layer_self_s": layers,
        "ivector_extract_s_per_rep": values["ivector.extract_ms"][0] * extract_calls / 1e3,
    }
