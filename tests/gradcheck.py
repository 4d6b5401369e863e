"""Central finite-difference gradient checker for built graphs.

Runs in 64-bit mode only. Graphs containing non-smooth layers (maxpool,
pnorm) are probed at inputs whose pooling margins and group norms stay clear
of ties/zeros; inputs are resampled until that holds, and the pass threshold
widens from 1e-4 to 1e-3 as the non-smooth layers demand.
"""

from dataclasses import dataclass, field

import numpy as np

from xldv.corpus import derive_rng
from xldv.errors import InvalidArgumentError
from xldv.nn.graph import softmax_xent

SMOOTH_TOL = 1e-4
NONSMOOTH_TOL = 1e-3
NONSMOOTH_KINDS = {"maxpool", "pnorm"}


@dataclass
class GradCheckReport:
    max_rel_err: float
    tolerance: float
    probes: list = field(default_factory=list)  # (layer name, param, index, rel err)


def _loss(graph, x, aux, labels):
    logits = graph.forward(x, aux=aux)
    loss, _ = softmax_xent(logits.reshape(-1, logits.shape[-1]), labels)
    return loss


def _margins_ok(graph, x, aux, epsilon):
    """True if pooling ties and pnorm zero-groups are at least 10*eps away."""
    h = np.asarray(x, dtype=graph.dtype)
    for i, layer in enumerate(graph.layers):
        h = graph._inject_aux(h, aux, i)
        out = layer.forward(h, {})
        if layer.kind == "maxpool" and layer.wf > 1:
            # compare the max against the runner-up in every window
            ranked = np.sort(layer.windows(h), axis=3)
            if np.any(ranked[:, :, :, -1] - ranked[:, :, :, -2] < 10 * epsilon):
                return False
        if layer.kind == "pnorm" and np.any(np.abs(out) < 10 * epsilon):
            return False
        h = out
    return True


def sample_input(graph, n_frames=8, batch=2, seed=0, epsilon=1e-5, max_tries=20):
    """Draw a random (input, aux, labels) triple at a smooth probe point."""
    rng = derive_rng(seed, "gradcheck-input")
    if graph.input_shape[0] == "map":
        shape = (batch, n_frames, graph.input_shape[1], graph.input_shape[2])
    else:
        shape = (batch, n_frames, graph.input_shape[1])
    n_classes = graph.output_shape[1]
    for _ in range(max_tries):
        x = rng.normal(0.0, 1.0, shape)
        aux = None
        if graph.aux is not None:
            aux = rng.normal(0.0, 1.0, (batch, n_frames, graph.aux["dim"]))
        labels = rng.integers(0, n_classes, batch * n_frames)
        if _margins_ok(graph, x, aux, epsilon):
            return x, aux, labels
    raise InvalidArgumentError("could not find a smooth probe point for gradcheck")


def grad_check(graph, x=None, aux=None, labels=None, n_probes=60, epsilon=1e-5,
               seed=0) -> GradCheckReport:
    """Compare analytic parameter gradients against central differences.

    The graph must be in float64 mode. Probes prefer parameters whose
    finite-difference gradient is non-negligible; each (layer, parameter,
    index) triple is sampled uniformly from a seeded RNG.
    """
    if graph.dtype != np.float64:
        raise InvalidArgumentError("grad_check requires a float64 graph")
    if x is None:
        x, aux, labels = sample_input(graph, seed=seed, epsilon=epsilon)
    rng = derive_rng(seed, "gradcheck-probes")
    logits = graph.forward(x, aux=aux, want_cache=True)
    _, dflat = softmax_xent(logits.reshape(-1, logits.shape[-1]), labels)
    grads, _ = graph.backward(dflat.reshape(logits.shape), want_dinput=False)

    tensors = [
        (i, name) for i, layer in enumerate(graph.layers) for name in layer.params
    ]
    if not tensors:
        raise InvalidArgumentError("graph has no parameters to check")
    nonsmooth = any(l.kind in NONSMOOTH_KINDS for l in graph.layers)
    tol = NONSMOOTH_TOL if nonsmooth else SMOOTH_TOL

    probes = []
    max_err = 0.0
    for _ in range(n_probes):
        li, name = tensors[rng.integers(len(tensors))]
        param = graph.layers[li].params[name]
        flat = rng.integers(param.size)
        idx = np.unravel_index(flat, param.shape)
        orig = param[idx]
        param[idx] = orig + epsilon
        up = _loss(graph, x, aux, labels)
        param[idx] = orig - epsilon
        down = _loss(graph, x, aux, labels)
        param[idx] = orig
        numeric = (up - down) / (2 * epsilon)
        analytic = float(grads[li][name][idx])
        scale = max(abs(numeric), abs(analytic))
        rel = 0.0 if scale < 1e-10 else abs(numeric - analytic) / scale
        probes.append((graph.layers[li].name, name, idx, rel))
        max_err = max(max_err, rel)
    return GradCheckReport(max_rel_err=max_err, tolerance=tol, probes=probes)
