"""Network graph: ordered layer specs, shape record, forward/backward, checkpoints."""

import numpy as np

from .. import archive
from ..corpus import derive_rng
from ..errors import DataError, InvalidArgumentError, StateError
from .layers import LAYER_CLASSES

VALID_KINDS = set(LAYER_CLASSES)


class LayerSpec:
    """Layer kind plus its hyperparameters (shape-checked at graph build)."""

    def __init__(self, kind, **hyper):
        if kind not in VALID_KINDS:
            raise InvalidArgumentError(f"unknown layer kind {kind!r}")
        self.kind = kind
        self.hyper = hyper

    def to_dict(self):
        return {"kind": self.kind, **self.hyper}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        return cls(d.pop("kind"), **d)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.hyper.items())
        return f"LayerSpec({self.kind!r}, {args})"


class NetworkGraph:
    """Ordered layers with parameters and a consistent shape record.

    ``input_shape`` is ("map", freq, chan) or ("vec", dim); ``input_context``
    is the (lo, hi) frame context already baked into each input frame by the
    front-end (e.g. (-4, 4) for a +-4 splice).
    ``aux`` optionally concatenates a per-frame auxiliary input of width
    ``aux["dim"]`` to the activations entering layer ``aux["layer"]``.
    Without ``init`` no seeded init is drawn: the weights are read-only
    placeholders that ``from_checkpoint`` replaces.
    """

    def __init__(self, specs, input_shape, seed=0, dtype=np.float32,
                 input_context=(0, 0), aux=None, init=True):
        self.specs = list(specs)
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.input_context = tuple(input_context)
        self.aux = dict(aux) if aux else None
        if self.aux is not None:
            if self.aux["dim"] < 1:
                raise InvalidArgumentError("aux dim must be >= 1")
            if not 0 <= self.aux["layer"] < len(self.specs):
                raise InvalidArgumentError("aux injection layer out of range")
        self.layers = []
        self.shape_record = []
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            cls = LAYER_CLASSES[spec.kind]
            layer = cls(spec.hyper, name=f"{i}:{spec.kind}")
            in_shape = shape
            if self.aux is not None and self.aux["layer"] == i:
                if in_shape[0] != "vec":
                    raise InvalidArgumentError(
                        "aux input can only be concatenated to a vector activation"
                    )
                in_shape = ("vec", in_shape[1] + self.aux["dim"])
            rng = derive_rng(seed, "init", i, spec.kind) if init else None
            shape = layer.build(in_shape, rng, self.dtype)
            self.layers.append(layer)
            self.shape_record.append((in_shape, shape))
        self.output_shape = shape
        self._caches = None

    def parameters(self):
        """Yield (layer_index, name, array) for every parameter tensor."""
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                yield i, name, arr

    def _inject_aux(self, x, aux_x, index):
        if self.aux is None or self.aux["layer"] != index:
            return x
        if aux_x is None:
            raise InvalidArgumentError("graph expects an auxiliary per-frame input")
        if aux_x.shape[:2] != x.shape[:2] or aux_x.shape[2] != self.aux["dim"]:
            raise InvalidArgumentError(
                f"aux input shape {aux_x.shape} does not match frames {x.shape[:2]} "
                f"x dim {self.aux['dim']}"
            )
        return np.concatenate([x, aux_x.astype(x.dtype, copy=False)], axis=2)

    def forward(self, x, aux=None, want_cache=False, upto=None):
        """Run layers 0..upto (inclusive); returns the last activation.

        With ``want_cache`` the per-layer caches are retained for a following
        ``backward`` call.
        """
        x = np.asarray(x, dtype=self.dtype)
        caches = [] if want_cache else None
        last = len(self.layers) - 1 if upto is None else upto
        for i, layer in enumerate(self.layers[: last + 1]):
            x = self._inject_aux(x, aux, i)
            cache = {}
            x = layer.forward(x, cache)
            if want_cache:
                caches.append(cache)
        if want_cache:
            self._caches = caches
        return x

    def backward(self, dout, want_dinput=True):
        """Backpropagate from the output; returns (grads per layer, dinput).

        Requires a preceding forward(want_cache=True). Gradient w.r.t. the
        auxiliary input is discarded. Without ``want_dinput`` the first
        layer's input gradient is never computed, and dinput is None.
        """
        if self._caches is None or len(self._caches) != len(self.layers):
            raise StateError("backward called before a cached full forward pass")
        grads = [None] * len(self.layers)
        dx = np.asarray(dout, dtype=self.dtype)
        for i in range(len(self.layers) - 1, -1, -1):
            layer, cache = self.layers[i], self._caches[i]
            grads[i] = layer.param_grads(dx, cache)
            if i == 0 and not want_dinput:
                dx = None
                break
            dx = layer.input_grad(dx, cache)
            if self.aux is not None and self.aux["layer"] == i:
                dx = dx[:, :, : dx.shape[2] - self.aux["dim"]]
        self._caches = None
        return grads, dx

    def find_first_nonfinite(self, x, aux=None):
        """Name the first layer producing non-finite values, or None."""
        x = np.asarray(x, dtype=self.dtype)
        if not np.all(np.isfinite(x)):
            return "input"
        for i, layer in enumerate(self.layers):
            x = self._inject_aux(x, aux, i)
            x = layer.forward(x, {})
            if not np.all(np.isfinite(x)):
                return layer.name
        return None

    # --- checkpoint I/O -----------------------------------------------------

    def state_header(self, extra=None):
        header = {
            "layer_specs": [s.to_dict() for s in self.specs],
            "input_shape": list(self.input_shape),
            "input_context": list(self.input_context),
            "seed": self.seed,
            "dtype": self.dtype.name,
            "aux": self.aux,
        }
        if extra:
            header.update(extra)
        return header

    def tensors(self):
        return {f"layer{i:02d}.{name}": arr for i, name, arr in self.parameters()}

    def save(self, path, extra_header=None):
        archive.save_checkpoint(path, self.state_header(extra_header), self.tensors())

    @classmethod
    def from_checkpoint(cls, path, header):
        """The graph saved at ``path`` and its stored header, which must hold each
        entry of ``header`` (``{"kind": "ctdnn", "variant": "phone-blind"}``)."""
        stored, tensors = archive.load_kind(path, header)
        try:
            graph = cls([LayerSpec.from_dict(d) for d in stored["layer_specs"]],
                        tuple(stored["input_shape"]), seed=stored["seed"],
                        dtype=np.dtype(stored["dtype"]),
                        input_context=tuple(stored["input_context"]), aux=stored["aux"],
                        init=False)
        except KeyError as exc:
            raise DataError(f"{path}: network checkpoint lacks {exc}") from None
        for i, layer in enumerate(graph.layers):
            for name in layer.params:
                key = f"layer{i:02d}.{name}"
                if key not in tensors:
                    raise DataError(f"{path}: network checkpoint lacks {key!r}")
                if tensors[key].shape != layer.params[name].shape:
                    raise DataError(
                        f"{path}: checkpoint tensor {key} has shape {tensors[key].shape}, "
                        f"expected {layer.params[name].shape}"
                    )
                layer.params[name] = tensors[key].astype(graph.dtype, copy=False)
        return graph, stored


def softmax_xent(logits, labels):
    """Mean cross-entropy over frames with max-subtraction stabilization.

    ``logits`` is (N, K) (flatten batch/time first), ``labels`` (N,) ints.
    Returns (loss, dlogits) where dlogits is the gradient of the mean loss.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise InvalidArgumentError(
            f"softmax_xent expects (N,K) logits and (N,) labels, got "
            f"{logits.shape} and {labels.shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise InvalidArgumentError("label index out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(z)
    n = logits.shape[0]
    loss = -float(log_probs[np.arange(n), labels].mean())
    grad = exp / z
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)
