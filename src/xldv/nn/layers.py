"""Layer forward/backward implementations.

Conventions: map-shaped activations are (batch, time, freq, chan); vector
activations are (batch, time, dim). All layers preserve the batch and time
axes; temporal context (convolution taps, time-delay offsets) uses edge
replication so T never shrinks. Backward passes are exact, including the
fold-back of gradients through the replicated edges, so finite-difference
checks hold to float precision.
"""

import numpy as np

from ..errors import DegenerateInputError, InvalidArgumentError
from ..frontend import edge_index

LENGTHNORM_EPS = 1e-12


def _dense_params(rng, d_in, d_out, fan_out, dtype):
    """W, Glorot-uniform over fans (d_in, fan_out), and a zero b; with no
    ``rng``, W is a read-only placeholder of no memory, for a graph whose
    parameters come from a checkpoint."""
    if rng is None:
        w = np.broadcast_to(np.zeros((), dtype), (d_in, d_out))
    else:
        limit = np.sqrt(6.0 / (d_in + fan_out))
        w = rng.uniform(-limit, limit, (d_in, d_out)).astype(dtype)
    return {"W": w, "b": np.zeros(d_out, dtype=dtype)}


def _fold_time_padding(dxp, left, right):
    """Collapse gradient of a replicate-padded tensor back onto the source."""
    t = dxp.shape[1] - left - right
    dx = dxp[:, left : left + t].copy()
    if left:
        dx[:, 0] += dxp[:, :left].sum(axis=1)
    if right:
        dx[:, -1] += dxp[:, left + t :].sum(axis=1)
    return dx


class Layer:
    """Base: subclasses define hyperparams, params, shapes, ``forward``,
    ``input_grad`` and, when they have params, ``param_grads``. A layer is
    built from its ``LayerSpec`` and its index in the graph."""

    def __init__(self, spec, index):
        self.kind = spec.kind
        self.hyper = dict(spec.hyper)
        self.name = f"{index}:{spec.kind}"
        self.params = {}

    def build(self, in_shape, rng, dtype):
        """Validate/record shapes and initialize parameters (placeholders when
        ``rng`` is None). Returns out_shape."""
        raise NotImplementedError

    def forward(self, x, cache):
        raise NotImplementedError

    def backward(self, dy, cache):
        """Returns (dx, grads dict aligned with self.params)."""
        return self.input_grad(dy, cache), self.param_grads(dy, cache)

    def input_grad(self, dy, cache):
        raise NotImplementedError

    def param_grads(self, dy, cache):
        """Gradients of the parameters, a dict aligned with self.params."""
        return {}

    def _bad(self, msg):
        return InvalidArgumentError(f"layer {self.name} ({self.kind}): {msg}")


class Dense(Layer):
    """y = G W + b: the weighted product, its parameter gradients and the
    time-delay input gradient.

    G concatenates, for each output frame t, the input frames t+offset over
    the sorted offsets (edge replication); map inputs are flattened to
    (B, T, F*C) first. ``timedelay`` names its offsets. ``affine`` is the
    case of the one offset 0: G is the input itself, and its gradient needs
    no padded buffer. Subclasses replace ``gather`` and ``input_grad``.
    """

    def build(self, in_shape, rng, dtype):
        d_in = in_shape[1] * in_shape[2] if in_shape[0] == "map" else in_shape[1]
        self.offsets = [0] if self.kind == "affine" else sorted(self.hyper["offsets"])
        if not self.offsets:
            raise self._bad("offsets must be non-empty")
        d_out = self.hyper["dim"]
        if d_out < 1:
            raise self._bad("output dim must be >= 1")
        self.d_in = d_in
        self.d_cat = d_in * len(self.offsets)
        self.params = _dense_params(rng, self.d_cat, d_out, d_out, dtype)
        return ("vec", d_out)

    def gather(self, x):
        if x.ndim == 4:
            x = x.reshape(x.shape[0], x.shape[1], -1)
        if x.shape[-1] != self.d_in:
            raise self._bad(f"expected input dim {self.d_in}, got {x.shape[-1]}")
        if self.offsets == [0]:
            return x
        t = x.shape[1]
        return x.take(edge_index(t, np.arange(t), self.offsets), axis=1).reshape(
            x.shape[0], t, self.d_cat
        )

    def forward(self, x, cache):
        cache["in_shape"] = x.shape
        g = cache["g"] = self.gather(x)
        return g @ self.params["W"] + self.params["b"]

    def param_grads(self, dy, cache):
        g = cache["g"]
        dy2 = dy.reshape(-1, dy.shape[-1])
        return {"W": g.reshape(-1, g.shape[-1]).T @ dy2, "b": dy2.sum(axis=0)}

    def input_grad(self, dy, cache):
        dg = dy @ self.params["W"].T
        if self.offsets != [0]:
            t = dy.shape[1]
            left = max(0, -self.offsets[0])
            right = max(0, self.offsets[-1])
            ext = np.zeros((dy.shape[0], t + left + right, self.d_in), dtype=dy.dtype)
            for k, o in enumerate(self.offsets):
                ext[:, o + left : o + left + t] += dg[:, :, k * self.d_in : (k + 1) * self.d_in]
            dg = _fold_time_padding(ext, left, right)
        return dg.reshape(cache["in_shape"])


class Conv2D(Dense):
    """2-D convolution along (time, freq): time is replicate-padded to keep T.

    ``t_lo`` gives the first time-tap offset, so output frame t reads input
    frames t+t_lo .. t+t_lo+kt-1. The frequency axis is valid (no padding)
    with an optional stride. G holds each output cell's (kt, kf, c_in)
    patch; the input gradient scatters the patch gradients back (col2im).
    """

    def build(self, in_shape, rng, dtype):
        if in_shape[0] != "map":
            raise self._bad("conv2d needs a (freq, chan) map input")
        kt, kf = self.hyper["kernel_t"], self.hyper["kernel_f"]
        c_out = self.hyper["channels"]
        t_lo = self.hyper.get("t_lo", -((kt - 1) // 2))
        sf = self.hyper.get("stride_f", 1)
        if kt < 1 or kf < 1 or c_out < 1 or sf < 1:
            raise self._bad("kernel sizes, channels, and stride must be >= 1")
        if not -(kt - 1) <= t_lo <= 0:
            raise self._bad(f"time taps {t_lo}..{t_lo + kt - 1} must cover offset 0")
        f_in, c_in = in_shape[1], in_shape[2]
        if kf > f_in:
            raise self._bad(f"freq kernel {kf} exceeds input freq {f_in}")
        self.kt, self.kf, self.c_in, self.c_out, self.t_lo = kt, kf, c_in, c_out, t_lo
        self.sf = sf
        self.f_in = f_in
        self.f_out = (f_in - kf) // sf + 1
        self.pad = (-t_lo, kt - 1 + t_lo)
        self.params = _dense_params(rng, kt * kf * c_in, c_out, kt * kf * c_out, dtype)
        return ("map", self.f_out, c_out)

    def gather(self, x):
        if x.ndim != 4 or x.shape[2] != self.f_in or x.shape[3] != self.c_in:
            raise self._bad(f"expected (B,T,{self.f_in},{self.c_in}), got {x.shape}")
        b, t = x.shape[:2]
        xp = x.take(edge_index(t, self.t_lo, np.arange(t + self.kt - 1)), axis=1)
        sb, st, sf, sc = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp,
            shape=(b, t, self.f_out, self.kt, self.kf, self.c_in),
            strides=(sb, st, self.sf * sf, st, sf, sc),
            writeable=False,
        )
        return np.ascontiguousarray(view).reshape(b, t, self.f_out, -1)

    def input_grad(self, dy, cache):
        b, t = cache["in_shape"][:2]
        dpatch = (dy.reshape(-1, self.c_out) @ self.params["W"].T).reshape(
            b, t, self.f_out, self.kt, self.kf, self.c_in
        )
        dxp = np.zeros((b, t + self.kt - 1, self.f_in, self.c_in), dtype=dy.dtype)
        span = self.sf * self.f_out
        for i in range(self.kt):
            for j in range(self.kf):
                dxp[:, i : i + t, j : j + span : self.sf] += dpatch[:, :, :, i, j]
        return _fold_time_padding(dxp, *self.pad)


def _bits(a):
    """View a float array as signed integers of the same width."""
    return a.view(np.dtype(f"i{a.itemsize}"))


def _lanes(mask, bits):
    """All-ones integer lanes where ``mask`` holds, zero lanes elsewhere."""
    return mask * bits.dtype.type(-1)


class MaxPool(Layer):
    """Max pooling over non-overlapping frequency windows; T is kept.

    The trailing frequency remainder is dropped (it gets zero gradient). The
    first maximum of a window wins, as with ``argmax``, and a NaN anywhere in
    a window reaches the output. Selection and gradient routing copy bit
    patterns through integer masks, so both are exact (signed zeros
    included) without a per-element branch.
    """

    def build(self, in_shape, rng, dtype):
        if in_shape[0] != "map":
            raise self._bad("maxpool needs a (freq, chan) map input")
        self.wf = self.hyper.get("window_f", 2)
        if not 1 <= self.wf <= 127:  # slot indices are int8
            raise self._bad("window must be between 1 and 127")
        if (self.hyper.get("window_t", 1), self.hyper.get("stride_t", 1)) != (1, 1):
            raise self._bad("pooling over time is not supported")
        if self.hyper.get("stride_f", self.wf) != self.wf:
            raise self._bad("frequency stride must equal the window")
        f_in = in_shape[1]
        if self.wf > f_in:
            raise self._bad(f"freq window {self.wf} exceeds input freq {f_in}")
        self.f_out = f_in // self.wf
        return ("map", self.f_out, in_shape[2])

    def windows(self, x):
        """(B, T, f_out, wf, C) view of the pooled part of a (B, T, F, C) map."""
        b, t, _, c = x.shape
        return x[:, :, : self.f_out * self.wf].reshape(b, t, self.f_out, self.wf, c)

    def forward(self, x, cache):
        xw = self.windows(x)
        y = np.ascontiguousarray(xw[:, :, :, 0])
        arg = np.zeros(y.shape, dtype=np.int8)
        for j in range(1, self.wf):
            cand = np.ascontiguousarray(xw[:, :, :, j])
            # strict '>' for numbers; a NaN candidate is taken, a NaN best kept
            take = ~(cand <= y)
            take &= y == y
            yb = _bits(y)
            sel = np.bitwise_xor(yb, _bits(cand))
            sel &= _lanes(take, sel)
            sel ^= yb
            y = sel.view(y.dtype)
            np.maximum(arg, take * np.int8(j), out=arg)  # arg < j, so: arg = j where taken
        cache["arg"] = arg
        cache["in_shape"] = x.shape
        return y

    def input_grad(self, dy, cache):
        arg = cache["arg"]
        dx = np.zeros(cache["in_shape"], dtype=dy.dtype)
        dxw = _bits(self.windows(dx))
        dyb = _bits(dy)
        for j in range(self.wf):
            np.bitwise_and(dyb, _lanes(arg == j, dyb), out=dxw[:, :, :, j])
        return dx


class PNorm(Layer):
    """y_j = sqrt(sum of x_i^2 over group j); dim must divide by the group size.

    The squares are summed left to right over the group's slot views. For
    groups smaller than 8 this gives the same bits as numpy's
    ``(xg * xg).sum(axis=-1)``; from 8 on, numpy's pairwise summation adds
    in another order and so rounds differently.
    """

    def build(self, in_shape, rng, dtype):
        if in_shape[0] != "vec":
            raise self._bad("pnorm needs a vector input")
        self.group = self.hyper.get("group", 2)
        if float(self.hyper.get("p", 2.0)) != 2.0:
            raise self._bad("only p = 2 is supported")
        d_in = in_shape[1]
        if d_in % self.group != 0:
            raise self._bad(f"input dim {d_in} not divisible by group size {self.group}")
        self.d_in = d_in
        self.d_out = d_in // self.group
        return ("vec", self.d_out)

    def forward(self, x, cache):
        if x.shape[-1] != self.d_in:
            raise self._bad(f"expected input dim {self.d_in}, got {x.shape[-1]}")
        xg = x.reshape(*x.shape[:-1], self.d_out, self.group)
        y = xg[..., 0] * xg[..., 0]
        for k in range(1, self.group):
            y += xg[..., k] * xg[..., k]
        np.sqrt(y, out=y)
        cache["xg"] = xg
        cache["y"] = y
        return y

    def input_grad(self, dy, cache):
        xg, y = cache["xg"], cache["y"]
        live = y > 0
        dxg = (dy / np.where(live, y, 1.0))[..., None] * xg
        dxg[~live] = 0.0  # dead groups (y = 0 or NaN) pass no gradient
        return dxg.reshape(*dy.shape[:-1], self.d_in)


class LengthNorm(Layer):
    """Scale each frame vector to unit L2 norm; exact Jacobian backward."""

    def build(self, in_shape, rng, dtype):
        if in_shape[0] != "vec":
            raise self._bad("lengthnorm needs a vector input")
        self.d = in_shape[1]
        return in_shape

    def forward(self, x, cache):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        if np.any(norms <= LENGTHNORM_EPS):
            raise DegenerateInputError(
                f"layer {self.name}: input vector norm below {LENGTHNORM_EPS}"
            )
        y = x / norms
        cache["y"] = y
        cache["norms"] = norms
        return y

    def input_grad(self, dy, cache):
        y, norms = cache["y"], cache["norms"]
        return (dy - y * (y * dy).sum(axis=-1, keepdims=True)) / norms


class SoftmaxXent(Layer):
    """Marker head layer: forward is identity on logits, loss applied outside."""

    def build(self, in_shape, rng, dtype):
        if in_shape[0] != "vec":
            raise self._bad("softmax head needs a vector input")
        return in_shape

    def forward(self, x, cache):
        return x

    def input_grad(self, dy, cache):
        return dy


LAYER_CLASSES = {
    "affine": Dense,
    "timedelay": Dense,
    "conv2d": Conv2D,
    "maxpool": MaxPool,
    "pnorm": PNorm,
    "lengthnorm": LengthNorm,
    "softmax-xent": SoftmaxXent,
}
