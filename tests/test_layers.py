"""Layer-level forward semantics and backward checks against oracles."""

import numpy as np
import pytest

from xldv.errors import DegenerateInputError, InvalidArgumentError
from xldv.nn import LayerSpec, NetworkGraph, softmax_xent


def build(specs, input_shape, **kw):
    return NetworkGraph(specs, input_shape, dtype=np.float64, **kw)


def fd_input_grad(graph, x, dout, eps=1e-6):
    """Finite-difference gradient of sum(out * dout) w.r.t. the input."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float((graph.forward(x) * dout).sum())
        flat[i] = orig - eps
        down = float((graph.forward(x) * dout).sum())
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


class TestAffine:
    def test_identity(self):
        g = build([LayerSpec("affine", dim=3)], ("vec", 3))
        g.layers[0].params["W"] = np.eye(3)
        g.layers[0].params["b"] = np.zeros(3)
        x = np.arange(6.0).reshape(1, 2, 3)
        np.testing.assert_array_equal(g.forward(x), x)

    def test_closed_form_gradients(self):
        rng = np.random.default_rng(0)
        g = build([LayerSpec("affine", dim=4)], ("vec", 3))
        x = rng.normal(size=(2, 5, 3))
        dout = rng.normal(size=(2, 5, 4))
        g.forward(x, want_cache=True)
        grads, dx = g.backward(dout)
        x2 = x.reshape(-1, 3)
        d2 = dout.reshape(-1, 4)
        np.testing.assert_allclose(grads[0]["W"], x2.T @ d2, atol=1e-12)
        np.testing.assert_allclose(grads[0]["b"], d2.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(dx, dout @ g.layers[0].params["W"].T, atol=1e-12)

    def test_shape_mismatch_names_layer(self):
        g = build([LayerSpec("affine", dim=4)], ("vec", 3))
        with pytest.raises(InvalidArgumentError, match="affine"):
            g.forward(np.zeros((1, 2, 7)))

    @pytest.mark.parametrize("in_shape", [("map", 3, 64), ("vec", 128)])
    @pytest.mark.parametrize("b, t", [(16, 24), (1, 257)])
    def test_same_bits_as_zero_offset_timedelay_and_the_plain_product(self, in_shape, b, t):
        affine, timedelay = (
            NetworkGraph([LayerSpec(kind, dim=40, **hyper)], in_shape, seed=3).layers[0]
            for kind, hyper in (("affine", {}), ("timedelay", {"offsets": [0]}))
        )
        timedelay.params = {k: v.copy() for k, v in affine.params.items()}
        w, bias = affine.params["W"], affine.params["b"]
        rng = np.random.default_rng(t)
        x = rng.standard_normal((b, t, *in_shape[1:])).astype(np.float32)
        dy = rng.standard_normal((b, t, 40)).astype(np.float32)
        x3 = x.reshape(b, t, -1)
        dy2 = dy.reshape(-1, 40)
        ref = (
            x3 @ w + bias,
            x3.reshape(-1, x3.shape[-1]).T @ dy2,
            dy2.sum(axis=0),
            (dy @ w.T).reshape(x.shape),
        )
        for layer in (affine, timedelay):
            cache = {}
            y = layer.forward(x, cache)
            dx, grads = layer.backward(dy, cache)
            got = (y, grads["W"], grads["b"], dx)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
            assert dx.shape == x.shape


class TestConv2D:
    def test_identity_kernel(self):
        g = build(
            [LayerSpec("conv2d", kernel_t=1, kernel_f=1, channels=1, t_lo=0)],
            ("map", 4, 1),
        )
        g.layers[0].params["W"] = np.ones((1, 1))
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 1))
        np.testing.assert_allclose(g.forward(x), x, atol=1e-12)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        g = build(
            [LayerSpec("conv2d", kernel_t=3, kernel_f=2, channels=2, t_lo=-1)],
            ("map", 6, 3),
        )
        x = rng.normal(size=(1, 6, 6, 3))
        y = g.forward(x)
        w = g.layers[0].params["W"].reshape(3, 2, 3, 2)
        b = g.layers[0].params["b"]
        t_n = 6
        expected = np.zeros((1, 6, 5, 2))
        for t in range(6):
            for f in range(5):
                for co in range(2):
                    acc = b[co]
                    for i in range(3):
                        ti = min(max(t + i - 1, 0), t_n - 1)  # taps -1..1, replicate
                        for j in range(2):
                            for ci in range(3):
                                acc += x[0, ti, f + j, ci] * w[i, j, ci, co]
                    expected[0, t, f, co] = acc
        np.testing.assert_allclose(y, expected, atol=1e-6)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        g = build(
            [LayerSpec("conv2d", kernel_t=2, kernel_f=2, channels=2, t_lo=-1)],
            ("map", 4, 2),
        )
        x = rng.normal(size=(1, 5, 4, 2))
        dout = rng.normal(size=(1, 5, 3, 2))
        g.forward(x, want_cache=True)
        _, dx = g.backward(dout)
        np.testing.assert_allclose(dx, fd_input_grad(g, x, dout), atol=1e-7)


def ref_maxpool(x, wf):
    """Max-pool by argmax + take_along_axis; returns (y, argmax index)."""
    b, t, f, c = x.shape
    f_out = f // wf
    xr = x[:, :, : f_out * wf].reshape(b, t, f_out, wf, c)
    arg = xr.argmax(axis=3)
    return np.take_along_axis(xr, arg[:, :, :, None], axis=3)[:, :, :, 0], arg


def ref_maxpool_backward(dy, arg, in_shape, wf):
    """Route dy to the argmax slot with put_along_axis."""
    b, t, f, c = in_shape
    f_out = f // wf
    dxr = np.zeros((b, t, f_out, wf, c), dtype=dy.dtype)
    np.put_along_axis(dxr, arg[:, :, :, None], dy[:, :, :, None], axis=3)
    dx = np.zeros(in_shape, dtype=dy.dtype)
    dx[:, :, : f_out * wf] = dxr.reshape(b, t, f_out * wf, c)
    return dx


class TestMaxPool:
    def test_frequency_pairs(self):
        g = build([LayerSpec("maxpool", window_f=2)], ("map", 4, 1))
        x = np.array([[1.0, 2.0, 4.0, 3.0], [-1.0, -2.0, 0.0, 0.0]]).reshape(1, 2, 4, 1)
        np.testing.assert_array_equal(g.forward(x).ravel(), [2.0, 4.0, -1.0, 0.0])

    def test_freq_only_pooling_keeps_time(self):
        g = build([LayerSpec("maxpool", window_f=2)], ("map", 6, 3))
        x = np.random.default_rng(0).normal(size=(2, 7, 6, 3))
        assert g.forward(x).shape == (2, 7, 3, 3)

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(3)
        g = build([LayerSpec("maxpool", window_f=2)], ("map", 4, 1))
        x = rng.normal(size=(1, 3, 4, 1))
        dout = rng.normal(size=(1, 3, 2, 1))
        g.forward(x, want_cache=True)
        _, dx = g.backward(dout)
        np.testing.assert_allclose(dx, fd_input_grad(g, x, dout), atol=1e-7)

    @pytest.mark.parametrize("wf, f_in", [(2, 6), (2, 7), (3, 7)])
    def test_bitwise_equal_to_argmax_reference(self, wf, f_in):
        # integer values (and both zeros) make ties the common case
        rng = np.random.default_rng(wf * 10 + f_in)
        values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], dtype=np.float32)
        x = rng.choice(values, size=(3, 5, f_in, 4))
        layer = build([LayerSpec("maxpool", window_f=wf)], ("map", f_in, 4)).layers[0]
        cache = {}
        y = layer.forward(x, cache)
        y_ref, arg_ref = ref_maxpool(x, wf)
        assert y.dtype == np.float32
        assert y.tobytes() == y_ref.tobytes()
        dy = rng.normal(size=y.shape).astype(np.float32)
        dx, _ = layer.backward(dy, cache)
        assert dx.tobytes() == ref_maxpool_backward(dy, arg_ref, x.shape, wf).tobytes()
        if f_in % wf:
            assert not np.any(dx[:, :, f_in - f_in % wf :])

    @pytest.mark.parametrize("slot", [0, 1])
    def test_nan_in_either_slot_reaches_output(self, slot):
        g = NetworkGraph([LayerSpec("maxpool", window_f=2)], ("map", 4, 1))
        x = np.array([[1.0, 2.0, 4.0, 3.0]], dtype=np.float32).reshape(1, 1, 4, 1)
        x[0, 0, slot, 0] = np.nan
        y = g.forward(x).ravel()
        assert np.isnan(y[0])
        assert y[1] == 4.0

    @pytest.mark.parametrize("hyper", [
        dict(window_t=2, window_f=2), dict(window_f=2, stride_t=2),
        dict(window_f=2, stride_f=1),
    ])
    def test_removed_settings_rejected(self, hyper):
        with pytest.raises(InvalidArgumentError, match="maxpool"):
            build([LayerSpec("maxpool", **hyper)], ("map", 4, 1))


class TestTimeDelay:
    def test_zero_offset_identity(self):
        g = build([LayerSpec("timedelay", offsets=[0], dim=3)], ("vec", 3))
        g.layers[0].params["W"] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(1, 4, 3))
        np.testing.assert_allclose(g.forward(x), x, atol=1e-12)

    def test_dependency_structure(self):
        rng = np.random.default_rng(4)
        g = build([LayerSpec("timedelay", offsets=[-1, 2], dim=4)], ("vec", 3))
        x = rng.normal(size=(1, 12, 3))
        base = g.forward(x)
        bumped = x.copy()
        bumped[0, 7] += 1.0  # = t+2 for t=5
        moved = g.forward(bumped)
        assert not np.allclose(moved[0, 5], base[0, 5])
        assert np.allclose(moved[0, 4], base[0, 4])  # t=4 sees {3, 6}, not 7

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(5)
        g = build([LayerSpec("timedelay", offsets=[-1, 2], dim=4)], ("vec", 3))
        x = rng.normal(size=(1, 6, 3))
        y = g.forward(x)
        w, b = g.layers[0].params["W"], g.layers[0].params["b"]
        for t in range(6):
            gathered = np.concatenate([x[0, max(t - 1, 0)], x[0, min(t + 2, 5)]])
            np.testing.assert_allclose(y[0, t], gathered @ w + b, atol=1e-12)

    @pytest.mark.parametrize("offsets", [[-1, 2], [-2, 1], [0], [-9, 0, 8]])
    def test_bitwise_equal_to_concatenate_reference(self, offsets):
        rng = np.random.default_rng(9)
        layer = NetworkGraph([LayerSpec("timedelay", offsets=offsets, dim=5)],
                             ("vec", 6)).layers[0]
        x = rng.normal(size=(3, 7, 6)).astype(np.float32)
        t = np.arange(7)
        ref = np.concatenate([x[:, np.clip(t + o, 0, 6)] for o in offsets], axis=2)
        cache = {}
        y = layer.forward(x, cache)
        assert cache["g"].tobytes() == ref.tobytes()
        assert y.tobytes() == (ref @ layer.params["W"] + layer.params["b"]).tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        g = build([LayerSpec("timedelay", offsets=[-2, 1], dim=2)], ("vec", 2))
        x = rng.normal(size=(1, 5, 2))
        dout = rng.normal(size=(1, 5, 2))
        g.forward(x, want_cache=True)
        _, dx = g.backward(dout)
        np.testing.assert_allclose(dx, fd_input_grad(g, x, dout), atol=1e-7)


class TestPNorm:
    def test_pythagorean(self):
        g = build([LayerSpec("pnorm", group=2)], ("vec", 2))
        np.testing.assert_allclose(g.forward(np.array([[[3.0, 4.0]]])), [[[5.0]]])

    def test_sign_invariance(self):
        g = build([LayerSpec("pnorm", group=2)], ("vec", 2))
        np.testing.assert_allclose(g.forward(np.array([[[-3.0, 4.0]]])), [[[5.0]]])

    def test_group_permutation_invariance_and_nonnegative(self):
        rng = np.random.default_rng(7)
        g = build([LayerSpec("pnorm", group=3)], ("vec", 6))
        x = rng.normal(size=(1, 4, 6))
        y = g.forward(x)
        assert np.all(y >= 0)
        perm = x.reshape(1, 4, 2, 3)[:, :, :, [2, 0, 1]].reshape(1, 4, 6)
        np.testing.assert_allclose(g.forward(perm), y, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        g = build([LayerSpec("pnorm", group=2)], ("vec", 6))
        x = rng.normal(size=(1, 3, 6)) + 0.1
        dout = rng.normal(size=(1, 3, 3))
        g.forward(x, want_cache=True)
        _, dx = g.backward(dout)
        fd = fd_input_grad(g, x, dout)
        assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-4

    def test_indivisible_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build([LayerSpec("pnorm", group=4)], ("vec", 6))

    def test_p_other_than_two_rejected(self):
        with pytest.raises(InvalidArgumentError, match="p = 2"):
            build([LayerSpec("pnorm", group=2, p=3.0)], ("vec", 6))

    @pytest.mark.parametrize("group", [2, 3, 4])
    def test_bitwise_equal_to_sum_reference(self, group):
        rng = np.random.default_rng(group)
        scale = 10.0 ** rng.uniform(-3, 3, size=(4, 6, 5 * group))
        x = (rng.normal(size=scale.shape) * scale).astype(np.float32)
        layer = build([LayerSpec("pnorm", group=group)], ("vec", 5 * group)).layers[0]
        xg = x.reshape(4, 6, 5, group)
        y_ref = np.sqrt((xg * xg).sum(axis=-1))
        y = layer.forward(x, {})
        assert y.dtype == np.float32
        assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("group", [2, 3])
    def test_backward_bits_equal_the_two_where_expression(self, group):
        rng = np.random.default_rng(20 + group)
        x = rng.normal(size=(4, 6, 5 * group)).astype(np.float32)
        xg = x.reshape(4, 6, 5, group)
        xg[0, :, 1] = 0.0  # dead groups of +0.0, of -0.0 and of both
        xg[1, :, 2] = -0.0
        xg[2, :, 3, 0] = -0.0
        xg[2, :, 3, 1:] = 0.0
        xg[3, :, 4, 0] = -0.0  # a live group holding a -0.0
        layer = build([LayerSpec("pnorm", group=group)], ("vec", 5 * group)).layers[0]
        cache = {}
        y = layer.forward(x, cache)
        dy = rng.normal(size=y.shape).astype(np.float32)
        safe = np.where(y > 0, y, 1.0)
        ref = np.where(y[..., None] > 0, (dy / safe)[..., None] * xg, 0.0)
        dx = layer.input_grad(dy, cache)
        assert dx.dtype == np.float32
        assert dx.tobytes() == ref.reshape(x.shape).tobytes()
        dead = dx.reshape(xg.shape)[[0, 1, 2], :, [1, 2, 3]]
        assert not np.any(dead) and not np.any(np.signbit(dead))


class TestLengthNorm:
    def test_three_four_five(self):
        g = build([LayerSpec("lengthnorm")], ("vec", 2))
        np.testing.assert_allclose(
            g.forward(np.array([[[3.0, 4.0]]])), [[[0.6, 0.8]]], atol=1e-12
        )

    def test_idempotent_on_unit_vectors(self):
        rng = np.random.default_rng(9)
        g = build([LayerSpec("lengthnorm")], ("vec", 5))
        x = rng.normal(size=(2, 3, 5))
        once = g.forward(x)
        np.testing.assert_allclose(g.forward(once), once, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(once, axis=-1), 1.0, atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        g = build([LayerSpec("lengthnorm")], ("vec", 4))
        x = rng.normal(size=(1, 2, 4))
        dout = rng.normal(size=(1, 2, 4))
        g.forward(x, want_cache=True)
        _, dx = g.backward(dout)
        fd = fd_input_grad(g, x, dout)
        assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-4

    def test_zero_vector_degenerate(self):
        g = build([LayerSpec("lengthnorm")], ("vec", 3))
        with pytest.raises(DegenerateInputError):
            g.forward(np.zeros((1, 1, 3)))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros((1, 7)), np.array([3]))
        np.testing.assert_allclose(loss, np.log(7), atol=1e-12)

    def test_saturated_logits(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        loss, _ = softmax_xent(logits, np.array([2]))
        assert loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 4, 2])
        _, grad = softmax_xent(logits, labels)
        eps = 1e-6
        for i in range(3):
            for k in range(5):
                up = logits.copy()
                up[i, k] += eps
                down = logits.copy()
                down[i, k] -= eps
                fd = (softmax_xent(up, labels)[0] - softmax_xent(down, labels)[0]) / (2 * eps)
                assert abs(fd - grad[i, k]) / max(abs(fd), abs(grad[i, k]), 1e-10) < 1e-4

    def test_invalid_label(self):
        with pytest.raises(InvalidArgumentError):
            softmax_xent(np.zeros((1, 3)), np.array([3]))
