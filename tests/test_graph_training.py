"""Graph assembly, shape algebra, SGD semantics, and trainer behavior."""

import re
import tracemalloc

import numpy as np
import pytest

from xldv import archive
from xldv.nn import graph as graph_module
from xldv.nn import training as training_module
from xldv.ctdnn import CTDNNConfig, build_phone_blind
from xldv.errors import DataError, InvalidArgumentError, NumericError, StateError
from xldv.nn import LayerSpec, NetworkGraph, TrainState, sgd_step, softmax_xent, train

SMALL = CTDNNConfig(
    n_speakers=4, conv1_channels=4, conv2_channels=6, bottleneck_dim=16,
    td_hidden=8, feature_dim=10,
)


class TestGraphBuild:
    def test_shape_record_consistent(self):
        g = build_phone_blind(SMALL, seed=1)
        for (prev, nxt), layer in zip(g.shape_record, g.layers):
            assert prev is not None and nxt is not None
        assert g.output_shape == ("vec", 4)

    def test_inconsistent_shapes_fail_at_build(self):
        with pytest.raises(InvalidArgumentError, match="pnorm"):
            NetworkGraph(
                [LayerSpec("affine", dim=5), LayerSpec("pnorm", group=2)], ("vec", 3)
            )

    def test_parameter_count_reproducible_from_specs(self):
        g1 = build_phone_blind(SMALL, seed=1)
        g2 = build_phone_blind(SMALL, seed=99)
        def shapes(g):
            return [(i, name, p.shape) for i, name, p in g.parameters()]

        assert shapes(g1) == shapes(g2)

    def test_deterministic_init(self):
        g1 = build_phone_blind(SMALL, seed=7)
        g2 = build_phone_blind(SMALL, seed=7)
        for (_, _, a), (_, _, b) in zip(g1.parameters(), g2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_backward_before_forward_is_state_error(self):
        g = build_phone_blind(SMALL, seed=1)
        with pytest.raises(StateError):
            g.backward(np.zeros((1, 3, 4)))

    def test_checkpoint_round_trip(self, tmp_path):
        g = build_phone_blind(SMALL, seed=3, dtype=np.float64)
        path = tmp_path / "g.nnck"
        g.save(path, extra_header={"kind": "ctdnn", "variant": "phone-blind"})
        g2, header = NetworkGraph.from_checkpoint(path, {"kind": "ctdnn",
                                                          "variant": "phone-blind"})
        assert header["variant"] == "phone-blind"
        x = np.random.default_rng(0).normal(size=(1, 6, 40, 9))
        np.testing.assert_array_equal(g.forward(x), g2.forward(x))

    def test_checkpoint_load_holds_the_stored_parameters_and_draws_no_init(
            self, tmp_path, monkeypatch):
        g = NetworkGraph([LayerSpec("affine", dim=1024), LayerSpec("affine", dim=8)],
                         ("vec", 1024), seed=3)
        path = tmp_path / "g.nnck"
        g.save(path, extra_header={"kind": "ctdnn", "variant": "phone-blind"})
        stored = sum(arr.nbytes for _, _, arr in g.parameters())

        def no_init(*args):
            raise AssertionError("from_checkpoint drew a seeded init")

        monkeypatch.setattr(graph_module, "derive_rng", no_init)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g2, _ = NetworkGraph.from_checkpoint(path, {"kind": "ctdnn",
                                                        "variant": "phone-blind"})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        for (_, _, a), (_, _, b) in zip(g.parameters(), g2.parameters()):
            assert b.dtype == np.float32 and b.tobytes() == a.tobytes()
        # a float64 init drawn and thrown away, and an astype copy, held 3x more
        assert peak <= stored + 64 * 1024

    @pytest.mark.parametrize("kind, drop, error", [
        ("phone-classifier", None, "checkpoint kind is 'phone-classifier', not 'ctdnn'"),
        ("ctdnn", "variant", "checkpoint variant is None, not 'phone-blind'"),
        ("ctdnn", "layer_specs", "network checkpoint lacks 'layer_specs'"),
        ("ctdnn", "layer00.W", "network checkpoint lacks 'layer00.W'"),
    ], ids=["wrong-kind", "no-variant", "no-layer-specs", "no-tensor"])
    def test_bad_checkpoint_is_a_data_error(self, tmp_path, kind, drop, error):
        path = tmp_path / "g.nnck"
        build_phone_blind(SMALL, seed=3).save(
            path, extra_header={"kind": kind, "variant": "phone-blind"})
        header, tensors = archive.load_checkpoint(path)
        header.pop(drop, None)
        tensors.pop(drop, None)
        archive.save_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(error)}$"):
            NetworkGraph.from_checkpoint(path, {"kind": "ctdnn", "variant": "phone-blind"})


class TestBackwardProperties:
    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        g = build_phone_blind(SMALL, seed=2, dtype=np.float64)
        x = np.random.default_rng(1).normal(size=(1, 5, 40, 9))
        g.forward(x, want_cache=True)
        grads, _ = g.backward(np.zeros((1, 5, 4)))
        for gd in grads:
            for arr in gd.values():
                assert np.all(arr == 0.0)

    def test_without_dinput_the_first_layer_input_gradient_is_skipped(self, monkeypatch):
        g = build_phone_blind(SMALL, seed=2)  # float32, as training runs it
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 40, 9))
        dout = rng.normal(size=(2, 5, 4))
        g.forward(x, want_cache=True)
        grads, dx = g.backward(dout)
        assert dx.shape == x.shape
        first = g.layers[0]

        def refuse(dy, cache):
            raise AssertionError("input gradient of layer 0 computed")

        monkeypatch.setattr(first, "input_grad", refuse)
        g.forward(x, want_cache=True)
        skipped, none = g.backward(dout, want_dinput=False)
        assert none is None
        for full, part in zip(grads, skipped):
            assert full.keys() == part.keys()
            assert all(full[name].tobytes() == part[name].tobytes() for name in full)
        # a layer's own backward still returns both gradients
        monkeypatch.undo()
        cache = {}
        first.forward(x.astype(np.float32), cache)
        dx0, g0 = first.backward(np.ones((2, 5, first.f_out, first.c_out), np.float32), cache)
        assert dx0.shape == x.shape and g0.keys() == {"W", "b"}

    def test_single_affine_closed_form(self):
        g = NetworkGraph([LayerSpec("affine", dim=3)], ("vec", 2), dtype=np.float64)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 2))
        delta = rng.normal(size=(2, 4, 3))
        g.forward(x, want_cache=True)
        grads, _ = g.backward(delta)
        np.testing.assert_allclose(
            grads[0]["W"], x.reshape(-1, 2).T @ delta.reshape(-1, 3), atol=1e-12
        )
        np.testing.assert_allclose(grads[0]["b"], delta.reshape(-1, 3).sum(0), atol=1e-12)


class TestSgdStep:
    def _graph(self):
        g = NetworkGraph([LayerSpec("affine", dim=2)], ("vec", 1), dtype=np.float64)
        g.layers[0].params["W"] = np.zeros((1, 2))
        g.layers[0].params["b"] = np.zeros(2)
        return g

    def test_plain_step(self):
        g = self._graph()
        velocity = [dict()]
        sgd_step(g, [{"W": np.array([[1.0, 2.0]]), "b": np.zeros(2)}], velocity, 1.0, 0.0)
        np.testing.assert_array_equal(g.layers[0].params["W"], [[-1.0, -2.0]])

    def test_zero_gradient_no_change(self):
        g = self._graph()
        velocity = [dict()]
        sgd_step(g, [{"W": np.zeros((1, 2)), "b": np.zeros(2)}], velocity, 1.0, 0.0)
        np.testing.assert_array_equal(g.layers[0].params["W"], np.zeros((1, 2)))

    def test_momentum_accumulates(self):
        g = self._graph()
        velocity = [dict()]
        grad = [{"W": np.ones((1, 2)), "b": np.zeros(2)}]
        sgd_step(g, grad, velocity, 0.1, 0.9)
        sgd_step(g, grad, velocity, 0.1, 0.9)
        # v1 = -0.1; v2 = 0.9*v1 - 0.1 = -0.19; theta = v1+v2 = -0.29
        np.testing.assert_allclose(g.layers[0].params["W"], -0.29 * np.ones((1, 2)))

    def test_bitwise_equal_to_out_of_place_formula(self):
        rng = np.random.default_rng(0)
        g = NetworkGraph([LayerSpec("affine", dim=5)], ("vec", 7))
        params = g.layers[0].params
        objects = {name: arr for name, arr in params.items()}
        ref_params = {name: arr.copy() for name, arr in params.items()}
        ref_velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
        velocity = [dict()]
        for lr, momentum in [(0.1, 0.9), (0.05, 0.9), (0.3, 0.0), (0.025, 0.5)]:
            grads = [{name: rng.normal(size=arr.shape).astype(np.float32)
                      for name, arr in params.items()}]
            sgd_step(g, grads, velocity, lr, momentum)
            for name in ref_params:
                ref_velocity[name] = momentum * ref_velocity[name] - lr * grads[0][name]
                ref_params[name] = ref_params[name] + ref_velocity[name]
                assert params[name] is objects[name]
                assert params[name].dtype == np.float32
                assert params[name].tobytes() == ref_params[name].tobytes()
                assert velocity[0][name].tobytes() == ref_velocity[name].tobytes()


class _ToyData:
    """Linearly separable 2-class problem on 2-d inputs."""

    def __init__(self, seed=0, n=64):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        x = rng.normal(size=(n, 1, 2)) + np.where(labels[:, None, None] > 0, 2.0, -2.0)
        self.x = x.astype(np.float64)
        self.labels = labels
        self.val_batches = [(self.x, None, self.labels)]

    def train_batch(self, rng):
        idx = rng.integers(0, len(self.labels), 16)
        return self.x[idx], None, self.labels[idx]


class TestTrainer:
    def _graph(self):
        return NetworkGraph(
            [LayerSpec("affine", dim=2), LayerSpec("softmax-xent")],
            ("vec", 2),
            seed=5,
            dtype=np.float64,
        )

    def test_toy_problem_beats_chance_bound(self):
        g = self._graph()
        data = _ToyData()
        state = TrainState(learning_rate=0.5, max_epochs=10, batches_per_epoch=20, seed=1)
        result = train(g, data, state)
        assert result.val_loss < np.log(2)
        assert result.val_accuracy > 0.95

    def test_zero_epochs_leaves_parameters_at_init(self):
        g = self._graph()
        before = {k: v.copy() for k, v in g.tensors().items()}
        state = TrainState(learning_rate=0.5, max_epochs=0)
        train(g, _ToyData(), state)
        for k, v in g.tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_identical_seeds_identical_trajectories(self):
        results = []
        for _ in range(2):
            g = self._graph()
            state = TrainState(learning_rate=0.5, max_epochs=3, batches_per_epoch=10, seed=9)
            train(g, _ToyData(), state)
            results.append({k: v.copy() for k, v in g.tensors().items()})
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_nan_loss_aborts_with_layer_diagnostics(self):
        g = self._graph()
        g.layers[0].params["W"][0, 0] = np.nan
        state = TrainState(learning_rate=0.5, max_epochs=1, batches_per_epoch=1)
        with pytest.raises(NumericError, match="0:affine"):
            train(g, _ToyData(), state)

    @pytest.mark.parametrize("max_epochs", [0, 1, 4, 50])
    def test_validation_runs_once_per_epoch_run(self, monkeypatch, max_epochs):
        # each epoch's pass sets the result; only a run of no epoch needs a
        # pass of its own (at 50 the stalled schedule stops after 4 epochs)
        calls = []
        evaluate = training_module._evaluate

        def counted(graph, batches):
            calls.append(graph)
            return evaluate(graph, batches)

        monkeypatch.setattr(training_module, "_evaluate", counted)
        state = TrainState(learning_rate=1e-9, max_epochs=max_epochs, batches_per_epoch=2)
        result = train(self._graph(), _ToyData(), state)
        assert len(calls) == max(result.epochs_run, 1)
        assert np.isfinite(result.val_loss)

    def test_lr_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            TrainState(learning_rate=0.0)

    def test_lr_halves_on_stall_and_stops_after_three(self):
        class FlatData(_ToyData):
            """Validation loss cannot improve: labels are random coin flips."""

            def __init__(self):
                rng = np.random.default_rng(0)
                self.x = rng.normal(size=(32, 1, 2))
                self.labels = rng.integers(0, 2, 32)
                self.val_batches = [(self.x, None, self.labels)]

        g = self._graph()
        state = TrainState(learning_rate=1e-9, max_epochs=50, batches_per_epoch=1, seed=2)
        result = train(g, FlatData(), state)
        assert result.epochs_run <= 5  # 3 consecutive stalls stop training early
        lrs = [h["lr"] for h in state.history]
        assert lrs[-1] <= lrs[0] / 2
