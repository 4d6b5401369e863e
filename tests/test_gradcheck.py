"""Finite-difference gradient verification across layers and the full network."""

import numpy as np
import pytest

from gradcheck import grad_check
from xldv.ctdnn import CTDNNConfig, build_phone_aware, build_phone_blind
from xldv.errors import InvalidArgumentError
from xldv.nn import LayerSpec, NetworkGraph

SMALL = CTDNNConfig(
    n_speakers=5, conv1_channels=3, conv2_channels=4, bottleneck_dim=12,
    td_hidden=8, feature_dim=6, factor_dim=3,
)


def test_identity_affine_layer_passes():
    g = NetworkGraph(
        [LayerSpec("affine", dim=4), LayerSpec("softmax-xent")],
        ("vec", 4), dtype=np.float64,
    )
    report = grad_check(g, n_probes=30, seed=0)
    assert report.max_rel_err < report.tolerance
    assert report.max_rel_err < 1e-6


def test_each_layer_kind_in_isolation():
    cases = [
        ([LayerSpec("conv2d", kernel_t=3, kernel_f=2, channels=3, t_lo=-1),
          LayerSpec("affine", dim=4), LayerSpec("softmax-xent")], ("map", 5, 2)),
        ([LayerSpec("maxpool", window_f=2), LayerSpec("affine", dim=4),
          LayerSpec("softmax-xent")], ("map", 6, 2)),
        ([LayerSpec("timedelay", offsets=[-1, 2], dim=6), LayerSpec("affine", dim=4),
          LayerSpec("softmax-xent")], ("vec", 5)),
        ([LayerSpec("affine", dim=8), LayerSpec("pnorm", group=2),
          LayerSpec("affine", dim=4), LayerSpec("softmax-xent")], ("vec", 5)),
        ([LayerSpec("affine", dim=6), LayerSpec("lengthnorm"),
          LayerSpec("affine", dim=4), LayerSpec("softmax-xent")], ("vec", 5)),
    ]
    for specs, in_shape in cases:
        g = NetworkGraph(specs, in_shape, dtype=np.float64, seed=3)
        report = grad_check(g, n_probes=40, seed=1)
        assert report.max_rel_err < report.tolerance, (specs[0].kind, report.max_rel_err)


def test_full_phone_blind_graph():
    g = build_phone_blind(SMALL, seed=2, dtype=np.float64)
    report = grad_check(g, n_probes=80, seed=4)
    assert report.max_rel_err < 1e-3
    assert report.max_rel_err < report.tolerance


def test_full_phone_aware_graph():
    g = build_phone_aware(SMALL, seed=2, dtype=np.float64)
    report = grad_check(g, n_probes=80, seed=5)
    assert report.max_rel_err < 1e-3


def test_float32_graph_rejected():
    g = build_phone_blind(SMALL, seed=2, dtype=np.float32)
    with pytest.raises(InvalidArgumentError):
        grad_check(g)
