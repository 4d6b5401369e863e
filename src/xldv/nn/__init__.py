from .graph import LayerSpec, NetworkGraph, softmax_xent
from .training import TrainState, sgd_step, train

__all__ = [
    "LayerSpec",
    "NetworkGraph",
    "softmax_xent",
    "TrainState",
    "sgd_step",
    "train",
]
