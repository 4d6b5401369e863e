"""Minibatch momentum-SGD trainer with validation-driven LR halving."""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from ..corpus import derive_rng
from ..errors import InvalidArgumentError, NumericError
from .graph import softmax_xent

log = logging.getLogger(__name__)


MIN_REL_IMPROVEMENT = 0.01
PATIENCE = 3
MOMENTUM = 0.9


@dataclass
class TrainState:
    """Trainer hyperparameters and mutable progress counters."""

    learning_rate: float
    max_epochs: int = 10
    batches_per_epoch: int = 100
    seed: int = 0
    epoch: int = 0
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning rate must be > 0")


def sgd_step(graph, grads, velocity, lr, momentum):
    """v <- momentum*v - lr*g; theta <- theta + v, in place on v and theta.

    The in-place updates round exactly as the expressions above do, and each
    parameter stays the same array object.
    """
    for i, layer in enumerate(graph.layers):
        for name, param in layer.params.items():
            v = velocity[i].get(name)
            if v is None:
                v = velocity[i][name] = np.zeros_like(param)
            v *= momentum
            v -= lr * grads[i][name].astype(param.dtype, copy=False)
            param += v


def _evaluate(graph, batches):
    total_loss = 0.0
    total_correct = 0
    total_frames = 0
    for x, aux, labels in batches:
        logits = graph.forward(x, aux=aux)
        flat = logits.reshape(-1, logits.shape[-1])
        loss, _ = softmax_xent(flat, labels)
        total_loss += loss * len(labels)
        total_correct += int((flat.argmax(axis=1) == labels).sum())
        total_frames += len(labels)
    if total_frames == 0:
        return float("nan"), float("nan")
    return total_loss / total_frames, total_correct / total_frames


@dataclass
class TrainResult:
    val_loss: float
    val_accuracy: float
    epochs_run: int
    history: list


def train(graph, data, state: TrainState) -> TrainResult:
    """Train the graph on ``data`` until the schedule stops.

    ``data`` provides ``train_batch(rng) -> (x, aux, labels)`` and a
    ``val_batches`` list in the same layout (labels flattened over
    batch*time). Every step uses momentum ``MOMENTUM``. The learning rate
    halves whenever validation loss fails to improve by at least
    ``MIN_REL_IMPROVEMENT`` relatively; training stops after ``max_epochs``
    or ``PATIENCE`` consecutive non-improvements.
    """
    rng = derive_rng(state.seed, "train")
    velocity = [dict() for _ in graph.layers]
    lr = state.learning_rate
    best_val = float("inf")
    fails = 0
    if state.max_epochs < 1:  # otherwise each epoch's evaluation sets these
        val_loss, val_acc = _evaluate(graph, data.val_batches)
    for epoch in range(state.max_epochs):
        t0 = time.perf_counter()
        train_loss = 0.0
        for _ in range(state.batches_per_epoch):
            x, aux, labels = data.train_batch(rng)
            logits = graph.forward(x, aux=aux, want_cache=True)
            loss, dflat = softmax_xent(logits.reshape(-1, logits.shape[-1]), labels)
            if not np.isfinite(loss):
                where = graph.find_first_nonfinite(x, aux=aux)
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}; "
                    f"first non-finite value at layer {where}"
                )
            grads, _ = graph.backward(dflat.reshape(logits.shape), want_dinput=False)
            sgd_step(graph, grads, velocity, lr, MOMENTUM)
            train_loss += loss
        train_loss /= max(state.batches_per_epoch, 1)
        val_loss, val_acc = _evaluate(graph, data.val_batches)
        improved = val_loss < best_val * (1.0 - MIN_REL_IMPROVEMENT)
        state.history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "val_accuracy": val_acc,
                "seconds": time.perf_counter() - t0,
            }
        )
        log.info(
            "epoch %d: lr=%.4g train_loss=%.4f val_loss=%.4f val_acc=%.3f (%.1fs)",
            epoch, lr, train_loss, val_loss, val_acc,
            state.history[-1]["seconds"],
        )
        state.epoch = epoch + 1
        if improved:
            best_val = val_loss
            fails = 0
        else:
            fails += 1
            lr *= 0.5
            if fails >= PATIENCE:
                log.info("stopping after %d non-improvements", fails)
                break
    return TrainResult(val_loss, val_acc, state.epoch, state.history)
