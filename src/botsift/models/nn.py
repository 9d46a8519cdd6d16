"""Dense feed-forward classifier trained with manual backpropagation.

Architecture: for each hidden width, a block of dense -> batch norm ->
ReLU; then a final dense layer to one logit and a sigmoid. Batch norm
normalizes with per-batch population statistics during training and
with running statistics at prediction time. Optimization is mini-batch
SGD with classical momentum on a binary cross-entropy loss computed
from logits. It fits and scores standardized rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import ModelArtifact, jsonable, sigmoid, softplus


@dataclass
class NnParams:
    hidden: Sequence[int] = (256, 128)
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 32
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    seed: int = 42

    def __post_init__(self):
        if isinstance(self.hidden, int):  # one hidden layer
            self.hidden = (self.hidden,)
        self.hidden = tuple(int(h) for h in self.hidden)
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must lie in [0, 1]")
        if not self.bn_eps > 0:
            raise ValueError("bn_eps must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def parameter_counts(n_features: int, hidden: Sequence[int]):
    """(trainable, non_trainable) parameter totals for the architecture."""
    trainable = 0
    non_trainable = 0
    fan_in = n_features
    for width in hidden:
        trainable += fan_in * width + width      # dense W, b
        trainable += 2 * width                   # gamma, beta
        non_trainable += 2 * width               # running mean, var
        fan_in = width
    trainable += fan_in + 1                      # output dense
    return trainable, non_trainable


def init_network(n_features: int, hidden: Sequence[int],
                 seed: int) -> dict:
    """He-initialized blocks; the output layer starts at zero so the
    initial score is 0.5 everywhere."""
    rng = np.random.default_rng(seed)
    blocks = []
    fan_in = n_features
    for width in hidden:
        blocks.append({
            "W": rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, width)),
            "b": np.zeros(width),
            "gamma": np.ones(width),
            "beta": np.zeros(width),
        })
        fan_in = width
    return {
        "blocks": blocks,
        "out_W": np.zeros((fan_in, 1)),
        "out_b": np.zeros(1),
        "running_mean": [np.zeros(w) for w in hidden],
        "running_var": [np.ones(w) for w in hidden],
    }


def forward_logits(net: dict, X: np.ndarray, eps: float,
                   training: bool):
    """Logits plus the per-layer tensors backprop needs. In training
    mode batch statistics are used and returned; in eval mode the
    stored running statistics are used."""
    caches = []
    batch_stats = []
    h = X
    for li, block in enumerate(net["blocks"]):
        z = h @ block["W"] + block["b"]
        if training:
            mu = z.mean(axis=0)
            var = z.var(axis=0)  # population variance
            batch_stats.append((mu, var))
        else:
            mu = net["running_mean"][li]
            var = net["running_var"][li]
        inv_std = 1.0 / np.sqrt(var + eps)
        z_hat = (z - mu) * inv_std
        bn = block["gamma"] * z_hat + block["beta"]
        a = np.maximum(bn, 0.0)
        caches.append({"h_in": h, "z": z, "mu": mu, "inv_std": inv_std,
                       "z_hat": z_hat, "bn": bn})
        h = a
    logits = (h @ net["out_W"] + net["out_b"]).ravel()
    return logits, caches, batch_stats


def bce_from_logits(logits: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(softplus(logits) - y * logits))


def forward_backward(net: dict, X: np.ndarray, y: np.ndarray,
                     eps: float):
    """Training-mode loss, gradients for every trainable array, and the
    batch statistics to fold into the running averages."""
    logits, caches, batch_stats = forward_logits(net, X, eps, True)
    loss = bce_from_logits(logits, y)
    m = X.shape[0]

    dlogits = (sigmoid(logits) - y) / m
    h_last = np.maximum(caches[-1]["bn"], 0.0) if caches else X
    grads = {
        "out_W": h_last.T @ dlogits[:, None],
        "out_b": np.array([dlogits.sum()]),
        "blocks": [None] * len(net["blocks"]),
    }

    dh = dlogits[:, None] @ net["out_W"].T
    for li in range(len(net["blocks"]) - 1, -1, -1):
        block = net["blocks"][li]
        cache = caches[li]
        dbn = dh * (cache["bn"] > 0)

        dgamma = (dbn * cache["z_hat"]).sum(axis=0)
        dbeta = dbn.sum(axis=0)

        # batch-norm backward through batch mean and variance
        dz_hat = dbn * block["gamma"]
        z_centered = cache["z"] - cache["mu"]
        inv_std = cache["inv_std"]
        dvar = np.sum(dz_hat * z_centered, axis=0) * (-0.5) * inv_std ** 3
        dmu = (np.sum(dz_hat, axis=0) * (-inv_std)
               + dvar * np.mean(-2.0 * z_centered, axis=0))
        dz = (dz_hat * inv_std + dvar * 2.0 * z_centered / m + dmu / m)

        grads["blocks"][li] = {
            "W": cache["h_in"].T @ dz,
            "b": dz.sum(axis=0),
            "gamma": dgamma,
            "beta": dbeta,
        }
        dh = dz @ block["W"].T

    return loss, grads, batch_stats


def _sgd_step(net: dict, grads: dict, velocity: dict, lr: float,
              momentum: float):
    for li, block in enumerate(net["blocks"]):
        for key in ("W", "b", "gamma", "beta"):
            v = velocity["blocks"][li][key]
            v *= momentum
            v -= lr * grads["blocks"][li][key]
            block[key] += v
    for key in ("out_W", "out_b"):
        v = velocity[key]
        v *= momentum
        v -= lr * grads[key]
        net[key] += v


def fit(X: np.ndarray, labels: np.ndarray, hp: NnParams):
    y = labels.astype(float)
    n = X.shape[0]

    net = init_network(X.shape[1], hp.hidden, hp.seed)
    velocity = {
        "blocks": [{k: np.zeros_like(b[k])
                    for k in ("W", "b", "gamma", "beta")}
                   for b in net["blocks"]],
        "out_W": np.zeros_like(net["out_W"]),
        "out_b": np.zeros_like(net["out_b"]),
    }

    rng = np.random.default_rng(hp.seed)
    epoch_losses = []
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            loss, grads, batch_stats = forward_backward(
                net, X[idx], y[idx], hp.bn_eps)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // hp.batch_size}")
            for li, (mu, var) in enumerate(batch_stats):
                net["running_mean"][li] = (
                    (1.0 - hp.bn_momentum) * net["running_mean"][li]
                    + hp.bn_momentum * mu)
                net["running_var"][li] = (
                    (1.0 - hp.bn_momentum) * net["running_var"][li]
                    + hp.bn_momentum * var)
            _sgd_step(net, grads, velocity, hp.learning_rate, hp.momentum)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))

    trainable, non_trainable = parameter_counts(X.shape[1], hp.hidden)
    return jsonable(net), {"epoch_losses": epoch_losses,
                           "trainable_parameters": trainable,
                           "non_trainable_parameters": non_trainable}


def _net_from_artifact(artifact: ModelArtifact) -> dict:
    p = artifact.parameters
    return {
        "blocks": [{k: np.asarray(b[k]) for k in
                    ("W", "b", "gamma", "beta")} for b in p["blocks"]],
        "out_W": np.asarray(p["out_W"]),
        "out_b": np.asarray(p["out_b"]),
        "running_mean": [np.asarray(m) for m in p["running_mean"]],
        "running_var": [np.asarray(v) for v in p["running_var"]],
    }


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    net = _net_from_artifact(artifact)
    logits, _, _ = forward_logits(net, X, artifact.hyperparams["bn_eps"],
                                  False)
    return sigmoid(logits)
