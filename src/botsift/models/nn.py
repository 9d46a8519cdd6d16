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
from typing import Annotated, Sequence, Union

import numpy as np

from ..config import Count, Seed, check
from .base import ModelArtifact, jsonable, sigmoid, softplus


@dataclass
class NnParams:
    hidden: Union[Count, Sequence[Count]] = (256, 128)  # an int: one layer
    learning_rate: Annotated[float, "(0, inf]"] = 0.01
    momentum: Annotated[float, "[0, 1)"] = 0.9
    epochs: Count = 10
    batch_size: Count = 32
    bn_momentum: Annotated[float, "[0, 1]"] = 0.1
    bn_eps: Annotated[float, "(0, inf]"] = 1e-5
    seed: Seed = 42

    def __post_init__(self):
        check(self)
        if not isinstance(self.hidden, (list, tuple)):
            self.hidden = (self.hidden,)
        self.hidden = tuple(self.hidden)
        if not self.hidden:
            raise ValueError("hidden needs at least one width")


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


def _trainable(net: dict) -> list:
    """The trainable arrays of a network, or of its gradients, in one
    fixed order: each block's W, b, gamma, beta, then out_W, out_b."""
    return [*(block[key] for block in net["blocks"]
              for key in ("W", "b", "gamma", "beta")),
            net["out_W"], net["out_b"]]


def parameter_counts(n_features: int, hidden: Sequence[int]):
    """(trainable, non_trainable) sizes of `init_network`'s arrays."""
    net = init_network(n_features, hidden, seed=0)
    return (sum(a.size for a in _trainable(net)),
            sum(a.size for a in net["running_mean"] + net["running_var"]))


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


def fit(X: np.ndarray, labels: np.ndarray, hp: NnParams):
    y = labels.astype(float)
    n = X.shape[0]

    net = init_network(X.shape[1], hp.hidden, hp.seed)
    params = _trainable(net)
    velocity = [np.zeros_like(p) for p in params]

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
            for p, v, g in zip(params, velocity, _trainable(grads)):
                v *= hp.momentum
                v -= hp.learning_rate * g
                p += v
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))

    trainable, non_trainable = parameter_counts(X.shape[1], hp.hidden)
    return jsonable(net), {"epoch_losses": epoch_losses,
                           "trainable_parameters": trainable,
                           "non_trainable_parameters": non_trainable}


def score(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    p = artifact.parameters
    net = {"blocks": [{k: np.asarray(a) for k, a in b.items()}
                      for b in p["blocks"]],
           "out_W": np.asarray(p["out_W"]), "out_b": np.asarray(p["out_b"]),
           "running_mean": [np.asarray(m) for m in p["running_mean"]],
           "running_var": [np.asarray(v) for v in p["running_var"]]}
    logits, _, _ = forward_logits(net, X, artifact.hyperparams["bn_eps"],
                                  False)
    return sigmoid(logits)
