"""Dense network: parameter accounting, gradients vs finite
differences, batch-norm prediction semantics, and failure reporting."""

import numpy as np
import pytest

from botsift.models import predict, train_model
from botsift.models.base import load_artifact
from botsift.models.nn import (NnParams, bce_from_logits, forward_backward,
                               forward_logits, init_network,
                               parameter_counts)
from botsift.windows import Dataset


def count_oracle(net):
    """Count array elements in an initialized network directly."""
    trainable = sum(b[k].size for b in net["blocks"]
                    for k in ("W", "b", "gamma", "beta"))
    trainable += net["out_W"].size + net["out_b"].size
    non_trainable = sum(m.size for m in net["running_mean"])
    non_trainable += sum(v.size for v in net["running_var"])
    return trainable, non_trainable


def test_parameter_counts_reference_architecture():
    assert parameter_counts(22, (256, 128)) == (39_681, 768)


@pytest.mark.parametrize("n_features,hidden", [
    (22, (256, 128)), (4, (3,)), (10, (7, 5)), (5, (8, 8, 8)),
])
def test_parameter_counts_match_element_counting(n_features, hidden):
    net = init_network(n_features, hidden, seed=0)
    assert parameter_counts(n_features, hidden) == count_oracle(net)


def test_gradients_match_central_finite_differences():
    eps = 1e-5
    h = 1e-6

    def training_loss(net, X, y):
        logits, _, _ = forward_logits(net, X, eps, True)
        return bce_from_logits(logits, y)

    def arrays(net, grads):
        for li, block in enumerate(net["blocks"]):
            for key in ("W", "b", "gamma", "beta"):
                yield block[key], grads["blocks"][li][key]
        yield net["out_W"], grads["out_W"]
        yield net["out_b"], grads["out_b"]

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        net = init_network(4, (3,), seed)
        # perturb away from the all-zero output layer and the BN
        # identity so every gradient path carries signal
        net["out_W"] = rng.normal(0.0, 0.5, net["out_W"].shape)
        net["out_b"] = rng.normal(0.0, 0.5, net["out_b"].shape)
        for block in net["blocks"]:
            block["beta"] = rng.normal(0.0, 0.3, block["beta"].shape)
            block["gamma"] = 1 + 0.2 * rng.normal(size=block["gamma"].shape)

        _, grads, _ = forward_backward(net, X, y, eps)
        for theta, grad in arrays(net, grads):
            it = np.nditer(theta, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = theta[idx]
                theta[idx] = orig + h
                loss_plus = training_loss(net, X, y)
                theta[idx] = orig - h
                loss_minus = training_loss(net, X, y)
                theta[idx] = orig
                fd = (loss_plus - loss_minus) / (2 * h)
                analytic = grad[idx]
                if abs(analytic) < 1e-10 and abs(fd) < 1e-10:
                    continue  # dead ReLU path: both identically zero
                rel = abs(analytic - fd) / max(1e-8, abs(analytic),
                                               abs(fd))
                worst = max(worst, rel)
    assert worst < 1e-4


def test_zero_initialized_output_layer_scores_half():
    net = init_network(6, (5, 4), seed=3)
    rng = np.random.default_rng(9)
    logits, _, _ = forward_logits(net, rng.normal(size=(10, 6)), 1e-5,
                                  False)
    np.testing.assert_array_equal(logits, 0.0)
    # and through a stored artifact of an untrained-equivalent net
    assert np.all(1.0 / (1.0 + np.exp(-logits)) == 0.5)


def separable_ds(seed=24, n=120):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-1.5, 0.4, (n // 2, 3)),
                   rng.normal(1.5, 0.4, (n // 2, 3))])
    y = np.repeat([0, 1], n // 2)
    return Dataset(X, y, ["a", "b", "c"])


def test_training_separates_easy_data():
    ds = separable_ds()
    artifact = train_model("nn", ds, NnParams(hidden=(8, 4), epochs=30,
                                              seed=1))
    _, labels = predict(artifact, ds.rows)
    np.testing.assert_array_equal(labels, ds.labels)
    losses = artifact.metadata["epoch_losses"]
    assert len(losses) == 30
    assert losses[-1] < losses[0]


def test_training_is_deterministic():
    ds = separable_ds(seed=25)
    hp = NnParams(hidden=(6,), epochs=3, seed=7)
    assert (train_model("nn", ds, hp).to_json()
            == train_model("nn", ds, hp).to_json())


def test_artifact_round_trip_scores_exactly(tmp_path):
    ds = separable_ds(seed=26)
    artifact = train_model("nn", ds, NnParams(hidden=(6, 3), epochs=4, seed=2))
    path = tmp_path / "nn.json"
    artifact.save(path)
    loaded = load_artifact(path)
    assert loaded.metadata["trainable_parameters"] == parameter_counts(
        3, (6, 3))[0]
    np.testing.assert_array_equal(predict(loaded, ds.rows)[0],
                                  predict(artifact, ds.rows)[0])


def test_prediction_is_per_row_in_eval_mode():
    # running statistics, not batch statistics, at prediction time:
    # scoring rows together or one at a time must agree exactly
    ds = separable_ds(seed=27)
    artifact = train_model("nn", ds, NnParams(hidden=(5,), epochs=2, seed=3))
    batch = predict(artifact, ds.rows[:10])[0]
    singles = np.concatenate([predict(artifact, ds.rows[i:i + 1])[0]
                              for i in range(10)])
    np.testing.assert_array_equal(batch, singles)


def test_non_finite_loss_reports_epoch_and_batch():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    X[5, 1] = np.nan
    ds = Dataset(X, np.tile([0, 1], 20), ["a", "b", "c"])
    with pytest.raises(FloatingPointError,
                       match=r"epoch 0, batch 0"):
        train_model("nn", ds, NnParams(hidden=(4,), epochs=1, seed=0))


def test_single_class_errors():
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.ones(4, dtype=int),
                 ["a", "b"])
    with pytest.raises(ValueError, match="both classes"):
        train_model("nn", ds, NnParams(hidden=(4,)))


def test_param_validation():
    with pytest.raises(ValueError):
        NnParams(hidden=())
    with pytest.raises(ValueError):
        NnParams(hidden=(0,))
    with pytest.raises(ValueError):
        NnParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        NnParams(momentum=1.0)
    with pytest.raises(ValueError):
        NnParams(epochs=0)
    with pytest.raises(ValueError):
        NnParams(batch_size=0)
