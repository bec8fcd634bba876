"""Dense net forward/backward, optimizer, gradient checking."""

import numpy as np
import pytest

from greenlight.neural import (
    AdamState,
    DenseNet,
    Layer,
    ShapeError,
    TrainingError,
    adam_step,
    gradient_check,
)


def identity_net(weight: float = 1.0) -> DenseNet:
    return DenseNet([Layer(np.array([[weight]]), np.zeros(1), "identity")])


def mse_loss_and_grads(net: DenseNet, x, y) -> tuple[float, list[np.ndarray]]:
    """Mean squared error over all outputs; gradients for parameters()."""
    out, cache = net.forward(x)
    diff = out - np.asarray(y, dtype=float)
    grads, _ = net.backward(cache, 2.0 * diff / diff.size)
    return float(np.mean(diff * diff)), grads


def mse_gradient_check(net: DenseNet, x, y, **kwargs):
    """gradient_check on a network's MSE, skipping coordinates that cross a relu kink."""
    return gradient_check(
        net.parameters(), lambda: mse_loss_and_grads(net, x, y),
        relu_pattern=lambda: net.relu_pattern(net.forward(x)[1]), **kwargs,
    )


# -- forward -----------------------------------------------------------------


def test_relu_forward_clips_negatives():
    net = DenseNet([Layer(np.eye(2), np.zeros(2), "relu")])
    out = net.forward(np.array([1.0, -1.0]))[0]
    assert out.tolist() == [1.0, 0.0]


def test_forward_batched_and_squeezed_shapes():
    net = DenseNet([Layer(np.ones((3, 2)), np.zeros(3), "identity")])
    single = net.forward(np.array([1.0, 2.0]))[0]
    batch = net.forward(np.array([[1.0, 2.0], [0.0, 0.0]]))[0]
    assert single.shape == (3,)
    assert batch.shape == (2, 3)
    assert batch[0].tolist() == single.tolist()
    assert batch[1].tolist() == [0.0, 0.0, 0.0]


def test_forward_rejects_wrong_input_dim():
    net = identity_net()
    with pytest.raises(ShapeError):
        net.forward(np.array([1.0, 2.0]))


def test_layer_dims_must_chain():
    with pytest.raises(ShapeError):
        DenseNet([
            Layer(np.ones((3, 2)), np.zeros(3), "identity"),
            Layer(np.ones((1, 4)), np.zeros(1), "identity"),
        ])


def test_create_he_uniform_bounds_and_zero_bias():
    rng = np.random.default_rng(0)
    net = DenseNet.create([8, 16, 2], ["relu", "identity"], rng)
    w0, b0, w1, b1 = net.parameters()
    assert np.all(np.abs(w0) <= np.sqrt(6.0 / 8))
    assert np.all(np.abs(w1) <= np.sqrt(3.0 / 16))
    assert not b0.any() and not b1.any()
    # same seed, same weights
    net2 = DenseNet.create([8, 16, 2], ["relu", "identity"], np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), net2.parameters()))


def test_parameter_count_and_interleaving():
    rng = np.random.default_rng(1)
    net = DenseNet.create([4, 8, 2], ["relu", "identity"], rng)
    assert sum(p.size for p in net.parameters()) == 4 * 8 + 8 + 8 * 2 + 2
    shapes = [p.shape for p in net.parameters()]
    assert shapes == [(8, 4), (8,), (2, 8), (2,)]


# -- backward ----------------------------------------------------------------


def test_scalar_mse_gradient_is_two():
    # w=1, x=1, y=0: loss=(w*x-y)^2=1, dL/dw = 2*x*(wx-y) = 2
    net = identity_net(1.0)
    loss, grads = mse_loss_and_grads(net, np.array([1.0]), np.array([0.0]))
    assert loss == pytest.approx(1.0)
    assert grads[0].reshape(-1)[0] == pytest.approx(2.0)
    assert grads[1][0] == pytest.approx(2.0)  # bias grad identical here


def test_mse_gradient_scales_with_batch():
    net = identity_net(1.0)
    x = np.array([[1.0], [1.0]])
    y = np.array([[0.0], [0.0]])
    loss, grads = mse_loss_and_grads(net, x, y)
    assert loss == pytest.approx(1.0)
    # mean over 2 samples: each contributes 2/2
    assert grads[0].reshape(-1)[0] == pytest.approx(2.0)


def test_backward_input_grad_chains_shapes():
    rng = np.random.default_rng(3)
    net = DenseNet.create([5, 7, 3], ["relu", "identity"], rng)
    x = rng.normal(size=(4, 5))
    out, cache = net.forward(x)
    grads, dx = net.backward(cache, np.ones_like(out))
    assert dx.shape == (4, 5)
    assert [g.shape for g in grads] == [(7, 5), (7,), (3, 7), (3,)]


def test_gradient_check_passes_on_random_net():
    rng = np.random.default_rng(7)
    net = DenseNet.create([6, 12, 12, 2], ["relu", "relu", "identity"], rng)
    x = rng.normal(size=(8, 6))
    y = rng.normal(size=(8, 2))
    result = mse_gradient_check(net, x, y, rng=np.random.default_rng(0))
    assert result.checked > 0
    assert result.max_rel_error < 1e-4
    assert result.passed


def test_gradient_check_catches_sign_flip():
    net = identity_net(1.0)
    x, y = np.array([1.0]), np.array([0.0])

    def wrong_loss_and_grads():
        loss, grads = mse_loss_and_grads(net, x, y)
        return loss, [-g for g in grads]  # sabotage: flipped sign

    result = gradient_check(net.parameters(), wrong_loss_and_grads)
    assert result.max_rel_error == pytest.approx(2.0, rel=1e-6)
    assert not result.passed


def test_gradient_check_skips_relu_kinks():
    # pre-activation exactly at zero: +/- epsilon flips the relu sign, so the
    # central difference is invalid and must be reported as skipped
    net = DenseNet([
        Layer(np.array([[1.0]]), np.zeros(1), "relu"),
        Layer(np.array([[1.0]]), np.zeros(1), "identity"),
    ])
    x, y = np.array([0.0]), np.array([1.0])
    result = mse_gradient_check(net, x, y)
    assert result.skipped_kinks > 0


def test_gradient_check_subsamples_large_nets():
    rng = np.random.default_rng(9)
    net = DenseNet.create([10, 32, 32, 4], ["relu", "relu", "identity"], rng)
    x = rng.normal(size=(4, 10))
    y = rng.normal(size=(4, 4))
    result = mse_gradient_check(net, x, y, max_checks=50)
    assert result.checked + result.skipped_kinks == 50


# -- optimizer ---------------------------------------------------------------


def test_adam_first_step_hand_value():
    # first step: m_hat = g, v_hat = g^2, so delta = lr * g/|g| = lr
    params = np.array([1.0, -1.0])
    state = AdamState.for_parameters(params, learning_rate=0.1)
    adam_step(state, params, np.array([0.5, -2.0]))
    assert params == pytest.approx([0.9, -0.9], rel=1e-6)
    assert state.step_count == 1


def test_adam_zero_gradient_is_a_noop():
    params = np.array([1.0, -2.0])
    state = AdamState.for_parameters(params)
    adam_step(state, params, np.zeros(2))
    assert params.tolist() == [1.0, -2.0]


def test_adam_rejects_non_finite_gradient():
    params = np.array([1.0, 2.0])
    state = AdamState.for_parameters(params)
    with pytest.raises(TrainingError):
        adam_step(state, params, np.array([0.5, np.nan]))
    # one scan before any update: nothing moved, no step counted
    assert params.tolist() == [1.0, 2.0]
    assert state.step_count == 0 and not state.m.any()


def test_adam_rejects_mismatched_shapes():
    params = np.array([1.0])
    state = AdamState.for_parameters(params)
    with pytest.raises(ShapeError):
        adam_step(state, params, np.zeros(2))
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(2), np.zeros(2))


def test_adam_descends_quadratic():
    # minimize (w-3)^2 from w=0
    params = np.array([0.0])
    state = AdamState.for_parameters(params, learning_rate=0.05)
    for _ in range(2000):
        adam_step(state, params, 2.0 * (params - 3.0))
    assert params[0] == pytest.approx(3.0, abs=1e-3)


def test_adam_flat_update_matches_per_array_loop():
    # the reference is the per-array form of the same update, one array at a time
    rng = np.random.default_rng(4)
    shapes = [(3, 2), (3,), (1, 3), (1,)]
    arrays = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([a.ravel() for a in arrays])
    state = AdamState.for_parameters(flat, learning_rate=0.01)
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        adam_step(state, flat, np.concatenate([g.ravel() for g in grads]))
        for p, g, m, v in zip(arrays, grads, ms, vs):
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
