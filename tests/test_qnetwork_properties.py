"""Property tests: the fused Q-network learn step against a per-row reference."""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight.agent import QNetwork


@st.composite
def batches(draw):
    """A random network and batch; some phases may be absent from the batch."""
    input_dim = draw(st.integers(1, 8))
    hidden = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    phase_count = draw(st.sampled_from([2, 4]))
    present = sorted(draw(st.sets(st.integers(0, phase_count - 1), min_size=1)))
    size = draw(st.integers(1, 24))
    phases = np.array(draw(st.lists(st.sampled_from(present), min_size=size, max_size=size)))
    actions = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = QNetwork(input_dim, phase_count, hidden, rng=rng)
    states = rng.normal(size=(size, input_dim))
    targets = rng.normal(scale=3.0, size=size)
    return net, states, phases, actions, targets


def per_row_reference(net, states, phases, actions, targets):
    """Loss and gradients row by row, reading weights only through parameters()."""
    params = net.parameters()
    depth = len(net.hidden_dims)
    grads = [np.zeros_like(p) for p in params]
    batch = len(states)
    loss = 0.0
    for x, k, a, y in zip(states, phases, actions, targets):
        inputs, pres, h = [], [], x
        for layer in range(depth):
            inputs.append(h)
            pres.append(params[2 * layer] @ h + params[2 * layer + 1])
            h = np.maximum(pres[-1], 0.0)
        w, b = params[2 * depth + 2 * k], params[2 * depth + 2 * k + 1]
        diff = w[a] @ h + b[a] - y
        loss += diff * diff / batch
        g = 2.0 * diff / batch
        grads[2 * depth + 2 * k][a] += g * h
        grads[2 * depth + 2 * k + 1][a] += g
        gh = g * w[a]
        for layer in reversed(range(depth)):
            gz = gh * (pres[layer] > 0)
            grads[2 * layer] += np.outer(gz, inputs[layer])
            grads[2 * layer + 1] += gz
            gh = params[2 * layer].T @ gz
    return loss, grads


@settings(max_examples=60, deadline=None)
@given(batches())
def test_fused_loss_and_grads_match_per_row_reference(case):
    net, states, phases, actions, targets = case
    loss, grads = net.loss_and_grads(states, phases, actions, targets)
    ref_loss, ref_grads = per_row_reference(net, states, phases, actions, targets)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=1e-12)
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)
    # all gradient arrays are views into one flat vector laid out like theta
    flat = grads[0].base
    assert flat.shape == net.theta.shape
    assert all(g.base is flat for g in grads)
    depth = len(net.hidden_dims)
    for k in set(range(net.phase_count)) - set(phases.tolist()):
        assert not grads[2 * depth + 2 * k].any() and not grads[2 * depth + 2 * k + 1].any()


@settings(max_examples=30, deadline=None)
@given(batches())
def test_q_batch_matches_per_row_q_values(case):
    net, states, phases, _, _ = case
    q = net.q_batch(states, phases)
    for i, (x, k) in enumerate(zip(states, phases)):
        np.testing.assert_allclose(q[i], net.q_values(x, int(k)), rtol=1e-12, atol=1e-12)


def _assert_views_alias_theta(net):
    for p in net.parameters():
        assert p.flags.c_contiguous and np.shares_memory(p, net.theta)
    for layer in net.trunk.layers:
        assert np.shares_memory(layer.weight, net.theta)
        assert np.shares_memory(layer.bias, net.theta)
    assert np.shares_memory(net.head_w, net.theta)
    assert np.shares_memory(net.head_b, net.theta)


@settings(max_examples=20, deadline=None)
@given(batches())
def test_parameters_alias_theta_after_deepcopy_and_pickle(case):
    net, states, phases, _, _ = case
    before = net.q_batch(states, phases)
    for clone in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        _assert_views_alias_theta(clone)
        assert not np.shares_memory(clone.theta, net.theta)
        assert np.array_equal(clone.q_batch(states, phases), before)
        # writes through the parameter views reach the forward pass
        depth = len(net.hidden_dims)
        for k, p in enumerate(clone.parameters()[2 * depth:]):
            p[...] = 7.0 if k % 2 else 0.0   # head weights 0, head biases 7
        assert np.all(clone.q_batch(states, phases) == 7.0)
        assert np.array_equal(net.q_batch(states, phases), before)
