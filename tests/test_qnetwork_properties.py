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


# ---------------------------------------------------------------------------
# the agent's update and greedy choice against the plain reference, bit for bit

from greenlight.agent import AgentConfig, DQNAgent  # noqa: E402
from greenlight.core import build_standard_intersection  # noqa: E402
from greenlight.neural import AdamState  # noqa: E402

from test_update_identity import bits, ref_act, ref_learn_step, ref_q_values  # noqa: E402


def agent_with_heads(heads, hidden, batch, gamma, seed):
    """A DQN agent whose networks have ``heads`` phase heads.  No intersection
    has a single phase, so a one-head agent gets its networks swapped in."""
    inter = build_standard_intersection(4 if heads == 4 else 2)
    config = AgentConfig(hidden_dims=hidden, batch_size=batch, gamma=gamma,
                         replay_capacity=batch + 40, target_sync_interval=5,
                         epsilon_decay_steps=40)
    agent = DQNAgent(inter, config, seed=seed)
    if heads != inter.phase_count:
        agent.qnet = QNetwork(agent.state_dim, heads, hidden, rng=np.random.default_rng(seed))
        agent.target = agent.qnet.copy()
        agent.adam = AdamState.for_parameters(agent.qnet.theta, config.learning_rate)
        agent._grad = np.empty_like(agent.qnet.theta)
    return agent


@st.composite
def update_cases(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    hidden = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    batch = draw(st.sampled_from([1, 2, 31, 32, 33, 64]))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
    return heads, hidden, batch, gamma, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(update_cases())
def test_learn_step_and_greedy_act_match_the_reference_bit_for_bit(case):
    heads, hidden, batch, gamma, seed = case
    agent, ref = (agent_with_heads(heads, hidden, batch, gamma, seed) for _ in range(2))
    rng = np.random.default_rng(seed)
    dim, lanes = agent.state_dim, agent.intersection.lane_count

    def transition():
        state = rng.random(dim).round(2) * 12   # counts and occupancy-like fractions
        return state, int(rng.integers(heads))

    state, phase = transition()
    for step in range(batch + 12):
        next_state, next_phase = transition()
        action, reward = int(rng.integers(2)), -float(next_state[:lanes].sum())
        for a in (agent, ref):
            a.remember(state, phase, action, reward, next_state, next_phase)
        loss, ref_loss = agent.learn_step(), ref_learn_step(ref)
        assert (loss is None) == (ref_loss is None) == (step + 1 < batch)
        if loss is not None:
            assert loss.hex() == ref_loss.hex()
        state, phase = next_state, next_phase
    assert agent.learn_steps == ref.learn_steps == 13
    for mine, theirs in ((agent.qnet.theta, ref.qnet.theta), (agent.target.theta, ref.target.theta),
                         (agent.adam.m, ref.adam.m), (agent.adam.v, ref.adam.v)):
        assert bits(mine) == bits(theirs)

    for _ in range(20):
        state, phase = transition()
        flags = dict(training=False, transition_in_progress=False, min_green_met=True)
        action, greedy = ref_act(ref, state, phase, **flags)
        assert greedy and agent.act(state, phase, **flags) == action
        assert bits(agent.qnet.q_values(state, phase)) == bits(ref_q_values(ref.qnet, state, phase))
