"""The DQN update and action choice match a plain reference bit for bit.

The reference below is the straightforward form of the same math: the trunk
through ``DenseNet.forward``/``backward``, the gradient pieces joined with
``concatenate``, out-of-place Adam, and an action choice that computes the
Q-values before it looks at the masks.  The agent's own update writes into
reused buffers and reads Q-values only when the greedy comparison needs
them; these tests hold it to the reference's exact bits and random draws.
"""

import numpy as np
import pytest

from greenlight import agent as agent_mod
from greenlight.agent import (
    AgentConfig,
    DQNAgent,
    RewardMode,
    training_controller,
)
from greenlight.core import Vehicle, build_standard_intersection, single_intersection_network
from greenlight.sim import CHANGE, KEEP, run_episode


def ref_q_values(qnet, x, phase):
    emb = qnet.trunk.forward(x)[0]
    return emb @ qnet.head_w[phase].T + qnet.head_b[phase]


def ref_q_batch(qnet, states, phases):
    emb = qnet.trunk.forward(states)[0]
    q = emb @ qnet.head_w.reshape(-1, emb.shape[1]).T
    rows = np.arange(len(emb))
    return q.reshape(len(emb), qnet.phase_count, 2)[rows, phases] + qnet.head_b[phases]


def ref_loss_and_grad(qnet, states, phases, actions, targets):
    emb, cache = qnet.trunk.forward(states)
    batch = len(emb)
    rows = np.arange(batch)
    slots = 2 * np.asarray(phases) + np.asarray(actions).astype(int)
    head_w = qnet.head_w.reshape(-1, emb.shape[1])
    diff = (emb @ head_w.T)[rows, slots] + qnet.head_b.reshape(-1)[slots] - targets
    dq = np.zeros((batch, len(head_w)))
    dq[rows, slots] = 2.0 * diff / batch
    trunk_grads, _ = qnet.trunk.backward(cache, dq @ head_w)
    grad = np.concatenate(
        [g.ravel() for g in trunk_grads] + [(dq.T @ emb).ravel(), dq.sum(axis=0)]
    )
    return float(diff @ diff) / batch, grad


def ref_adam(state, theta, g):
    t = state.step_count + 1
    state.step_count = t
    m, v = state.m, state.v
    m[...] = state.beta1 * m + (1.0 - state.beta1) * g
    v[...] = state.beta2 * v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    theta -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


def ref_learn_step(agent):
    cfg = agent.config
    if len(agent.memory) < cfg.batch_size:
        return None
    batch = agent.memory.sample(cfg.batch_size)
    if cfg.gamma == 0.0:
        targets = batch.rewards.copy()
    else:
        future = ref_q_batch(agent.target, batch.next_states, batch.next_phases).max(axis=1)
        targets = batch.rewards + cfg.gamma * future
    loss, grad = ref_loss_and_grad(agent.qnet, batch.states, batch.phases, batch.actions,
                                   targets)
    ref_adam(agent.adam, agent.qnet.theta, grad)
    agent.learn_steps += 1
    if agent.learn_steps % cfg.target_sync_interval == 0:
        agent.target.theta[...] = agent.qnet.theta
    return loss


def ref_act(agent, state, phase, *, training, transition_in_progress, min_green_met):
    """The agent's act with Q computed up front; returns (action, greedy read)."""
    if training:
        agent.decision_steps += 1
        epsilon = agent.epsilon
    else:
        epsilon = 0.0
    q = ref_q_values(agent.qnet, state, phase)
    if transition_in_progress or not min_green_met:
        return KEEP, False
    if epsilon > 0.0 and agent.action_rng.random() < epsilon:
        return int(agent.action_rng.integers(0, 2)), False
    return (CHANGE if q[1] > q[0] else KEEP), True


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def random_state(rng, agent):
    """Counts, then (occupancy mode) cell fractions, then the one-hot phase."""
    inter = agent.intersection
    phase = int(rng.integers(inter.phase_count))
    counts = rng.integers(0, 12, size=inter.lane_count).astype(float)
    extra = agent.state_dim - inter.lane_count - inter.phase_count
    one_hot = np.zeros(inter.phase_count)
    one_hot[phase] = 1.0
    return np.concatenate([counts, rng.random(extra).round(2), one_hot]), phase


AGENTS = {
    "2-phase counts": (2, {}),
    "4-phase occupancy": (4, {"state_mode": "counts_plus_occupancy", "occupancy_cells": 4}),
    "2-phase one hidden layer, myopic": (2, {"hidden_dims": (8,), "forecast": False}),
}


def twin_agents(name):
    phases, overrides = AGENTS[name]
    inter = build_standard_intersection(phases)
    config = dict(target_sync_interval=50, epsilon_decay_steps=200, **overrides)
    return (DQNAgent(inter, AgentConfig(**config), seed=3),
            DQNAgent(inter, AgentConfig(**config), seed=3))


@pytest.mark.parametrize("name", list(AGENTS))
def test_learn_steps_match_the_reference_bit_for_bit(name):
    agent, ref = twin_agents(name)
    rng = np.random.default_rng(11)
    state, phase = random_state(rng, agent)
    losses = 0
    for _ in range(agent.config.batch_size + 330):
        next_state, next_phase = random_state(rng, agent)
        action = int(rng.integers(2))
        reward = -float(next_state[:agent.intersection.lane_count].sum())
        for a in (agent, ref):
            a.remember(state, phase, action, reward, next_state, next_phase)
        loss, ref_loss = agent.learn_step(), ref_learn_step(ref)
        assert (loss is None) == (ref_loss is None)
        if loss is not None:
            assert loss.hex() == ref_loss.hex()
            losses += 1
        state, phase = next_state, next_phase
    assert losses > 300 and agent.learn_steps == ref.learn_steps == losses
    assert bits(agent.qnet.theta) == bits(ref.qnet.theta)
    assert bits(agent.target.theta) == bits(ref.target.theta)
    assert bits(agent.adam.m) == bits(ref.adam.m)
    assert bits(agent.adam.v) == bits(ref.adam.v)
    assert agent.adam.step_count == ref.adam.step_count == losses
    assert not np.array_equal(agent.qnet.theta, twin_agents(name)[0].qnet.theta)


def test_loss_and_grads_writes_the_reference_gradient_into_out():
    agent, _ = twin_agents("4-phase occupancy")
    rng = np.random.default_rng(5)
    states = np.stack([random_state(rng, agent)[0] for _ in range(16)])
    phases, actions = rng.integers(4, size=16), rng.integers(2, size=16)
    targets = rng.normal(size=16)
    ref_loss, ref_grad = ref_loss_and_grad(agent.qnet, states, phases, actions, targets)
    out = np.full(agent.qnet.theta.size, np.nan)
    loss, grad = agent.qnet.loss_and_grads(states, phases, actions, targets, out=out)
    assert grad is out and loss.hex() == ref_loss.hex() and bits(out) == bits(ref_grad)
    # without out: fresh views each call, aligned with parameters()
    _, first = agent.qnet.loss_and_grads(states, phases, actions, targets)
    _, second = agent.qnet.loss_and_grads(states, phases, actions, targets + 1.0)
    assert not np.shares_memory(first[0], second[0])
    assert [g.shape for g in first] == [p.shape for p in agent.qnet.parameters()]
    assert bits(np.concatenate([g.ravel() for g in agent.qnet._listed(out)])) == \
        bits(np.concatenate([g.ravel() for g in first]))


@pytest.mark.parametrize("name", list(AGENTS))
def test_act_reads_q_only_for_greedy_choices(name, monkeypatch):
    agent, ref = twin_agents(name)
    reads = []
    q_values = agent.qnet.q_values

    def counted(x, phase):
        reads.append(1)
        q = q_values(x, phase)
        assert bits(q) == bits(ref_q_values(agent.qnet, x, phase))
        return q

    monkeypatch.setattr(agent.qnet, "q_values", counted)
    rng = np.random.default_rng(2)
    greedy = kinds = 0
    for step in range(400):
        state, phase = random_state(rng, agent)
        flags = dict(training=step % 5 != 4, transition_in_progress=rng.random() < 0.2,
                     min_green_met=rng.random() < 0.8)
        action = agent.act(state, phase, **flags)
        ref_action, read = ref_act(ref, state, phase, **flags)
        assert action == ref_action
        greedy += read
        kinds |= 1 << action
    assert len(reads) == greedy and 0 < greedy < 400 and kinds == 3
    assert agent.decision_steps == ref.decision_steps
    assert agent.action_rng.bit_generator.state == ref.action_rng.bit_generator.state


def test_queue_reward_sums_equal_compute_reward_sums(monkeypatch):
    agent = DQNAgent(build_standard_intersection(2),
                     AgentConfig(decision_interval_s=3, epsilon_decay_steps=30), seed=0)
    net = single_intersection_network(agent.intersection)
    lanes = list(agent.intersection.lanes)
    demand = [Vehicle(i, float(t), (lanes[i % len(lanes)],))
              for i, t in enumerate([0, 1, 2, 4, 20, 21, 22, 23, 40, 41])]
    per_step = []
    real_compute = agent_mod.compute_reward

    class Recording(agent_mod.AgentController):
        def after_step(self, view):
            per_step.append(real_compute(view, RewardMode.QUEUE))
            assert view.reward == per_step[-1]
            super().after_step(view)

    calls = []
    monkeypatch.setattr(agent_mod, "compute_reward",
                        lambda *a, **k: calls.append(1) or real_compute(*a, **k))
    run_episode(net, [Recording(agent, training=True)], demand, horizon_s=60)
    assert calls == []  # the queue reward is read from the step view
    expected = []
    for start in range(0, 57, 3):
        acc = 0.0
        for r in per_step[start:start + 3]:
            acc += r
        expected.append(acc)
    assert len(agent.memory) == len(expected) == 19
    assert bits(agent.memory.rewards[:19]) == bits(expected)
    assert any(r < 0 for r in expected)
    assert any(np.signbit(r) and r == 0.0 for r in per_step)  # compute_reward's -0.0


def test_other_reward_modes_still_use_compute_reward():
    agent = DQNAgent(build_standard_intersection(2),
                     AgentConfig(reward_mode="vehicles", decision_interval_s=2), seed=0)
    net = single_intersection_network(agent.intersection)
    lane = agent.intersection.lanes[0]
    demand = [Vehicle(0, 0.0, (lane,))]
    run_episode(net, [training_controller(agent)], demand, horizon_s=6)
    # one vehicle on its lane throughout steps 0..3: -1 per step
    assert agent.memory.rewards[:2].tolist() == [-2.0, -2.0]
