"""The benchmark tracer still sees every layer of the learn step.

perfbench reports self time per span, so a learn step that skipped a traced
call, or reached it under a name the tracer does not wrap, would move time
between layers without a trace of it.  These tests run a short training
under the tracer, used as it is, and count the calls of each layer.
"""

import inspect
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import greenlight as gl  # noqa: E402
from greenlight import agent as agent_mod  # noqa: E402
from greenlight.agent import AgentConfig, DQNAgent, train  # noqa: E402
from greenlight.core import (  # noqa: E402
    Vehicle,
    build_standard_intersection,
    single_intersection_network,
)

import tracer as tracing  # noqa: E402

LEARN_LAYERS = ["agent.ReplayMemory.sample", "agent.bellman_targets",
                "agent.QNetwork.loss_and_grads", "neural.adam_step"]


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    restore = tracing.install(gl, tracer)
    try:
        yield tracer
    finally:
        restore()


def short_training(gamma):
    inter = build_standard_intersection(2)
    agent = DQNAgent(inter, AgentConfig(batch_size=8, hidden_dims=(8,), gamma=gamma,
                                        target_sync_interval=20), seed=1)
    lanes = list(inter.lanes)
    demand = [Vehicle(i, float(3 * i), (lanes[i % len(lanes)],)) for i in range(40)]
    train(agent, single_intersection_network(inter), lambda episode: demand,
          episodes=2, horizon_s=90)
    return agent


@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_each_learn_step_calls_each_layer_once(traced, gamma):
    agent = short_training(gamma)
    done = traced.counts["agent.learn_steps_done"]
    assert done == agent.learn_steps == 2 * 90 - 2 - 7
    assert traced.calls["agent.learn_step"] == done + 7   # 7 warm-up calls return None
    assert {name: traced.calls[name] for name in LEARN_LAYERS} == dict.fromkeys(LEARN_LAYERS,
                                                                                 done)


def test_a_greedy_unmasked_decision_reads_q_values_once(traced):
    agent = DQNAgent(build_standard_intersection(2), seed=0)
    state = np.arange(agent.state_dim, dtype=float)
    flags = dict(training=False, transition_in_progress=False)
    agent.act(state, 0, min_green_met=False, **flags)
    assert traced.calls["agent.QNetwork.q_values"] == 0
    agent.act(state, 0, min_green_met=True, **flags)
    assert traced.calls["agent.QNetwork.q_values"] == 1


def test_learn_step_passes_bellman_targets_five_positional_arguments(monkeypatch):
    params = inspect.signature(agent_mod.bellman_targets).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 5
    calls = []
    real = agent_mod.bellman_targets
    monkeypatch.setattr(agent_mod, "bellman_targets",
                        lambda *args, **kwargs: calls.append((len(args), kwargs))
                        or real(*args, **kwargs))
    agent = short_training(0.8)
    assert calls == [(5, {})] * agent.learn_steps
