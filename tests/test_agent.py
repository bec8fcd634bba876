"""Q-learning agent: encoding, rewards, network heads, replay, control loop."""

import dataclasses
import pickle

import numpy as np
import pytest

from greenlight.agent import (
    EPSILON_DECAY_FRACTION,
    AgentConfig,
    DQNAgent,
    QNetwork,
    ReplayMemory,
    RewardMode,
    StateMode,
    TrainingResult,
    CurvePoint,
    bellman_targets,
    compute_reward,
    greedy_controller,
    select_action,
    state_dim,
    train,
    training_controller,
    write_curve_csv,
)
from greenlight.core import (
    Approach,
    ConfigError,
    LaneId,
    Movement,
    Vehicle,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.sim import CHANGE, KEEP, StepView, run_episode


def lane(label: str) -> LaneId:
    return LaneId(0, Approach(label[0]), Movement(label[1]))


def make_view(counts, phase_index: int = 0, *, queues=None, waiting_steps=None,
              clock_s: int = 0, occupancy=None) -> StepView:
    """A hand-built step view; ``occupancy`` maps cells_per_lane to a vector.
    The ready sums are those that give ``waiting_steps`` at ``clock_s``."""
    counts = tuple(counts)
    zeros = (0,) * len(counts)
    queues = zeros if queues is None else tuple(queues)
    waiting = zeros if waiting_steps is None else tuple(waiting_steps)
    view = StepView(
        phase_index=phase_index,
        counts=counts,
        queues=queues,
        ready_sums=tuple(clock_s * q - w for q, w in zip(queues, waiting)),
        green_mask=np.zeros(len(counts), dtype=bool),
        departures=[],
        clock_s=clock_s,
        elapsed_green_s=0,
        in_transition=False,
        min_green_met=False,
        occupancy=(occupancy or {}).__getitem__,
    )
    assert view.waiting_steps == waiting
    return view


def encoder(mode: StateMode, occupancy_cells: int = 4) -> DQNAgent:
    """An agent on the 4-lane, 2-phase intersection, used for its encode()."""
    return DQNAgent(build_standard_intersection(2),
                    AgentConfig(state_mode=mode, occupancy_cells=occupancy_cells))


def crafted_qnetwork() -> QNetwork:
    """1-input, 1-unit relu trunk, two identity heads with known weights."""
    net = QNetwork(1, 2, hidden_dims=(1,), rng=np.random.default_rng(0))
    net.trunk.layers[0].weight[...] = [[1.0]]
    net.trunk.layers[0].bias[...] = 0.0
    net.head_w[0] = [[1.0], [2.0]]
    net.head_b[0] = [0.0, 0.0]
    net.head_w[1] = [[-1.0], [3.0]]
    net.head_b[1] = [0.5, 0.0]
    return net


# -- config ------------------------------------------------------------------


def test_config_forecast_off_zeroes_gamma():
    cfg = AgentConfig(gamma=0.8, forecast=False)
    assert cfg.gamma == 0.0


def test_config_round_trip():
    cfg = AgentConfig(state_mode="occupancy_only", reward_mode="waiting",
                      hidden_dims=(16, 8))
    clone = AgentConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert clone.state_mode is StateMode.OCCUPANCY_ONLY


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        AgentConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        AgentConfig(batch_size=64, replay_capacity=32)
    with pytest.raises(ConfigError):
        AgentConfig(reward_mode="weighted")  # needs weights
    with pytest.raises(ConfigError):
        AgentConfig(reward_mode="weighted", reward_weights={"weighted": 1.0})
    with pytest.raises(ConfigError):
        AgentConfig(occupancy_cells=0)
    for hidden_dims in ((), (8, 0)):
        with pytest.raises(ConfigError, match="agent_hidden_dims"):
            AgentConfig(hidden_dims=hidden_dims)
    for learning_rate in (0.0, -1.0):
        with pytest.raises(ConfigError, match="agent_learning_rate"):
            AgentConfig(learning_rate=learning_rate)


# -- state encoding ----------------------------------------------------------


def test_state_dims_per_mode():
    # 4 lanes, 2 phases, 4 occupancy cells
    assert state_dim(StateMode.COUNTS_PHASE, 4, 2, 4) == 6
    assert state_dim(StateMode.WAITING_PHASE, 4, 2, 4) == 6
    assert state_dim(StateMode.COUNTS_PLUS_OCCUPANCY, 4, 2, 4) == 22
    assert state_dim(StateMode.OCCUPANCY_ONLY, 4, 2, 4) == 18


def test_encode_counts_phase_layout():
    vec = encoder(StateMode.COUNTS_PHASE).encode(make_view([1, 2, 3, 4], phase_index=1))
    assert vec.tolist() == [1.0, 2.0, 3.0, 4.0, 0.0, 1.0]


def test_encode_occupancy_modes_layout():
    # the agent reads the occupancy vector at its own cells_per_lane
    occupancy = {2: np.array([1, 0, 0, 1, 0, 0, 2, 0])}
    view = make_view([1, 0, 2, 0], occupancy=occupancy)
    vec = encoder(StateMode.OCCUPANCY_ONLY, 2).encode(view)
    assert vec.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0]
    combo = encoder(StateMode.COUNTS_PLUS_OCCUPANCY, 2).encode(view)
    assert combo.tolist() == [1.0, 0.0, 2.0, 0.0,
                              1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0]


def test_encode_waiting_phase():
    view = make_view([9, 9, 9, 9], queues=[2, 1, 0, 1], waiting_steps=[7, 3, 0, 1], clock_s=10)
    vec = encoder(StateMode.WAITING_PHASE).encode(view)
    assert vec.tolist() == [7.0, 3.0, 0.0, 1.0, 1.0, 0.0]


# -- rewards -----------------------------------------------------------------


def test_reward_modes_on_view():
    m = make_view([3, 1], queues=[2, 0], waiting_steps=[4, 0], clock_s=3)
    assert compute_reward(m, RewardMode.QUEUE) == -2.0
    assert compute_reward(m, RewardMode.DELAY) == pytest.approx(-2.0 / 3.0)
    assert compute_reward(m, RewardMode.WAITING) == -4.0
    assert compute_reward(m, RewardMode.VEHICLES) == -4.0
    combo = compute_reward(m, RewardMode.WEIGHTED,
                           {"queue": 0.5, "waiting": 0.5})
    assert combo == pytest.approx(-3.0)


# -- q-network ---------------------------------------------------------------


def test_q_values_route_through_phase_heads():
    net = crafted_qnetwork()
    # emb = relu(x)
    assert net.q_values(np.array([1.0]), 0) == pytest.approx([1.0, 2.0])
    assert net.q_values(np.array([1.0]), 1) == pytest.approx([-0.5, 3.0])
    assert net.q_values(np.array([-2.0]), 0) == pytest.approx([0.0, 0.0])
    with pytest.raises(ConfigError):
        net.q_values(np.array([1.0]), 2)


def test_q_batch_matches_single_queries():
    net = crafted_qnetwork()
    states = np.array([[1.0], [2.0], [0.5]])
    phases = np.array([0, 1, 0])
    batch = net.q_batch(states, phases)
    for i in range(3):
        assert batch[i] == pytest.approx(net.q_values(states[i], int(phases[i])))


def test_loss_matches_ungrouped_recomputation():
    net = crafted_qnetwork()
    states = np.array([[1.0], [2.0]])
    phases = np.array([0, 1])
    actions = np.array([0, 1])
    targets = np.array([0.0, 0.0])
    loss, grads = net.loss_and_grads(states, phases, actions, targets)
    # sample 0: Q=[1,2], taken 0 -> diff 1; sample 1: Q=[-1.5,6], taken 1 -> diff 6
    assert loss == pytest.approx((1.0 + 36.0) / 2.0)
    q = net.q_batch(states, phases)
    diffs = q[np.arange(2), actions] - targets
    assert loss == pytest.approx(float(np.mean(diffs**2)))


def test_gradients_touch_only_present_heads():
    net = crafted_qnetwork()
    states = np.array([[1.0], [0.5]])
    phases = np.array([0, 0])  # phase-1 head absent from the batch
    actions = np.array([0, 1])
    targets = np.array([0.0, 0.0])
    _, grads = net.loss_and_grads(states, phases, actions, targets)
    # parameters(): trunk w,b then head0 w,b then head1 w,b
    assert not grads[4].any() and not grads[5].any()
    assert grads[2].any()


def test_gradient_lands_on_taken_slot():
    net = crafted_qnetwork()
    # single sample, phase 0, action 0: diff = Q[0]-0 = 1, demb through slot 0
    _, grads = net.loss_and_grads(
        np.array([[1.0]]), np.array([0]), np.array([0]), np.array([0.0])
    )
    # head0 dW = dq.T @ emb with dq = [[2, 0]] and emb = [1]
    assert grads[2] == pytest.approx(np.array([[2.0], [0.0]]))
    assert grads[3] == pytest.approx(np.array([2.0, 0.0]))


def test_sync_from_copies_parameters():
    a = crafted_qnetwork()
    b = QNetwork(1, 2, hidden_dims=(1,), rng=np.random.default_rng(5))
    b.sync_from(a)
    assert b.q_values(np.array([1.0]), 1) == pytest.approx([-0.5, 3.0])
    a.head_b[1, 0] = 99.0
    assert b.q_values(np.array([1.0]), 1) == pytest.approx([-0.5, 3.0])


def test_qnetwork_copy_is_independent():
    net = crafted_qnetwork()
    clone = net.copy()
    clone.head_w[0, 0, 0] = 99.0
    clone.trunk.layers[0].weight[0, 0] = 5.0
    assert net.q_values(np.array([1.0]), 0) == pytest.approx([1.0, 2.0])
    assert clone.q_values(np.array([1.0]), 0) == pytest.approx([495.0, 10.0])
    net.sync_from(clone)
    assert np.array_equal(net.theta, clone.theta)
    assert net.q_values(np.array([1.0]), 0) == pytest.approx([495.0, 10.0])


def test_theta_layout_is_trunk_then_head_weights_then_head_biases():
    net = QNetwork(3, 4, hidden_dims=(5, 2), rng=np.random.default_rng(0))
    params = net.parameters()
    assert [p.shape for p in params] == [(5, 3), (5,), (2, 5), (2,)] + [(2, 2), (2,)] * 4
    assert net.theta.size == sum(p.size for p in params)
    assert np.array_equal(net.head_w.ravel(), net.theta[-4 * 2 * 2 - 4 * 2:-4 * 2])
    assert np.array_equal(net.head_b.ravel(), net.theta[-4 * 2:])
    for p in params:
        assert p.flags.c_contiguous and np.shares_memory(p, net.theta)


# -- bellman targets ---------------------------------------------------------


def test_bellman_targets_hand_values():
    net = crafted_qnetwork()
    rewards = np.array([1.0, 2.0])
    next_states = np.array([[2.0], [-1.0]])
    next_phases = np.array([0, 1])
    # s'=2 head0: max(2,4)=4 -> 1+0.5*4 = 3
    # s'=-1 head1: emb=0, max(0.5,0)=0.5 -> 2+0.25
    y = bellman_targets(net, rewards, next_states, next_phases, gamma=0.5)
    assert y == pytest.approx([3.0, 2.25])


def test_bellman_targets_gamma_zero_is_exactly_rewards():
    net = crafted_qnetwork()
    rewards = np.array([1.0, -7.0])
    y = bellman_targets(net, rewards, np.zeros((2, 1)), np.zeros(2, dtype=int), 0.0)
    assert np.array_equal(y, rewards)
    y[0] = 99.0  # must be a copy, not a view
    assert rewards[0] == 1.0


# -- action selection --------------------------------------------------------


def test_select_action_masks_override_q():
    q = np.array([0.0, 100.0])
    assert select_action(lambda: q, 0.0, None, True, True) == KEEP
    assert select_action(lambda: q, 0.0, None, False, False) == KEEP
    assert select_action(lambda: q, 0.0, None, False, True) == CHANGE


def test_select_action_reads_q_only_for_the_greedy_comparison():
    reads = []

    def q_pair():
        reads.append(1)
        return np.array([0.0, 1.0])

    rng = np.random.default_rng(0)
    assert select_action(q_pair, 0.5, rng, True, True) == KEEP
    assert select_action(q_pair, 0.5, rng, False, False) == KEEP
    assert select_action(q_pair, 1.0, rng, False, True) in (KEEP, CHANGE)
    assert reads == []
    assert select_action(q_pair, 0.0, None, False, True) == CHANGE
    assert reads == [1]


def test_select_action_greedy_and_tie():
    assert select_action(lambda: np.array([2.0, 1.0]), 0.0, None, False, True) == KEEP
    assert select_action(lambda: np.array([1.0, 1.0]), 0.0, None, False, True) == KEEP
    assert select_action(lambda: np.array([1.0, 1.1]), 0.0, None, False, True) == CHANGE


def test_select_action_exploration_needs_rng():
    with pytest.raises(ConfigError):
        select_action(lambda: np.zeros(2), 0.5, None, False, True)
    with pytest.raises(ConfigError):
        select_action(lambda: np.zeros(2), 1.5, np.random.default_rng(0), False, True)


def test_select_action_exploration_is_roughly_uniform():
    rng = np.random.default_rng(42)
    picks = [select_action(lambda: np.array([5.0, 0.0]), 1.0, rng, False, True)
             for _ in range(2000)]
    changes = sum(picks)
    # Binomial(2000, 0.5): 5 sigma ~ 112
    assert abs(changes - 1000) < 112


# -- replay memory -----------------------------------------------------------


def test_replay_ring_overwrites_oldest():
    mem = ReplayMemory(3, 1, np.random.default_rng(0))
    for i in range(5):
        mem.push(np.array([float(i)]), 0, 0, float(i), np.array([0.0]), 0)
    assert len(mem) == 3
    assert sorted(mem.rewards.tolist()) == [2.0, 3.0, 4.0]


def test_replay_sample_uniform_with_replacement():
    mem = ReplayMemory(3, 1, np.random.default_rng(7))
    for i in range(3):
        mem.push(np.array([0.0]), 0, 0, float(i), np.array([0.0]), 0)
    batch = mem.sample(3000)
    counts = np.bincount(batch.rewards.astype(int), minlength=3)
    # Binomial(3000, 1/3): 5 sigma ~ 129
    assert np.all(np.abs(counts - 1000) < 129)


def test_replay_rejects_empty_sample_and_bad_capacity():
    with pytest.raises(ConfigError):
        ReplayMemory(0, 1, np.random.default_rng(0))
    mem = ReplayMemory(2, 1, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        mem.sample(1)


def filled_memory(capacity: int, pushes: int, dim: int = 3) -> ReplayMemory:
    mem = ReplayMemory(capacity, dim, np.random.default_rng(5))
    for i in range(pushes):
        mem.push(np.full(dim, i + 0.5), i % 2, (i // 2) % 2, -float(i),
                 np.full(dim, i + 1.5), (i + 1) % 2)
    return mem


def assert_same_memory(a: ReplayMemory, b: ReplayMemory) -> None:
    assert (a.capacity, a.insertion_count, len(a)) == (b.capacity, b.insertion_count, len(b))
    for name in ("states", "next_states", "phases", "actions", "rewards", "next_phases"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("pushes", [7, 23])   # part-filled, wrapped past capacity 10
def test_replay_pickle_restores_the_memory(pushes):
    mem = filled_memory(10, pushes)
    restored = pickle.loads(pickle.dumps(mem))
    assert_same_memory(restored, mem)
    for m in (mem, restored):   # the same batches, then the same ring slots overwritten
        m.push(np.full(3, -1.0), 1, 1, 9.0, np.full(3, -2.0), 0)
    assert_same_memory(restored, mem)
    for _ in range(3):
        a, b = mem.sample(6), restored.sample(6)
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_replay_pickle_size_follows_the_filled_rows():
    sizes = {(capacity, pushes): len(pickle.dumps(filled_memory(capacity, pushes)))
             for capacity in (50, 5000) for pushes in (10, 40)}
    # a hundredfold capacity adds only the bytes of a larger integer
    assert abs(sizes[5000, 10] - sizes[50, 10]) <= 8
    assert abs(sizes[5000, 40] - sizes[50, 40]) <= 8
    assert sizes[50, 40] - sizes[50, 10] >= 30 * (2 * 3 + 1 + 3) * 8
    wrapped = pickle.dumps(filled_memory(50, 120))
    assert len(wrapped) - sizes[50, 40] >= 10 * (2 * 3 + 1 + 3) * 8


# -- agent -------------------------------------------------------------------


def test_epsilon_linear_schedule():
    cfg = AgentConfig(epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_steps=100)
    agent = DQNAgent(build_standard_intersection(2), cfg, seed=0)
    assert agent.epsilon == 1.0
    agent.decision_steps = 50
    assert agent.epsilon == pytest.approx(0.525)
    agent.decision_steps = 100
    assert agent.epsilon == pytest.approx(0.05)
    agent.decision_steps = 500
    assert agent.epsilon == pytest.approx(0.05)


def test_set_epsilon_horizon_only_fills_unset():
    inter = build_standard_intersection(2)
    auto = DQNAgent(inter, AgentConfig(), seed=0)
    auto.set_epsilon_horizon(1000)
    assert auto._decay_steps == int(1000 * EPSILON_DECAY_FRACTION) == 600
    fixed = DQNAgent(inter, AgentConfig(epsilon_decay_steps=42), seed=0)
    fixed.set_epsilon_horizon(1000)
    assert fixed._decay_steps == 42


def test_agent_learn_step_waits_for_batch():
    cfg = AgentConfig(batch_size=4)
    agent = DQNAgent(build_standard_intersection(2), cfg, seed=0)
    s = np.zeros(agent.state_dim)
    assert agent.learn_step() is None
    for _ in range(4):
        agent.remember(s, 0, 0, -1.0, s, 0)
    loss = agent.learn_step()
    assert loss is not None and np.isfinite(loss)
    assert agent.learn_steps == 1


def test_agent_same_seed_same_decisions():
    inter = build_standard_intersection(2)
    s = np.arange(6, dtype=float)
    picks_a = []
    picks_b = []
    for picks, seed in ((picks_a, 3), (picks_b, 3)):
        agent = DQNAgent(inter, AgentConfig(), seed=seed)
        for _ in range(50):
            picks.append(agent.act(s, 0, training=True,
                                   transition_in_progress=False, min_green_met=True))
    assert picks_a == picks_b


def test_epsilon_horizon_survives_a_second_train_call():
    inter = build_standard_intersection(2)
    net = single_intersection_network(inter)
    from greenlight.demand import generate_uniform

    def demand_fn(episode):
        return generate_uniform(400.0, list(inter.lanes), 150.0)

    agent = DQNAgent(inter, AgentConfig(batch_size=8), seed=3)
    train(agent, net, demand_fn, episodes=4, horizon_s=200)
    assert agent._decay_steps == 480  # 0.6 of 4 x 200 decisions
    train(agent, net, demand_fn, episodes=1, horizon_s=200, base_seed=4)
    assert agent._decay_steps == 480


# -- controller bridging -----------------------------------------------------


def zeroed_agent(bias_change: float = 0.0, **cfg_kwargs) -> DQNAgent:
    """Agent whose Q-values are constant: [0, bias_change] for every state."""
    cfg = AgentConfig(epsilon_start=0.0, epsilon_end=0.0, **cfg_kwargs)
    agent = DQNAgent(build_standard_intersection(2), cfg, seed=0)
    for p in agent.qnet.parameters():
        p[...] = 0.0
    agent.qnet.head_b[:, 1] = bias_change
    return agent


def test_controller_records_interval_accumulated_rewards():
    # keep-forever agent; a vehicle on the red NT lane queues from t=30, so
    # the decision interval covering steps 30..32 records reward -3
    agent = zeroed_agent(decision_interval_s=3)
    net = single_intersection_network(agent.intersection)
    demand = [Vehicle(0, 0.0, (lane("NT"),))]
    ctrl = training_controller(agent)
    run_episode(net, [ctrl], demand, horizon_s=36)
    assert len(agent.memory) == 11  # decisions at 0,3,...,33; last pair dropped
    assert agent.memory.rewards[:11].tolist() == [0.0] * 10 + [-3.0]
    assert agent.memory.actions[:11].tolist() == [0] * 11


def test_controller_records_masked_keeps_and_phase_context():
    # change-hungry agent: masked during min-green and transitions, so the
    # recorded stream interleaves forced keeps with accepted changes
    agent = zeroed_agent(bias_change=1.0)
    net = single_intersection_network(agent.intersection)
    ctrl = training_controller(agent)
    run_episode(net, [ctrl], [], horizon_s=16)
    actions = agent.memory.actions[:15].tolist()
    phases = agent.memory.phases[:15].tolist()
    assert actions == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    # the t=10 decision still sees the outgoing phase (activation happens
    # within that step), so phase 1 first appears in the t=11 context
    assert phases == [0] * 11 + [1] * 4


def test_greedy_controller_learns_only_when_online():
    offline = zeroed_agent()
    offline.config.online_learning = False
    net = single_intersection_network(offline.intersection)
    run_episode(net, [greedy_controller(offline)], [], horizon_s=10)
    assert len(offline.memory) == 0

    online = zeroed_agent()
    assert online.config.online_learning
    run_episode(net, [greedy_controller(online)], [], horizon_s=10)
    assert len(online.memory) == 9
    # evaluation decisions never advance the exploration schedule
    assert online.decision_steps == 0


def test_unguided_sampling_uses_fixed_change_probability():
    agent = zeroed_agent(bias_change=100.0)  # Q screams "change"
    agent.config.guided_sampling = False
    agent.config.random_change_prob = 0.0  # ...but the behaviour policy ignores Q
    picks = [
        agent.act(np.zeros(agent.state_dim), 0, training=True,
                  transition_in_progress=False, min_green_met=True)
        for _ in range(30)
    ]
    assert picks == [KEEP] * 30


def test_train_returns_curve_and_decays_epsilon():
    inter = build_standard_intersection(2)
    net = single_intersection_network(inter)
    lanes = list(inter.lanes)
    from greenlight.demand import generate_uniform

    def demand_fn(episode):
        return generate_uniform(120.0, lanes, 200.0)

    agent = DQNAgent(inter, AgentConfig(batch_size=8), seed=1)
    result = train(agent, net, demand_fn, episodes=2, horizon_s=250, base_seed=0)
    assert len(result.curve) == 2
    assert result.curve[0].steps == 250
    assert result.curve[1].steps == 500
    assert result.curve[1].epsilon < result.curve[0].epsilon < 1.0
    assert all(np.isfinite(p.avg_travel_time_s) for p in result.curve)


def test_train_validates_agent_count_and_episodes():
    inter = build_standard_intersection(2)
    net = single_intersection_network(inter)
    agent = DQNAgent(inter, AgentConfig(), seed=0)
    with pytest.raises(ConfigError):
        train([agent, agent], net, lambda e: [], episodes=1, horizon_s=10)
    with pytest.raises(ConfigError):
        train(agent, net, lambda e: [], episodes=0, horizon_s=10)


def test_write_curve_csv_golden():
    import io

    result = TrainingResult(curve=[CurvePoint(0, 300, 40.5, 1.25, 0.5)])
    buf = io.StringIO()
    write_curve_csv(buf, result)
    assert buf.getvalue() == (
        "episode,steps,avg_travel_time_s,mean_loss,epsilon\n"
        "0,300,40.5,1.25,0.5\n"
    )


# -- what training reads ------------------------------------------------------


def trained_pair(**overrides) -> list[tuple[DQNAgent, TrainingResult]]:
    """The same training under online_learning on and off."""
    inter = build_standard_intersection(2)
    net = single_intersection_network(inter)
    from greenlight.demand import ArrivalProcess, generate_uniform

    def demand_fn(episode):
        return generate_uniform(300.0, list(inter.lanes), 240.0,
                                process=ArrivalProcess.POISSON, seed=episode)

    out = []
    for online in (True, False):
        agent = DQNAgent(inter, AgentConfig(batch_size=8, replay_capacity=300,
                                            target_sync_interval=50, online_learning=online,
                                            **overrides), seed=4)
        out.append((agent, train(agent, net, demand_fn, episodes=2, horizon_s=240,
                                 base_seed=9)))
    return out


@pytest.mark.parametrize("overrides", [{}, {"guided_sampling": False}])
def test_online_learning_alone_trains_bit_identical_agents(overrides):
    (on, on_curve), (off, off_curve) = trained_pair(**overrides)
    assert on.config.training_config() == off.config.training_config()
    assert on.memory.insertion_count == 478     # 239 per episode: wrapped past 300
    assert np.array_equal(on.qnet.theta, off.qnet.theta)
    assert np.array_equal(on.target.theta, off.target.theta)
    assert np.array_equal(on.adam.m, off.adam.m) and np.array_equal(on.adam.v, off.adam.v)
    assert on.adam.step_count == off.adam.step_count == on.learn_steps
    assert_same_memory(on.memory, off.memory)
    assert on.action_rng.bit_generator.state == off.action_rng.bit_generator.state
    assert (on.decision_steps, on.learn_steps) == (off.decision_steps, off.learn_steps)
    assert on.drain_episode_losses() == off.drain_episode_losses() == []
    assert [repr(p) for p in on_curve.curve] == [repr(p) for p in off_curve.curve]


# a value other than the default for every setting but online_learning
OTHER_SETTINGS = {
    "gamma": 0.5, "epsilon_start": 0.9, "epsilon_end": 0.1, "epsilon_decay_steps": 100,
    "learning_rate": 0.01, "batch_size": 16, "replay_capacity": 100,
    "target_sync_interval": 10, "decision_interval_s": 2, "hidden_dims": (8,),
    "occupancy_cells": 2, "guided_sampling": False, "forecast": False,
    "random_change_prob": 0.5, "state_mode": "occupancy_only", "reward_mode": "delay",
    "reward_weights": {"queue": 1.0},
}


def test_every_other_setting_changes_the_training_config():
    names = {f.name for f in dataclasses.fields(AgentConfig)}
    assert set(OTHER_SETTINGS) == names - {"online_learning"}
    base = AgentConfig().training_config()
    assert AgentConfig(online_learning=False).training_config() == base
    for name, value in OTHER_SETTINGS.items():
        assert AgentConfig(**{name: value}).training_config() != base, name
