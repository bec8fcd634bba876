"""Value-learning signal agent with a phase-selector Q-network.

The agent observes per-lane vehicle counts plus the active phase, and picks
keep/change actions from a small Q-network whose shared trunk feeds K
phase-specific output heads — one state-action-value map per phase.  Targets
follow the one-step Bellman backup y = r + gamma * max_a' Q_target(s', a'),
regressed with MSE on the taken action only.

Three behavioural switches cover the deployment-style ablations:

* ``online_learning``   — keep learning from greedy-deployment experience.
* ``guided_sampling``   — collect experience epsilon-greedily from the
                          learned policy instead of a fixed Bernoulli
                          change-probability policy.
* ``forecast``          — bootstrap future value (off forces gamma = 0,
                          i.e. purely myopic targets).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, IntersectionConfig, NetworkConfig, Vehicle
from .neural import (
    AdamState,
    DenseNet,
    Layer,
    TrainingError,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from .sim import (
    CHANGE,
    KEEP,
    BaseController,
    ControlContext,
    LaneMeasures,
    Observation,
    StepOutcome,
    run_episode,
)

log = logging.getLogger(__name__)


class StateMode(str, Enum):
    COUNTS_PHASE = "counts_phase"
    COUNTS_PLUS_OCCUPANCY = "counts_plus_occupancy"
    OCCUPANCY_ONLY = "occupancy_only"
    WAITING_PHASE = "waiting_phase"


class RewardMode(str, Enum):
    QUEUE = "queue"
    DELAY = "delay"
    WAITING = "waiting"
    VEHICLES = "vehicles"
    WEIGHTED = "weighted"


@dataclass
class AgentConfig:
    """Hyperparameters and behavioural switches; all conventional defaults."""

    gamma: float = 0.8
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int | None = None  # resolved by train() when unset
    learning_rate: float = 1e-3
    batch_size: int = 32
    replay_capacity: int = 20000
    target_sync_interval: int = 500
    decision_interval_s: int = 1
    hidden_dims: tuple[int, ...] = (32, 32)
    occupancy_cells: int = 4
    online_learning: bool = True
    guided_sampling: bool = True
    forecast: bool = True
    random_change_prob: float = 0.1  # behaviour policy when guided_sampling=False
    state_mode: StateMode = StateMode.COUNTS_PHASE
    reward_mode: RewardMode = RewardMode.QUEUE
    reward_weights: dict[str, float] | None = None

    def __post_init__(self) -> None:
        self.state_mode = StateMode(self.state_mode)
        self.reward_mode = RewardMode(self.reward_mode)
        if not self.forecast:
            self.gamma = 0.0  # no future-reward bootstrapping
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("agent_gamma: gamma must lie in [0, 1]")
        for name in ("epsilon_start", "epsilon_end", "random_change_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"agent_{name}: must lie in [0, 1]")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ConfigError("agent_replay: need capacity >= batch_size >= 1")
        if self.target_sync_interval < 1 or self.decision_interval_s < 1:
            raise ConfigError("agent_intervals: sync and decision intervals >= 1")
        if self.occupancy_cells < 1:
            raise ConfigError("agent_occupancy: occupancy_cells must be >= 1")
        if self.reward_mode is RewardMode.WEIGHTED:
            if not self.reward_weights:
                raise ConfigError("agent_reward: weighted mode needs reward_weights")
            for key in self.reward_weights:
                if RewardMode(key) is RewardMode.WEIGHTED:
                    raise ConfigError("agent_reward: weights cannot nest 'weighted'")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["state_mode"] = self.state_mode.value
        d["reward_mode"] = self.reward_mode.value
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AgentConfig":
        d = dict(d)
        if "hidden_dims" in d:
            d["hidden_dims"] = tuple(d["hidden_dims"])
        return cls(**d)


# ---------------------------------------------------------------------------
# state encoding and rewards


def state_dim(mode: StateMode, lane_count: int, phase_count: int,
              occupancy_cells: int) -> int:
    if mode is StateMode.COUNTS_PHASE or mode is StateMode.WAITING_PHASE:
        return lane_count + phase_count
    if mode is StateMode.COUNTS_PLUS_OCCUPANCY:
        return lane_count + lane_count * occupancy_cells + phase_count
    if mode is StateMode.OCCUPANCY_ONLY:
        return lane_count * occupancy_cells + phase_count
    raise ConfigError(f"state_mode: unknown mode {mode!r}")


def encode_state(
    observation: Observation,
    mode: StateMode,
    phase_count: int,
    *,
    occupancy: np.ndarray | None = None,
    waiting: np.ndarray | None = None,
) -> np.ndarray:
    """Build the network input vector for one observation.

    Layout is counts (or the mode's replacement features) followed by the
    one-hot active phase, so every mode keeps the phase visible to the trunk
    even though head routing also keys on it.
    """
    one_hot = np.zeros(phase_count)
    one_hot[observation.phase_index] = 1.0
    counts = observation.vehicle_counts.astype(float)
    if mode is StateMode.COUNTS_PHASE:
        return np.concatenate([counts, one_hot])
    if mode is StateMode.COUNTS_PLUS_OCCUPANCY:
        if occupancy is None:
            raise ConfigError("encode_state: counts_plus_occupancy needs occupancy aux")
        return np.concatenate([counts, np.asarray(occupancy, dtype=float), one_hot])
    if mode is StateMode.OCCUPANCY_ONLY:
        if occupancy is None:
            raise ConfigError("encode_state: occupancy_only needs occupancy aux")
        return np.concatenate([np.asarray(occupancy, dtype=float), one_hot])
    if mode is StateMode.WAITING_PHASE:
        if waiting is None:
            raise ConfigError("encode_state: waiting_phase needs waiting aux")
        return np.concatenate([np.asarray(waiting, dtype=float), one_hot])
    raise ConfigError(f"state_mode: unknown mode {mode!r}")


def compute_reward(measures: "LaneMeasures | np.ndarray", mode: RewardMode,
                   weights: dict[str, float] | None = None) -> float:
    """Negated cost of the post-movement lane state under the chosen mode.

    ``queue`` is the headline definition (minus the summed queue lengths);
    the alternatives negate summed stopped-fractions (``delay``), summed
    per-vehicle waiting steps (``waiting``), or summed vehicle counts
    (``vehicles``).  ``weighted`` linearly combines any of those.
    """
    if isinstance(measures, np.ndarray):
        if mode is not RewardMode.QUEUE:
            raise ConfigError("compute_reward: bare queue vector only supports queue mode")
        return -float(np.sum(measures))
    mode = RewardMode(mode)
    if mode is RewardMode.QUEUE:
        return -float(measures.queues.sum())
    if mode is RewardMode.DELAY:
        return -float(measures.stopped_fraction.sum())
    if mode is RewardMode.WAITING:
        return -float(measures.waiting_steps.sum())
    if mode is RewardMode.VEHICLES:
        return -float(measures.counts.sum())
    if mode is RewardMode.WEIGHTED:
        if not weights:
            raise ConfigError("compute_reward: weighted mode needs weights")
        return float(sum(
            w * compute_reward(measures, RewardMode(name)) for name, w in weights.items()
        ))
    raise ConfigError(f"reward_mode: unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Q-network: shared trunk + per-phase heads


class QNetwork:
    """Shared embedding trunk routed through one output head per phase.

    All parameters live in one flat float64 vector ``theta``: the trunk's
    (weight, bias) per layer, then the head weights (K, 2, H), then the head
    biases (K, 2).  ``trunk``, ``head_w`` and ``head_b`` are views into it,
    so copying, syncing, optimizing and checkpointing act on ``theta`` alone.
    """

    def __init__(self, input_dim: int, phase_count: int,
                 hidden_dims: Sequence[int] = (32, 32), *,
                 rng: np.random.Generator | None = None) -> None:
        if phase_count < 1:
            raise ConfigError("qnetwork: need at least one phase head")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.phase_count = phase_count
        self.hidden_dims = tuple(hidden_dims)
        dims = [input_dim, *self.hidden_dims]
        trunk = DenseNet.create(dims, ["relu"] * len(self.hidden_dims), rng)
        heads = [DenseNet.create([dims[-1], 2], ["identity"], rng).layers[0]
                 for _ in range(phase_count)]
        self._bind(np.concatenate(
            [p.ravel() for p in trunk.parameters()]
            + [h.weight.ravel() for h in heads] + [h.bias for h in heads]
        ))

    def _split(self, flat: np.ndarray
               ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
        """Views into ``flat``: trunk (weight, bias) pairs, head weights, head biases."""
        dims = [self.input_dim, *self.hidden_dims]
        trunk, at = [], 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            weight = flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in)
            at += weight.size
            trunk.append((weight, flat[at:at + fan_out]))
            at += fan_out
        head_w = flat[at:at + 2 * self.phase_count * dims[-1]].reshape(
            self.phase_count, 2, dims[-1])
        return trunk, head_w, flat[at + head_w.size:].reshape(self.phase_count, 2)

    def _listed(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into ``flat`` in parameters() order."""
        trunk, head_w, head_b = self._split(flat)
        out = [a for pair in trunk for a in pair]
        for k in range(self.phase_count):
            out += [head_w[k], head_b[k]]
        return out

    def _bind(self, theta: np.ndarray) -> None:
        trunk, self.head_w, self.head_b = self._split(theta)
        self.theta = theta
        self.trunk = DenseNet([Layer(w, b, "relu") for w, b in trunk])

    # views do not survive pickling or deep copies; rebuild them on theta
    def __getstate__(self) -> dict:
        return {"input_dim": self.input_dim, "phase_count": self.phase_count,
                "hidden_dims": self.hidden_dims, "theta": self.theta}

    def __setstate__(self, state: dict) -> None:
        self.input_dim = state["input_dim"]
        self.phase_count = state["phase_count"]
        self.hidden_dims = state["hidden_dims"]
        self._bind(state["theta"])

    def parameters(self) -> list[np.ndarray]:
        """Live views: trunk w, b per layer, then head k's (2, H) and (2,) per k."""
        return self._listed(self.theta)

    def parameter_count(self) -> int:
        return self.theta.size

    def copy(self) -> "QNetwork":
        clone = object.__new__(QNetwork)
        clone.__setstate__({**self.__getstate__(), "theta": self.theta.copy()})
        return clone

    def sync_from(self, other: "QNetwork") -> None:
        self.theta[...] = other.theta

    def q_values(self, encoded_state: np.ndarray, phase_index: int) -> np.ndarray:
        """[Q(s, keep), Q(s, change)] through the phase's head."""
        if not 0 <= phase_index < self.phase_count:
            raise ConfigError(f"qnetwork: phase index {phase_index} out of range")
        emb = self.trunk.predict(encoded_state)
        return emb @ self.head_w[phase_index].T + self.head_b[phase_index]

    def q_batch(self, states: np.ndarray, phases: np.ndarray) -> np.ndarray:
        emb = self.trunk.predict(states)
        q = emb @ self.head_w.reshape(-1, emb.shape[1]).T
        rows = np.arange(len(emb))
        return q.reshape(len(emb), self.phase_count, 2)[rows, phases] + self.head_b[phases]

    def loss_and_grads(
        self,
        states: np.ndarray,
        phases: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error on the taken action's Q-value, plus gradients.

        One trunk pass serves the whole batch; each row reads the head slot
        (phase, action) it took.  Gradients are views, aligned with
        parameters(), into one freshly allocated flat vector laid out like
        ``theta``; heads absent from the batch get exactly zero gradient.
        """
        emb, cache = self.trunk.forward(states)
        batch = len(emb)
        rows = np.arange(batch)
        slots = 2 * np.asarray(phases) + np.asarray(actions).astype(int)
        head_w = self.head_w.reshape(-1, emb.shape[1])     # (2K, H)
        diff = (emb @ head_w.T)[rows, slots] + self.head_b.reshape(-1)[slots] - targets
        dq = np.zeros((batch, len(head_w)))
        dq[rows, slots] = 2.0 * diff / batch
        trunk_grads, _ = self.trunk.backward(cache, dq @ head_w)
        grad = np.concatenate(
            [g.ravel() for g in trunk_grads] + [(dq.T @ emb).ravel(), dq.sum(axis=0)]
        )
        return float(diff @ diff) / batch, self._listed(grad)


def bellman_targets(target_net: QNetwork, rewards: np.ndarray,
                    next_states: np.ndarray, next_phases: np.ndarray,
                    gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'); exactly r when gamma = 0."""
    rewards = np.asarray(rewards, dtype=float)
    if gamma == 0.0:
        return rewards.copy()
    future = target_net.q_batch(next_states, next_phases).max(axis=1)
    return rewards + gamma * future


def select_action(q_pair: np.ndarray, epsilon: float,
                  rng: np.random.Generator | None,
                  transition_in_progress: bool, min_green_met: bool) -> int:
    """Masked epsilon-greedy pick; ties resolve to keep."""
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("select_action: epsilon must lie in [0, 1]")
    if transition_in_progress or not min_green_met:
        return KEEP
    if epsilon > 0.0:
        if rng is None:
            raise ConfigError("select_action: exploration needs an rng")
        if rng.random() < epsilon:
            return int(rng.integers(0, 2))
    return CHANGE if q_pair[1] > q_pair[0] else KEEP


# ---------------------------------------------------------------------------
# replay memory


@dataclass
class TransitionBatch:
    states: np.ndarray
    phases: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    next_phases: np.ndarray


class ReplayMemory:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int, state_dim: int,
                 rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ConfigError("replay: capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self.states = np.zeros((capacity, state_dim))
        self.phases = np.zeros(capacity, dtype=np.int64)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.next_phases = np.zeros(capacity, dtype=np.int64)
        self.insertion_count = 0

    def __len__(self) -> int:
        return min(self.insertion_count, self.capacity)

    def push(self, state: np.ndarray, phase: int, action: int, reward: float,
             next_state: np.ndarray, next_phase: int) -> None:
        i = self.insertion_count % self.capacity
        self.states[i] = state
        self.phases[i] = phase
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.next_phases[i] = next_phase
        self.insertion_count += 1

    def sample(self, batch_size: int) -> TransitionBatch:
        size = len(self)
        if size < 1:
            raise ConfigError("replay: cannot sample from an empty memory")
        idx = self.rng.integers(0, size, size=batch_size)
        return TransitionBatch(
            states=self.states[idx],
            phases=self.phases[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            next_states=self.next_states[idx],
            next_phases=self.next_phases[idx],
        )


# ---------------------------------------------------------------------------
# the agent


class DQNAgent:
    """One intersection's learning controller state: networks, memory, rng."""

    def __init__(self, intersection: IntersectionConfig,
                 config: AgentConfig | None = None, *, seed: int = 0) -> None:
        self.intersection = intersection
        self.config = config if config is not None else AgentConfig()
        self.seed = seed
        seqs = np.random.SeedSequence(seed).spawn(3)
        self.init_rng = np.random.default_rng(seqs[0])
        self.action_rng = np.random.default_rng(seqs[1])
        self.state_dim = state_dim(
            self.config.state_mode, intersection.lane_count,
            intersection.phase_count, self.config.occupancy_cells,
        )
        self.qnet = QNetwork(
            self.state_dim, intersection.phase_count,
            self.config.hidden_dims, rng=self.init_rng,
        )
        self.target = self.qnet.copy()
        self.adam = AdamState.for_parameters(self.qnet.theta, self.config.learning_rate)
        self.memory = ReplayMemory(
            self.config.replay_capacity, self.state_dim,
            np.random.default_rng(seqs[2]),
        )
        self.decision_steps = 0   # training decisions taken (drives epsilon)
        self.learn_steps = 0
        self._episode_losses: list[float] = []
        self._decay_steps = self.config.epsilon_decay_steps

    # -- schedule ------------------------------------------------------------

    def set_epsilon_horizon(self, total_training_steps: int,
                            fraction: float = 0.6) -> None:
        """Resolve the linear epsilon ramp against a planned step budget,
        unless the config or a loaded checkpoint already fixed it."""
        if self._decay_steps is None:
            self._decay_steps = max(1, int(total_training_steps * fraction))

    @property
    def epsilon(self) -> float:
        cfg = self.config
        decay = self._decay_steps if self._decay_steps is not None else 10_000
        frac = min(self.decision_steps / max(decay, 1), 1.0)
        return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac

    # -- per-step interface --------------------------------------------------

    def encode(self, observation: Observation, *,
               occupancy_fn: Callable[[int], np.ndarray] | None = None,
               waiting: np.ndarray | None = None) -> np.ndarray:
        mode = self.config.state_mode
        occupancy = None
        if mode in (StateMode.COUNTS_PLUS_OCCUPANCY, StateMode.OCCUPANCY_ONLY):
            if occupancy_fn is None:
                raise ConfigError("encode: state mode needs an occupancy source")
            occupancy = occupancy_fn(self.config.occupancy_cells)
        return encode_state(
            observation, mode, self.intersection.phase_count,
            occupancy=occupancy, waiting=waiting,
        )

    def encode_context(self, ctx: ControlContext) -> np.ndarray:
        return self.encode(
            ctx.observation, occupancy_fn=ctx.occupancy, waiting=ctx.waiting_steps,
        )

    def act(self, encoded_state: np.ndarray, phase_index: int, *,
            training: bool, transition_in_progress: bool,
            min_green_met: bool) -> int:
        if training:
            self.decision_steps += 1
            if not self.config.guided_sampling:
                # undirected collection: fixed change probability, still masked
                if transition_in_progress or not min_green_met:
                    return KEEP
                return CHANGE if self.action_rng.random() < self.config.random_change_prob else KEEP
            epsilon = self.epsilon
        else:
            epsilon = 0.0
        q = self.qnet.q_values(encoded_state, phase_index)
        return select_action(
            q, epsilon, self.action_rng, transition_in_progress, min_green_met,
        )

    def remember(self, state: np.ndarray, phase: int, action: int, reward: float,
                 next_state: np.ndarray, next_phase: int) -> None:
        self.memory.push(state, phase, action, reward, next_state, next_phase)

    def learn_step(self) -> float | None:
        """One batch update toward the Bellman target; None while warming up."""
        cfg = self.config
        if len(self.memory) < cfg.batch_size:
            return None
        batch = self.memory.sample(cfg.batch_size)
        targets = bellman_targets(
            self.target, batch.rewards, batch.next_states, batch.next_phases,
            cfg.gamma,
        )
        loss, grads = self.qnet.loss_and_grads(
            batch.states, batch.phases, batch.actions, targets,
        )
        if not np.isfinite(loss):
            raise TrainingError(f"divergence: loss {loss} at learn step {self.learn_steps}")
        adam_step(self.adam, self.qnet.theta, grads[0].base)  # the views' flat gradient
        self.learn_steps += 1
        if self.learn_steps % cfg.target_sync_interval == 0:
            self.target.sync_from(self.qnet)
        self._episode_losses.append(loss)
        return loss

    def drain_episode_losses(self) -> list[float]:
        out = self._episode_losses
        self._episode_losses = []
        return out

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint networks, optimizer, and schedule state (not replay)."""
        adam = self.adam
        meta = {"kind": "dqn-agent", "agent_config": self.config.to_dict(),
                "seed": self.seed, "decision_steps": self.decision_steps,
                "learn_steps": self.learn_steps, "decay_steps": self._decay_steps,
                "adam": {"learning_rate": adam.learning_rate, "beta1": adam.beta1,
                         "beta2": adam.beta2, "epsilon": adam.epsilon,
                         "step_count": adam.step_count}}
        arrays = {"qnet": self.qnet.theta, "target": self.target.theta,
                  "adam.m": adam.m, "adam.v": adam.v}
        save_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path, intersection: IntersectionConfig) -> "DQNAgent":
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "dqn-agent":
            raise ConfigError(f"checkpoint at {path} is not an agent checkpoint")
        agent = cls(intersection, AgentConfig.from_dict(meta["agent_config"]),
                    seed=meta["seed"])
        expected = agent.qnet.theta.shape
        for key in ("qnet", "target", "adam.m", "adam.v"):
            found = arrays[key].shape if key in arrays else "no array"
            if found != expected:
                raise ConfigError(
                    f"checkpoint at {path}: {key!r} has shape {found}, but this "
                    f"intersection's network has {expected[0]} parameters"
                )
        agent.qnet.theta[...] = arrays["qnet"]
        agent.target.theta[...] = arrays["target"]
        agent.adam = AdamState(**meta["adam"], m=arrays["adam.m"], v=arrays["adam.v"])
        agent.decision_steps = meta["decision_steps"]
        agent.learn_steps = meta["learn_steps"]
        agent._decay_steps = meta["decay_steps"]
        return agent


# ---------------------------------------------------------------------------
# controllers bridging the agent into run_episode


class AgentController(BaseController):
    """Steps one agent through an episode, recording transitions as it goes.

    A transition spans one decision interval: the state at a decision point,
    the action taken, the reward accumulated until the next decision point,
    and the state there.  During signal transitions and min-green windows the
    recorded action is the masked keep.
    """

    def __init__(self, agent: DQNAgent, *, training: bool,
                 learn: bool | None = None) -> None:
        self.agent = agent
        self.training = training
        self.learn = agent.config.online_learning if learn is None else learn
        if training:
            self.learn = True  # the training phase always updates
        self._pending: tuple[np.ndarray, int, int] | None = None
        self._reward_acc = 0.0

    def _is_decision_step(self, clock_s: int) -> bool:
        return clock_s % self.agent.config.decision_interval_s == 0

    def decide(self, ctx: ControlContext) -> int:
        if not self._is_decision_step(ctx.clock_s):
            return KEEP
        state = self.agent.encode_context(ctx)
        phase = ctx.observation.phase_index
        if self._pending is not None and self.learn:
            prev_state, prev_phase, prev_action = self._pending
            self.agent.remember(
                prev_state, prev_phase, prev_action, self._reward_acc, state, phase,
            )
            self.agent.learn_step()
        self._reward_acc = 0.0
        action = self.agent.act(
            state, phase,
            training=self.training,
            transition_in_progress=ctx.in_transition,
            min_green_met=ctx.min_green_met,
        )
        self._pending = (state, phase, action)
        return action

    def after_step(self, outcome: StepOutcome) -> None:
        self._reward_acc += compute_reward(
            outcome.measures, self.agent.config.reward_mode,
            self.agent.config.reward_weights,
        )


def training_controller(agent: DQNAgent) -> AgentController:
    """Experience-collecting controller for the training phase."""
    return AgentController(agent, training=True)


def greedy_controller(agent: DQNAgent) -> AgentController:
    """Deployment controller: greedy actions; learns only if online_learning."""
    return AgentController(agent, training=False)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class CurvePoint:
    episode: int
    steps: int                 # cumulative decision steps at episode end
    avg_travel_time_s: float   # completion-censored episode travel time
    mean_loss: float
    epsilon: float


@dataclass
class TrainingResult:
    curve: list[CurvePoint] = field(default_factory=list)

    def travel_times(self) -> list[float]:
        return [p.avg_travel_time_s for p in self.curve]


def train(
    agents: "DQNAgent | Sequence[DQNAgent]",
    network: NetworkConfig,
    demand_fn: Callable[[int], Sequence[Vehicle]],
    episodes: int,
    horizon_s: int,
    *,
    base_seed: int = 0,
    epsilon_fraction: float = 0.6,
) -> TrainingResult:
    """Run `episodes` training episodes, returning the learning curve.

    ``demand_fn(episode)`` supplies each episode's demand, letting callers
    fix one deterministic pattern or draw fresh stochastic demand per
    episode.  The per-episode travel time is completion-censored: vehicles
    still on a lane at the horizon contribute their waiting so far, so
    starving policies cannot hide unfinished vehicles.
    """
    from .metrics import censored_avg_travel_time  # local import avoids a cycle

    agent_list = [agents] if isinstance(agents, DQNAgent) else list(agents)
    if len(agent_list) != network.intersection_count:
        raise ConfigError(
            f"train: {network.intersection_count} intersections need as many agents"
        )
    if episodes < 1:
        raise ConfigError("train: need at least one episode")
    total_steps = episodes * (horizon_s // agent_list[0].config.decision_interval_s)
    for agent in agent_list:
        agent.set_epsilon_horizon(total_steps, epsilon_fraction)
        agent.drain_episode_losses()

    result = TrainingResult()
    for episode in range(episodes):
        demand = list(demand_fn(episode))
        controllers = [training_controller(a) for a in agent_list]
        outcome = run_episode(
            network, controllers, demand, horizon_s,
            seed=base_seed + episode, collect_queue_traces=False,
        )
        travel = [
            censored_avg_travel_time(log, horizon_s) for log in outcome.travel_logs
        ]
        travel = [t for t in travel if t is not None]
        losses = [l for a in agent_list for l in a.drain_episode_losses()]
        result.curve.append(CurvePoint(
            episode=episode,
            steps=sum(a.decision_steps for a in agent_list) // len(agent_list),
            avg_travel_time_s=float(np.mean(travel)) if travel else float("nan"),
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            epsilon=agent_list[0].epsilon,
        ))
        log.debug(
            "episode %d: travel %.2fs, loss %.4f, eps %.3f",
            episode, result.curve[-1].avg_travel_time_s,
            result.curve[-1].mean_loss, result.curve[-1].epsilon,
        )
    return result


def write_curve_csv(out, result: TrainingResult) -> None:
    """Export `episode,steps,avg_travel_time_s,mean_loss,epsilon`."""
    out.write("episode,steps,avg_travel_time_s,mean_loss,epsilon\n")
    for p in result.curve:
        out.write(
            f"{p.episode},{p.steps},{repr(p.avg_travel_time_s)},"
            f"{repr(p.mean_loss)},{repr(p.epsilon)}\n"
        )
