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
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, IntersectionConfig, NetworkConfig, Vehicle
from .metrics import censored_avg_travel_time
from .neural import (
    AdamState,
    DenseNet,
    Layer,
    TrainingError,
    adam_step,
)
from .sim import (
    CHANGE,
    KEEP,
    BaseController,
    StepView,
    run_episode,
)

log = logging.getLogger(__name__)

EPSILON_DECAY_FRACTION = 0.6  # share of the training steps over which epsilon ramps down


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
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError("agent_hidden_dims: need at least one hidden layer, "
                              "each of width >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("agent_learning_rate: must be > 0")
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

    def training_config(self) -> "AgentConfig":
        """The settings training reads: this config with ``online_learning``
        on.  Training always learns (`AgentController` forces it) and only
        deployment reads the switch, so two configs with equal training
        configs train the same agents from the same seed."""
        return replace(self, online_learning=True)

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


def compute_reward(view: StepView, mode: RewardMode,
                   weights: dict[str, float] | None = None) -> float:
    """Negated cost of the post-movement lane state under the chosen mode.

    ``queue`` is the headline definition (minus the summed queue lengths);
    the alternatives negate summed stopped-fractions (``delay``), summed
    per-vehicle waiting steps (``waiting``), or summed vehicle counts
    (``vehicles``).  ``weighted`` linearly combines any of those.
    """
    mode = RewardMode(mode)
    if mode is RewardMode.QUEUE:
        return -float(sum(view.queues))
    if mode is RewardMode.DELAY:
        return -float(view.stopped_fraction.sum())
    if mode is RewardMode.WAITING:
        return -float(sum(view.waiting_steps))
    if mode is RewardMode.VEHICLES:
        return -float(sum(view.counts))
    if mode is RewardMode.WEIGHTED:
        if not weights:
            raise ConfigError("compute_reward: weighted mode needs weights")
        return float(sum(
            w * compute_reward(view, RewardMode(name)) for name, w in weights.items()
        ))
    raise ConfigError(f"reward_mode: unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Q-network: shared trunk + per-phase heads


class QNetwork:
    """Shared embedding trunk routed through one output head per phase.

    All parameters live in one flat float64 vector ``theta``: the trunk's
    (weight, bias) per layer, then the head weights (K, 2, H), then the head
    biases (K, 2).  ``trunk``, ``head_w`` and ``head_b`` are views into it,
    so copying, syncing and optimizing act on ``theta`` alone.
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

    def _pieces(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into ``flat``: trunk weight and bias per layer, head weights, head biases."""
        return [flat[at:at + size].reshape(shape) for at, size, shape in self._layout]

    def _listed(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into ``flat`` in parameters() order."""
        *out, head_w, head_b = self._pieces(flat)
        for pair in zip(head_w, head_b):
            out += pair
        return out

    def _bind(self, theta: np.ndarray) -> None:
        """Lay out the pieces once: (offset, size, shape) of each in theta order.

        The views the update path multiplies by are taken here too, each a
        view of ``theta``: per trunk layer its weight, the weight's transpose
        and its bias, and the heads as one (2K, H) matrix, its transpose,
        each phase's (H, 2) transpose and the (2K,) biases.
        """
        dims = [self.input_dim, *self.hidden_dims]
        shapes = [s for fan_in, fan_out in zip(dims, dims[1:])
                  for s in ((fan_out, fan_in), (fan_out,))]
        shapes += [(self.phase_count, 2, dims[-1]), (self.phase_count, 2)]
        self._layout, at = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            self._layout.append((at, size, shape))
            at += size
        *trunk, self.head_w, self.head_b = self._pieces(theta)
        self.theta = theta
        self.trunk = DenseNet([Layer(w, b, "relu") for w, b in zip(trunk[::2], trunk[1::2])])
        self._layers = [(w, w.T, b) for w, b in zip(trunk[::2], trunk[1::2])]
        self._head_w2 = self.head_w.reshape(-1, dims[-1])
        self._head_w2_t = self._head_w2.T
        self._head_w_t = [w.T for w in self.head_w]
        self._head_b2 = self.head_b.reshape(-1)
        self._row_starts: dict[int, np.ndarray] = {}  # batch size -> 0, K, 2K, ...
        self._out_grads: tuple = (None, None)  # last `out` of loss_and_grads, its views

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

    def copy(self) -> "QNetwork":
        clone = object.__new__(QNetwork)
        clone.__setstate__({**self.__getstate__(), "theta": self.theta.copy()})
        return clone

    def sync_from(self, other: "QNetwork") -> None:
        self.theta[...] = other.theta

    def _embed(self, x: np.ndarray) -> np.ndarray:
        """Trunk output for a (B, D) batch: relu(x @ W.T + b) per layer."""
        for _, w_t, b in self._layers:
            x = x.dot(w_t)
            x += b
            np.maximum(x, 0.0, out=x)
        return x

    def _rows(self, batch: int) -> np.ndarray:
        """0, K, 2K, ...: the first row of each batch row's K head rows."""
        rows = self._row_starts.get(batch)
        if rows is None:
            rows = self._row_starts[batch] = np.arange(batch) * self.phase_count
        return rows

    def q_values(self, encoded_state: np.ndarray, phase_index: int) -> np.ndarray:
        """[Q(s, keep), Q(s, change)] through the phase's head."""
        if not 0 <= phase_index < self.phase_count:
            raise ConfigError(f"qnetwork: phase index {phase_index} out of range")
        # the trunk sees a (1, D) matrix: a matrix-vector product may round differently
        q = self._embed(encoded_state[None, :])[0].dot(self._head_w_t[phase_index])
        q += self.head_b[phase_index]
        return q

    def q_batch(self, states: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """(B, 2) Q-values, row i through head ``phases[i]``.

        Each phase must lie in [0, K): the rows are gathered by flat index,
        so an out-of-range phase is not caught here.
        """
        q = self._embed(states).dot(self._head_w2_t)        # (B, 2K): every head
        q += self._head_b2
        # as (B*K, 2) rows, row i's phase pair is row i*K + phases[i]
        return q.reshape(-1, 2).take(self._rows(len(q)) + phases, axis=0)

    def _grad_views(self, flat: np.ndarray) -> tuple:
        """Views into ``flat``: (weight, bias) per trunk layer, then the head
        weights as (2K, H) and the head biases as (2K,)."""
        *trunk, head_w, head_b = self._pieces(flat)
        return (list(zip(trunk[::2], trunk[1::2])), head_w.reshape(self._head_w2.shape),
                head_b.reshape(-1))

    def loss_and_grads(
        self,
        states: np.ndarray,
        phases: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[float, list[np.ndarray] | np.ndarray]:
        """Mean squared error on the taken action's Q-value, plus gradients.

        One trunk pass serves the whole batch; each row reads the head slot
        (phase, action) it took.  Each gradient piece is written straight
        into a flat vector laid out like ``theta``; heads absent from the
        batch get exactly zero gradient.  With ``out`` (a flat vector the
        size of ``theta``) the gradient overwrites it and ``out`` is
        returned; without it a fresh vector is made, and its views, aligned
        with parameters(), are returned, so a caller may keep them across
        calls.  As in q_batch, each phase must lie in [0, K).
        """
        acts = [states]                  # input of each trunk layer, then the embedding
        for _, w_t, b in self._layers:
            z = acts[-1].dot(w_t)
            z += b
            acts.append(np.maximum(z, 0.0, out=z))
        emb = acts[-1]
        batch = len(emb)
        q = emb.dot(self._head_w2_t)                       # (B, 2K): every head slot
        q += self._head_b2
        # row i's taken slot as an index into q.ravel(): 2 * (i*K + phase) + action
        taken = self._rows(batch) + phases
        taken *= 2
        taken += actions
        diff = q.take(taken)
        diff -= targets
        dq = np.zeros(q.shape)
        scaled = np.multiply(diff, 2.0)
        scaled /= batch
        dq.put(taken, scaled)
        if out is None:
            grad = np.empty(self.theta.size)
            trunk_grads, head_w_grad, head_b_grad = self._grad_views(grad)
        else:
            if self._out_grads[0] is not out:  # learn steps pass the same vector
                self._out_grads = (out, self._grad_views(out))
            grad, (trunk_grads, head_w_grad, head_b_grad) = self._out_grads
        dq.T.dot(emb, head_w_grad)
        np.add.reduce(dq, 0, out=head_b_grad)
        g = dq.dot(self._head_w2)
        for i in range(len(self._layers) - 1, -1, -1):
            g *= acts[i + 1] > 0         # relu'(z) = [z > 0] = [relu(z) > 0]
            w_grad, b_grad = trunk_grads[i]
            g.T.dot(acts[i], w_grad)
            np.add.reduce(g, 0, out=b_grad)
            if i:                        # the input's own gradient is never read
                g = g.dot(self._layers[i][0])
        loss = float(diff.dot(diff)) / batch
        return loss, (self._listed(grad) if out is None else out)


def bellman_targets(target_net: QNetwork, rewards: np.ndarray,
                    next_states: np.ndarray, next_phases: np.ndarray,
                    gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'); exactly r when gamma = 0."""
    rewards = np.asarray(rewards, dtype=float)
    if gamma == 0.0:
        return rewards.copy()
    q = target_net.q_batch(next_states, next_phases)
    future = np.maximum(q[:, 0], q[:, 1])
    future *= gamma
    future += rewards                # r + gamma * max: addition commutes exactly
    return future


def select_action(q_pair: Callable[[], np.ndarray], epsilon: float,
                  rng: np.random.Generator | None,
                  transition_in_progress: bool, min_green_met: bool) -> int:
    """Masked epsilon-greedy pick; ties resolve to keep.

    The masks come first, then the exploration draw, then the greedy
    comparison.  ``q_pair`` returns [Q(s, keep), Q(s, change)]; it is called
    only when the greedy comparison is reached, so a masked or exploring
    step runs no forward pass.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("select_action: epsilon must lie in [0, 1]")
    if transition_in_progress or not min_green_met:
        return KEEP
    if epsilon > 0.0:
        if rng is None:
            raise ConfigError("select_action: exploration needs an rng")
        if rng.random() < epsilon:
            return int(rng.integers(0, 2))
    q = q_pair()
    return CHANGE if q[1] > q[0] else KEEP


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
    """Fixed-capacity ring buffer with uniform sampling.

    The phase, action and next phase share one (3, capacity) array, so a
    sample is four gathers: states, next states, the integers and the
    rewards.  States and next states stay two arrays: as one
    (2, capacity, D) array they raised a short run's peak resident memory
    by about 11 MiB, since numpy asks for huge pages on arrays of 4 MiB or
    more.
    """

    def __init__(self, capacity: int, state_dim: int,
                 rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ConfigError("replay: capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self.states = np.zeros((capacity, state_dim))
        self.next_states = np.zeros((capacity, state_dim))
        self._ints = np.zeros((3, capacity), dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.insertion_count = 0

    # views are taken on each read, so copies and pickles need no rebinding
    phases = property(lambda self: self._ints[0])
    actions = property(lambda self: self._ints[1])
    next_phases = property(lambda self: self._ints[2])

    # a pickle or deep copy holds the filled rows only; restoring pads them
    # back to capacity with the zeros an unfilled row holds
    def __getstate__(self) -> dict:
        size = len(self)
        return {"capacity": self.capacity, "rng": self.rng,
                "insertion_count": self.insertion_count, "states": self.states[:size],
                "next_states": self.next_states[:size], "ints": self._ints[:, :size],
                "rewards": self.rewards[:size]}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["capacity"], state["states"].shape[1], state["rng"])
        size = len(state["rewards"])
        self.states[:size] = state["states"]
        self.next_states[:size] = state["next_states"]
        self._ints[:, :size] = state["ints"]
        self.rewards[:size] = state["rewards"]
        self.insertion_count = state["insertion_count"]

    def __len__(self) -> int:
        return min(self.insertion_count, self.capacity)

    def push(self, state: np.ndarray, phase: int, action: int, reward: float,
             next_state: np.ndarray, next_phase: int) -> None:
        i = self.insertion_count % self.capacity
        self.states[i] = state
        self.next_states[i] = next_state
        ints = self._ints
        ints[0, i] = phase
        ints[1, i] = action
        ints[2, i] = next_phase
        self.rewards[i] = reward
        self.insertion_count += 1

    def sample(self, batch_size: int) -> TransitionBatch:
        size = len(self)
        if size < 1:
            raise ConfigError("replay: cannot sample from an empty memory")
        idx = self.rng.integers(0, size, size=batch_size)
        ints = self._ints.take(idx, axis=1)
        return TransitionBatch(self.states.take(idx, axis=0), ints[0], ints[1],
                               self.rewards[idx], self.next_states.take(idx, axis=0), ints[2])


# ---------------------------------------------------------------------------
# the agent


class DQNAgent:
    """One intersection's learning controller state: networks, memory, rng."""

    def __init__(self, intersection: IntersectionConfig,
                 config: AgentConfig | None = None, *, seed: int = 0) -> None:
        self.intersection = intersection
        self.config = config if config is not None else AgentConfig()
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
        self._grad = np.empty_like(self.qnet.theta)  # every learn step's gradient
        self.memory = ReplayMemory(
            self.config.replay_capacity, self.state_dim,
            np.random.default_rng(seqs[2]),
        )
        self.decision_steps = 0   # training decisions taken (drives epsilon)
        self.learn_steps = 0
        self._episode_losses: list[float] = []
        self._decay_steps = self.config.epsilon_decay_steps

    # -- schedule ------------------------------------------------------------

    def set_epsilon_horizon(self, total_training_steps: int) -> None:
        """Resolve the linear epsilon ramp to the first EPSILON_DECAY_FRACTION
        of a planned step budget, unless the config or an earlier call
        already fixed it."""
        if self._decay_steps is None:
            self._decay_steps = max(1, int(total_training_steps * EPSILON_DECAY_FRACTION))

    @property
    def epsilon(self) -> float:
        cfg = self.config
        decay = self._decay_steps if self._decay_steps is not None else 10_000
        frac = min(self.decision_steps / max(decay, 1), 1.0)
        return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac

    # -- per-step interface --------------------------------------------------

    def encode(self, view: StepView) -> np.ndarray:
        """Build the network input vector for one step view.

        Layout is counts (or the mode's replacement features) followed by the
        one-hot active phase, so every mode keeps the phase visible to the trunk
        even though head routing also keys on it.
        """
        mode = self.config.state_mode
        one_hot = [0] * self.intersection.phase_count
        one_hot[view.phase_index] = 1
        if mode is StateMode.COUNTS_PHASE:
            return np.array([*view.counts, *one_hot], dtype=float)
        if mode is StateMode.WAITING_PHASE:
            return np.array([*view.waiting_steps, *one_hot], dtype=float)
        occupancy = view.occupancy(self.config.occupancy_cells)
        if mode is StateMode.COUNTS_PLUS_OCCUPANCY:
            return np.concatenate([view.counts, occupancy, one_hot]).astype(float)
        if mode is StateMode.OCCUPANCY_ONLY:
            return np.concatenate([occupancy, one_hot]).astype(float)
        raise ConfigError(f"state_mode: unknown mode {mode!r}")

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
        return select_action(
            partial(self.qnet.q_values, encoded_state, phase_index), epsilon,
            self.action_rng, transition_in_progress, min_green_met,
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
        loss, grad = self.qnet.loss_and_grads(
            batch.states, batch.phases, batch.actions, targets, out=self._grad,
        )
        if not math.isfinite(loss):
            raise TrainingError(f"divergence: loss {loss} at learn step {self.learn_steps}")
        adam_step(self.adam, self.qnet.theta, grad)
        self.learn_steps += 1
        if self.learn_steps % cfg.target_sync_interval == 0:
            self.target.sync_from(self.qnet)
        self._episode_losses.append(loss)
        return loss

    def drain_episode_losses(self) -> list[float]:
        out = self._episode_losses
        self._episode_losses = []
        return out


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

    def decide(self, view: StepView) -> int:
        if not self._is_decision_step(view.clock_s):
            return KEEP
        state = self.agent.encode(view)
        phase = view.phase_index
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
            transition_in_progress=view.in_transition,
            min_green_met=view.min_green_met,
        )
        self._pending = (state, phase, action)
        return action

    def after_step(self, view: StepView) -> None:
        cfg = self.agent.config
        if cfg.reward_mode is RewardMode.QUEUE:
            self._reward_acc += view.reward  # the simulator's -sum(queued)
        else:
            self._reward_acc += compute_reward(view, cfg.reward_mode, cfg.reward_weights)


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
) -> TrainingResult:
    """Run `episodes` training episodes, returning the learning curve.

    ``demand_fn(episode)`` supplies each episode's demand, letting callers
    fix one deterministic pattern or draw fresh stochastic demand per
    episode.  The per-episode travel time is completion-censored: vehicles
    still on a lane at the horizon contribute their waiting so far, so
    starving policies cannot hide unfinished vehicles.
    """
    agent_list = [agents] if isinstance(agents, DQNAgent) else list(agents)
    if len(agent_list) != network.intersection_count:
        raise ConfigError(
            f"train: {network.intersection_count} intersections need as many agents"
        )
    if episodes < 1:
        raise ConfigError("train: need at least one episode")
    total_steps = episodes * (horizon_s // agent_list[0].config.decision_interval_s)
    for agent in agent_list:
        agent.set_epsilon_horizon(total_steps)
        agent.drain_episode_losses()

    result = TrainingResult()
    for episode in range(episodes):
        demand = list(demand_fn(episode))
        controllers = [training_controller(a) for a in agent_list]
        outcome = run_episode(network, controllers, demand, horizon_s,
                              seed=base_seed + episode)
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
