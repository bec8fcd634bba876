"""Experiment orchestration: build, train, evaluate, and write result CSVs.

The result schema is one row per evaluation episode:

    controller,seed,episode,avg_travel_time_s,avg_queue,throughput,converged_at

``converged_at`` is the training-curve convergence episode for learning
controllers and empty otherwise.  All floats are written with shortest
round-trip repr, so identical configs and seeds reproduce files
byte-for-byte.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .agent import (
    AgentConfig,
    DQNAgent,
    QNetwork,
    TrainingResult,
    greedy_controller,
    train,
    write_curve_csv,
)
from .classic import FixedTimeController, SotlController, WebsterController
from .config import ExperimentConfig, Plan, build_webster_params, resolve, _mix_seed
from .core import ConfigError, NetworkConfig, Vehicle
from .metrics import EpisodeMetrics, check_identity, detect_convergence, pooled_metrics
from .neural import gradient_check
from .sim import BaseController, EpisodeResult, run_episode

RESULTS_HEADER = "controller,seed,episode,avg_travel_time_s,avg_queue,throughput,converged_at"


@dataclass
class ResultRow:
    controller: str
    seed: int
    episode: int
    avg_travel_time_s: float
    avg_queue: float
    throughput: int
    converged_at: int | None

    def csv(self) -> str:
        conv = "" if self.converged_at is None else str(self.converged_at)
        return (
            f"{self.controller},{self.seed},{self.episode},"
            f"{repr(float(self.avg_travel_time_s))},{repr(float(self.avg_queue))},"
            f"{self.throughput},{conv}"
        )


def write_results_csv(path, rows: Sequence[ResultRow]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")


def aggregate_metrics(result: EpisodeResult) -> EpisodeMetrics:
    """Network-level metrics: vehicle-pooled delays, pooled queue totals."""
    return pooled_metrics(result.travel_logs, result.reward_traces)


# ---------------------------------------------------------------------------
# controller factories


def make_classic_controllers(cfg: ExperimentConfig, network: NetworkConfig,
                             kind: str | None = None) -> list[BaseController]:
    kind = kind if kind is not None else cfg.controller.kind
    ctrl = cfg.controller
    out: list[BaseController] = []
    for intersection in network.intersections:
        if kind == "fixedtime":
            out.append(FixedTimeController(ctrl.phase_duration_s))
        elif kind == "sotl":
            out.append(SotlController(
                intersection, theta_red=ctrl.theta_red, theta_green=ctrl.theta_green,
            ))
        elif kind == "webster":
            out.append(WebsterController(
                intersection, build_webster_params(cfg, intersection),
                warmup_phase_s=ctrl.phase_duration_s,
            ))
        else:
            raise ConfigError(f"controller.kind: {kind!r} is not a classic controller")
    return out


def make_agents(network: NetworkConfig, agent_config: AgentConfig, seed: int,
                *, trained: bytes | None = None) -> list[DQNAgent]:
    """One agent per intersection, each seeded from ``seed`` and its index.

    With ``trained``, the pickled agents of a training with this call's
    inputs (the same `AgentConfig.training_config`, network and seed), it
    returns unpickled copies of those instead, each given ``agent_config``,
    which may differ from theirs only in what deployment alone reads.
    """
    if trained is not None:
        agents = pickle.loads(trained)
        for agent in agents:
            agent.config = agent_config
        return agents
    return [
        DQNAgent(intersection, agent_config, seed=_mix_seed(seed, i))
        for i, intersection in enumerate(network.intersections)
    ]


# ---------------------------------------------------------------------------
# evaluation loops


def evaluate(
    network: NetworkConfig,
    controller_factory: Callable[[int], Sequence[BaseController]],
    demand_fn: Callable[[int], Sequence[Vehicle]],
    episodes: int,
    horizon_s: int,
    base_seed: int,
    *,
    check: bool = False,
) -> tuple[list[EpisodeMetrics], list[EpisodeResult]]:
    """Run evaluation episodes; factory is called once per episode.

    With ``check`` set, every fully drained episode must satisfy the exact
    travel-time/queue identity.
    """
    metrics_out, results_out = [], []
    for episode in range(episodes):
        controllers = controller_factory(episode)
        result = run_episode(
            network, controllers, list(demand_fn(episode)), horizon_s,
            seed=_mix_seed(base_seed, episode),
        )
        metrics = aggregate_metrics(result)
        if check and not metrics.empty and metrics.pending == 0 and metrics.vehicles > 0:
            residual = check_identity(metrics)
            if residual != 0:
                raise AssertionError(
                    f"identity violated: episode {episode} residual {residual}"
                )
        metrics_out.append(metrics)
        results_out.append(result)
    return metrics_out, results_out


@dataclass
class SeedOutcome:
    rows: list[ResultRow]
    training: TrainingResult | None
    trained: bytes | None = None   # the agents as training left them, pickled, if kept


def _training_inputs(plan: Plan) -> tuple | None:
    """What training reads from a plan, None for a controller that never
    trains: the agent's training settings, the network and the training
    demand (by identity: sweep points share them), the episode count and the
    horizon.  Points with equal inputs train equal agents for each seed."""
    cfg = plan.cfg
    if cfg.controller.kind != "rl":
        return None
    return (plan.agent.training_config(), id(plan.network), id(plan.train_demand),
            cfg.train.episodes, cfg.train.horizon_s or cfg.run.horizon_s)


def run_seed(plan: Plan, seed: int, *, controller_label: str | None = None,
             check: bool = False, reuse: SeedOutcome | None = None,
             keep_trained: bool = False) -> SeedOutcome:
    """Train (if learning) and evaluate one seed, returning result rows.

    ``reuse``, the kept outcome of this seed under equal training inputs,
    stands in for training: this run deploys copies of its trained agents and
    reports its curve.  ``keep_trained`` keeps this run's trained agents on
    the outcome, pickled before evaluation can change them.
    """
    cfg, network = plan.cfg, plan.network
    ctrl_kind = cfg.controller.kind
    label = controller_label or ctrl_kind
    horizon = cfg.run.horizon_s

    training = trained = None
    converged_at = None
    if ctrl_kind == "rl":
        if reuse is None:
            agents = make_agents(network, plan.agent, seed)
            training = train(agents, network, partial(plan.train_demand.draw, seed),
                             cfg.train.episodes, cfg.train.horizon_s or horizon,
                             base_seed=_mix_seed(seed, 1))
            if keep_trained:
                trained = pickle.dumps(agents, pickle.HIGHEST_PROTOCOL)
        else:
            agents = make_agents(network, plan.agent, seed, trained=reuse.trained)
            training = reuse.training
        converged_at = detect_convergence(training.travel_times()).converged_at
        factory = lambda episode: [greedy_controller(a) for a in agents]
    else:
        factory = lambda episode: make_classic_controllers(cfg, network)

    deploy = partial(plan.deploy_demand.draw, seed)
    metrics, _ = evaluate(
        network, factory, lambda episode: deploy(10_000 + episode),  # held-out draws
        cfg.run.episodes, horizon, _mix_seed(seed, 2), check=check,
    )
    rows = [ResultRow(label, seed, episode, m.avg_travel_time_s, m.avg_queue, m.throughput,
                      converged_at) for episode, m in enumerate(metrics)]
    return SeedOutcome(rows=rows, training=training, trained=trained)


def _run_points(plan: Plan, points: Sequence[tuple[str, Plan]], out_dir: str | None,
                *, check: bool = False) -> tuple[list[ResultRow], list[str]]:
    """Run every seed of every (label, plan) point; writes results.csv, then
    one training curve per learning point and seed.

    Each distinct (training inputs, seed) trains once: the first point with
    those inputs keeps its trained agents until the last point sharing them
    has run that seed, and the later points deploy copies of them.
    """
    out_dir = out_dir if out_dir is not None else plan.cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    rows: list[ResultRow] = []
    written: list[str] = []
    inputs = [_training_inputs(point) for _, point in points]
    # the first point with each point's training inputs
    sources = [j if key is None else inputs.index(key) for j, key in enumerate(inputs)]
    kept: dict[tuple[int, int], SeedOutcome] = {}   # (source point, seed) -> its outcome
    for j, (label, point) in enumerate(points):
        shared_later = sources[j] in sources[j + 1:]
        for seed in plan.cfg.run.seeds:
            key = (sources[j], seed)
            reuse = kept.get(key) if shared_later else kept.pop(key, None)
            outcome = run_seed(point, seed, controller_label=label, check=check,
                               reuse=reuse, keep_trained=reuse is None and shared_later)
            if outcome.trained is not None:
                kept[key] = outcome
            rows.extend(outcome.rows)
            if outcome.training is not None:
                curve_path = os.path.join(out_dir, f"curve_{label}_{seed}.csv")
                with open(curve_path, "w", newline="\n") as fh:
                    write_curve_csv(fh, outcome.training)
                written.append(curve_path)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results_path, rows)
    return rows, [results_path] + written


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   *, check: bool = False) -> tuple[list[ResultRow], list[str]]:
    """Full protocol over all seeds, resolved once before the out dir is
    made; writes results.csv and training curves."""
    plan = resolve(cfg)
    return _run_points(plan, [(cfg.controller.kind, plan)], out_dir, check=check)


# ---------------------------------------------------------------------------
# sweeps


ABLATION_VARIANTS: dict[str, dict] = {
    "rl": {},
    "rl-no-ol": {"online_learning": False},
    "rl-no-sg": {"guided_sampling": False},
    "rl-no-f": {"forecast": False},
}


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None,
              ) -> tuple[list[ResultRow], list[str]]:
    """The configured sweep, resolved once before the first run; each point
    re-resolves only its controller section.

    ``ablation`` runs each behavioural variant of the learning agent;
    ``sotl-grid`` runs SOTL at every pair of the two actuation thresholds.
    """
    plan = resolve(cfg)
    sweep, ctrl = cfg.sweep, cfg.controller
    if sweep.kind == "ablation":
        if ctrl.kind != "rl":
            raise ConfigError("sweep.ablation: controller.kind must be 'rl'")
        controllers = [(label, replace(ctrl, agent={**ctrl.agent, **overrides}))
                       for label, overrides in ABLATION_VARIANTS.items()]
    else:  # sotl-grid
        controllers = [(f"sotl[r={red:g},g={green:g}]",
                        replace(ctrl, kind="sotl", theta_red=red, theta_green=green))
                       for red in sweep.theta_red for green in sweep.theta_green]
    points = []
    for label, controller in controllers:
        try:
            points.append((label, plan.with_controller(controller)))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {label}: {exc}") from None
    return _run_points(plan, points, out_dir)


# ---------------------------------------------------------------------------
# gradient checking over randomized value networks


def gradcheck_qnetworks(count: int = 20, seed: int = 0) -> list:
    """Finite-difference-check `count` random phase-selector networks.

    Each draw randomizes input size, hidden widths, phase count, and a
    random batch through the agent's masked-MSE loss; returns the list of
    GradCheckResult objects.
    """
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(count):
        input_dim = int(rng.integers(4, 15))
        hidden = tuple(int(rng.integers(4, 17)) for _ in range(int(rng.integers(1, 3))))
        phase_count = int(rng.choice([2, 4]))
        qnet = QNetwork(input_dim, phase_count, hidden, rng=np.random.default_rng(rng.integers(2**31)))
        batch = 8
        states = rng.normal(size=(batch, input_dim))
        phases = rng.integers(0, phase_count, size=batch)
        actions = rng.integers(0, 2, size=batch)
        targets = rng.normal(size=batch)

        def relu_pattern(trunk=qnet.trunk, states=states):
            return trunk.relu_pattern(trunk.forward(states)[1])

        results.append(gradient_check(
            qnet.parameters(),
            partial(qnet.loss_and_grads, states, phases, actions, targets),
            rng=np.random.default_rng(rng.integers(2**31)),
            relu_pattern=relu_pattern,
        ))
    return results
