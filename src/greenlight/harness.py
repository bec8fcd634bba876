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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .agent import (
    AgentConfig,
    DQNAgent,
    TrainingResult,
    greedy_controller,
    train,
    write_curve_csv,
)
from .classic import FixedTimeController, SotlController, WebsterController
from .config import (
    ExperimentConfig,
    build_demand_fn,
    build_network,
    build_webster_params,
    _mix_seed,
)
from .core import ConfigError, NetworkConfig, Vehicle
from .metrics import EpisodeMetrics, check_identity, compute_metrics, detect_convergence
from .sim import Controller, EpisodeResult, run_episode

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
    per = [
        compute_metrics(log, result.reward_traces[i])
        for i, log in enumerate(result.travel_logs)
    ]
    live = [m for m in per if not m.empty]
    if len(per) == 1:
        return per[0]
    if not live:
        return per[0]
    total_w = sum(m.total_waiting_events for m in live)
    vehicles = sum(m.vehicles for m in live)
    trace_w = sum(m.trace_waiting_events for m in live)
    firsts = [log.first_entry() for log in result.travel_logs if log.first_entry() is not None]
    lasts = [log.last_departure() for log in result.travel_logs if log.last_departure() is not None]
    tau = (max(lasts) - min(firsts)) if firsts and lasts else 0
    lmu = live[0].free_flow_time_s
    entered = sum(m.entered for m in live)
    cens_num = sum(
        (m.censored_avg_travel_time_s - lmu) * m.entered for m in live
    )
    return EpisodeMetrics(
        avg_travel_time_s=(total_w / vehicles + lmu) if vehicles else float("nan"),
        avg_delay_s=total_w / vehicles if vehicles else float("nan"),
        throughput=vehicles,
        avg_queue=trace_w / tau if tau > 0 else 0.0,
        total_waiting_events=total_w,
        trace_waiting_events=trace_w,
        tau_s=tau,
        vehicles=vehicles,
        entered=entered,
        pending=sum(m.pending for m in live),
        censored_avg_travel_time_s=(cens_num / entered + lmu) if entered else float("nan"),
        free_flow_time_s=lmu,
        empty=False,
    )


# ---------------------------------------------------------------------------
# controller factories


def make_classic_controllers(cfg: ExperimentConfig, network: NetworkConfig,
                             kind: str | None = None) -> list[Controller]:
    kind = kind if kind is not None else cfg.controller.kind
    ctrl = cfg.controller
    out: list[Controller] = []
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


def make_agents(network: NetworkConfig, agent_config: AgentConfig,
                seed: int) -> list[DQNAgent]:
    return [
        DQNAgent(intersection, agent_config, seed=_mix_seed(seed, i))
        for i, intersection in enumerate(network.intersections)
    ]


# ---------------------------------------------------------------------------
# evaluation loops


def evaluate(
    network: NetworkConfig,
    controller_factory: Callable[[int], Sequence[Controller]],
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


def run_seed(
    cfg: ExperimentConfig,
    network: NetworkConfig,
    seed: int,
    *,
    controller_label: str | None = None,
    agent_overrides: dict | None = None,
    check: bool = False,
) -> SeedOutcome:
    """Train (if learning) and evaluate one seed, returning result rows."""
    ctrl_kind = cfg.controller.kind
    label = controller_label or ctrl_kind
    horizon = cfg.run.horizon_s
    demand_fn = build_demand_fn(cfg.demand, network, seed, horizon)
    deploy_fn = (
        build_demand_fn(cfg.deploy_demand, network, seed, horizon)
        if cfg.deploy_demand is not None else demand_fn
    )

    training = None
    converged_at = None
    if ctrl_kind == "rl":
        agent_cfg_dict = dict(cfg.controller.agent)
        if agent_overrides:
            agent_cfg_dict.update(agent_overrides)
        agent_cfg = AgentConfig.from_dict(agent_cfg_dict)
        agents = make_agents(network, agent_cfg, seed)
        train_horizon = cfg.train.horizon_s or horizon
        training = train(
            agents, network, demand_fn, cfg.train.episodes, train_horizon,
            base_seed=_mix_seed(seed, 1),
        )
        converged_at = detect_convergence(training.travel_times()).converged_at
        factory = lambda episode: [greedy_controller(a) for a in agents]
        eval_fn = lambda episode: deploy_fn(10_000 + episode)  # held-out draws
    else:
        factory = lambda episode: make_classic_controllers(cfg, network)
        eval_fn = lambda episode: deploy_fn(10_000 + episode)

    metrics, _ = evaluate(
        network, factory, eval_fn, cfg.run.episodes, horizon,
        _mix_seed(seed, 2), check=check,
    )
    rows = [
        ResultRow(
            controller=label,
            seed=seed,
            episode=episode,
            avg_travel_time_s=m.avg_travel_time_s,
            avg_queue=m.avg_queue,
            throughput=m.throughput,
            converged_at=converged_at,
        )
        for episode, m in enumerate(metrics)
    ]
    return SeedOutcome(rows=rows, training=training)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   *, check: bool = False) -> tuple[list[ResultRow], list[str]]:
    """Full protocol over all seeds; writes results.csv and training curves."""
    out_dir = out_dir if out_dir is not None else cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    network = build_network(cfg)
    rows: list[ResultRow] = []
    written: list[str] = []
    for seed in cfg.run.seeds:
        outcome = run_seed(cfg, network, seed, check=check)
        rows.extend(outcome.rows)
        if outcome.training is not None:
            curve_path = os.path.join(out_dir, f"curve_{cfg.controller.kind}_{seed}.csv")
            with open(curve_path, "w", newline="\n") as fh:
                write_curve_csv(fh, outcome.training)
            written.append(curve_path)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results_path, rows)
    written.insert(0, results_path)
    return rows, written


# ---------------------------------------------------------------------------
# sweeps


ABLATION_VARIANTS: dict[str, dict] = {
    "rl": {},
    "rl-no-ol": {"online_learning": False},
    "rl-no-sg": {"guided_sampling": False},
    "rl-no-f": {"forecast": False},
}


def run_ablation_sweep(cfg: ExperimentConfig, out_dir: str | None = None,
                       ) -> tuple[list[ResultRow], list[str]]:
    """One result block per behavioural variant of the learning agent."""
    if cfg.controller.kind != "rl":
        raise ConfigError("sweep.ablation: controller.kind must be 'rl'")
    out_dir = out_dir if out_dir is not None else cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    network = build_network(cfg)
    rows: list[ResultRow] = []
    written: list[str] = []
    for label, overrides in ABLATION_VARIANTS.items():
        for seed in cfg.run.seeds:
            outcome = run_seed(
                cfg, network, seed,
                controller_label=label, agent_overrides=overrides,
            )
            rows.extend(outcome.rows)
            if outcome.training is not None:
                curve_path = os.path.join(out_dir, f"curve_{label}_{seed}.csv")
                with open(curve_path, "w", newline="\n") as fh:
                    write_curve_csv(fh, outcome.training)
                written.append(curve_path)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results_path, rows)
    written.insert(0, results_path)
    return rows, written


def run_sotl_grid_sweep(cfg: ExperimentConfig, out_dir: str | None = None,
                        ) -> tuple[list[ResultRow], list[str]]:
    """Grid search over the two actuation thresholds."""
    sweep = cfg.sweep or {}
    reds = sweep.get("theta_red", [2.0, 4.0, 6.0])
    greens = sweep.get("theta_green", [1.0, 2.0, 3.0])
    out_dir = out_dir if out_dir is not None else cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    network = build_network(cfg)
    rows: list[ResultRow] = []
    for red in reds:
        for green in greens:
            label = f"sotl[r={red:g},g={green:g}]"
            for seed in cfg.run.seeds:
                horizon = cfg.run.horizon_s
                demand_fn = build_demand_fn(cfg.demand, network, seed, horizon)
                factory = lambda episode: [
                    SotlController(ix, theta_red=red, theta_green=green)
                    for ix in network.intersections
                ]
                metrics, _ = evaluate(
                    network, factory, lambda e: demand_fn(10_000 + e),
                    cfg.run.episodes, horizon, _mix_seed(seed, 2),
                )
                rows.extend(
                    ResultRow(label, seed, i, m.avg_travel_time_s, m.avg_queue,
                              m.throughput, None)
                    for i, m in enumerate(metrics)
                )
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results_path, rows)
    return rows, [results_path]


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None,
              ) -> tuple[list[ResultRow], list[str]]:
    kind = (cfg.sweep or {}).get("kind", "ablation")
    if kind == "ablation":
        return run_ablation_sweep(cfg, out_dir)
    if kind == "sotl-grid":
        return run_sotl_grid_sweep(cfg, out_dir)
    raise ConfigError(f"sweep.kind: unknown sweep {kind!r}")


# ---------------------------------------------------------------------------
# gradient checking over randomized value networks


def gradcheck_qnetworks(count: int = 20, seed: int = 0,
                        max_params: int = 1000) -> list:
    """Finite-difference-check `count` random phase-selector networks.

    Each draw randomizes input size, hidden widths, phase count, and a
    random batch through the agent's masked-MSE loss; returns the list of
    GradCheckResult objects.
    """
    from .agent import QNetwork
    from .neural import gradient_check

    rng = np.random.default_rng(seed)
    results = []
    for _ in range(count):
        while True:
            input_dim = int(rng.integers(4, 15))
            hidden = tuple(int(rng.integers(4, 17)) for _ in range(int(rng.integers(1, 3))))
            phase_count = int(rng.choice([2, 4]))
            probe = QNetwork(input_dim, phase_count, hidden, rng=np.random.default_rng(rng.integers(2**31)))
            if probe.parameter_count() <= max_params:
                qnet = probe
                break
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
