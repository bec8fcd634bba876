"""The three workloads: generated inputs, one timed round, and its checks.

Each workload builds its inputs from the run seed only and drives greenlight
through its public API.  ``run`` is one round, timed with ``clock``, and
returns a ``Round`` holding the timings and the outputs, which ``digest``
hashes and ``check`` verifies.  ``setup`` does what a round does before its first simulated
second, then simulates that second.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import checks

CLASSIC_KINDS = ("fixedtime", "sotl", "webster")
DRAINED_KINDS = ("fixedtime", "webster")  # SOTL's threshold leaves vehicles queued

GRID = {"rows": 3, "cols": 3, "rate_vph": 500.0, "demand_end_s": 3000, "horizon_s": 3600}
RL4 = {"through_vph": 300.0, "left_vph": 120.0, "train_episodes": 2, "horizon_s": 1200,
       "deploy_horizon_s": 600, "occupancy_cells": 4}
SWEEP = {"rate_vph": 300.0, "seeds": 2, "train_episodes": 2, "horizon_s": 600,
         "eval_episodes": 1}
FD_COORDS_PER_ARRAY = 6
HELD_OUT_EPISODE = 10_000  # the harness evaluates on demand draws from this index on
# rl-4phase-occupancy trains the same agent on the same demand in every run:
# the policy sets the queue lengths, and with them the cost of the occupancy
# encoding (greedy rates ranged 1.9k-7.0k steps/s over ten training seeds).
# The run seed draws the held-out deployment demand.
TRAINING_SEED = 0


@dataclass
class Round:
    wall_s: float
    steps: int                 # intersection-seconds simulated
    episodes: int
    deploy_steps: int          # intersection-seconds of evaluation / greedy episodes
    deploy_s: float
    train_decisions: int
    train_s: float
    outputs: dict[str, Any] = field(default_factory=dict)


def _free_flow_steps(intersection) -> int:
    return math.ceil(intersection.road_length_m / intersection.free_flow_speed_mps - 1e-9)


def _routes(demand) -> tuple[dict, dict]:
    routes = {v.id: tuple((lane.intersection, lane.label) for lane in v.route) for v in demand}
    entries = {v.id: checks.entry_step(v.entry_time_s) for v in demand}
    return routes, entries


def _episode_parts(result) -> list:
    parts: list = [result.horizon_s, result.network_departures, list(result.ignored_actions)]
    for i, log in enumerate(result.travel_logs):
        parts += [result.reward_traces[i], result.phase_traces[i], result.queue_traces[i],
                  sorted(checks.log_table(log).items())]
    return parts


def _episode_checks(result, network, demand, where: str) -> tuple[list[str], dict]:
    """Accounting per intersection, then conservation over the network."""
    tables = [checks.log_table(log) for log in result.travel_logs]
    errors = []
    for i, table in enumerate(tables):
        errors += checks.check_accounting(result.reward_traces[i], table, result.horizon_s,
                                          f"{where} intersection {i}")
    routes, entries = _routes(demand)
    conservation, counts = checks.check_conservation(
        routes, entries, tables, [_free_flow_steps(x) for x in network.intersections],
        network.link_travel_time_s, result.horizon_s, result.network_departures)
    return errors + [f"{where}: {e}" for e in conservation], counts


def _agent_checks(gl, agent, decisions: int, learning_decisions: int,
                  learning_episodes: int, rng: np.random.Generator, where: str) -> list[str]:
    """Decision and learn-step counts, finite losses, finite-difference gradient."""
    errors = []
    if agent.decision_steps != decisions:
        errors.append(f"{where}: {agent.decision_steps} training decisions, expected {decisions}")
    errors += checks.check_learn_steps(agent.learn_steps, learning_decisions,
                                       learning_episodes, agent.config.batch_size, where)
    errors += checks.check_finite(agent.drain_episode_losses(), f"{where} losses")
    batch = agent.memory.sample(agent.config.batch_size)
    targets = gl.agent.bellman_targets(agent.target, batch.rewards, batch.next_states,
                                       batch.next_phases, agent.config.gamma)
    params = agent.qnet.parameters()
    coords = [(pi, int(fi)) for pi, p in enumerate(params)
              for fi in rng.choice(p.size, size=min(p.size, FD_COORDS_PER_ARRAY), replace=False)]

    def loss_and_grads():
        loss, grads, *_ = agent.qnet.loss_and_grads(batch.states, batch.phases,
                                                    batch.actions, targets)
        return loss, grads

    fd_errors, _ = checks.fd_gradient_check(loss_and_grads, params, coords)
    return errors + [f"{where}: {e}" for e in fd_errors]


# ---------------------------------------------------------------------------


class GridClassic:
    """Fixed-time, SOTL and Webster on a 3x3 grid, through harness.evaluate."""

    name = "grid-classic"

    def __init__(self, gl, seed: int, out_dir: str, clock=time.perf_counter) -> None:
        self.gl, self.seed, self.clock = gl, seed, clock

    def config(self) -> dict:
        return {
            "network": {"kind": "grid", "rows": GRID["rows"], "cols": GRID["cols"], "phases": 2},
            "demand": {"kind": "uniform", "rate_vph": GRID["rate_vph"], "process": "poisson",
                       "seed": self.seed},
            "controller": {"kind": "fixedtime"},
            "run": {"horizon_s": GRID["horizon_s"], "seeds": [self.seed]},
        }

    def _build(self):
        cfg = self.gl.config.parse_config(self.config())
        network = self.gl.config.build_network(cfg)
        # demand stops GRID["demand_end_s"] in, so fixed-time and Webster drain
        demand_fn = self.gl.config.build_demand_fn(cfg.demand, network, self.seed,
                                                   GRID["demand_end_s"])
        return cfg, network, list(demand_fn(0))

    def setup(self) -> None:
        cfg, network, demand = self._build()
        controllers = self.gl.harness.make_classic_controllers(cfg, network, CLASSIC_KINDS[0])
        self.gl.sim.run_episode(network, controllers, demand, 1, seed=self.seed)

    def run(self) -> Round:
        gl, horizon = self.gl, GRID["horizon_s"]
        start = self.clock()
        cfg, network, demand = self._build()
        episodes, deploy_s = {}, 0.0
        for kind in CLASSIC_KINDS:
            t = self.clock()
            metrics, results = gl.harness.evaluate(
                network, lambda e, k=kind: gl.harness.make_classic_controllers(cfg, network, k),
                lambda e: demand, 1, horizon, self.seed)
            deploy_s += self.clock() - t
            episodes[kind] = (metrics[0], results[0])
        wall = self.clock() - start
        steps = len(CLASSIC_KINDS) * network.intersection_count * horizon
        return Round(wall, steps, len(CLASSIC_KINDS), steps, deploy_s, 0, 0.0,
                     {"network": network, "demand": demand, "episodes": episodes})

    def digest(self, rnd: Round) -> str:
        parts = []
        for kind, (metrics, result) in rnd.outputs["episodes"].items():
            parts += [kind, repr(vars(metrics))] + _episode_parts(result)
        return checks.digest(parts)

    def check(self, rnd: Round) -> list[str]:
        """Every episode: accounting and conservation.  Drained ones: the
        identity per intersection and pooled, and the departure replay."""
        out = rnd.outputs
        network, demand = out["network"], out["demand"]
        errors = []
        for kind, (metrics, result) in out["episodes"].items():
            where = f"{kind} episode"
            errs, counts = _episode_checks(result, network, demand, where)
            if kind in DRAINED_KINDS:
                errs += self._drained_checks(metrics, result, counts, network, demand, where)
            errors += errs
        return errors

    def _drained_checks(self, metrics, result, counts, network, demand, where) -> list[str]:
        if counts["on_lane"] or counts["in_link"]:
            return [f"{where}: {counts['on_lane']} vehicles on lanes and {counts['in_link']} "
                    "in links at the horizon; this episode is meant to drain"]
        identity = self.gl.metrics
        errors = []
        residual = identity.check_identity(metrics)
        if residual != 0:
            errors.append(f"{where}: pooled identity residual {residual}")
        lanes: dict[int, dict[int, str]] = {}
        for v in demand:
            for lane in v.route:
                lanes.setdefault(lane.intersection, {})[v.id] = lane.label
        for i, (log, node) in enumerate(zip(result.travel_logs, network.intersections)):
            per = identity.compute_metrics(log, result.reward_traces[i])
            residual = identity.check_identity(per) if per.vehicles else 0
            if residual != 0:
                errors.append(f"{where} intersection {i}: identity residual {residual}")
            green = [frozenset(l.label for l in phase.green_lanes) for phase in node.phases]
            errors += checks.check_replay(
                result.phase_traces[i], checks.log_table(log), lanes.get(i, {}), green,
                node.yellow_s + node.all_red_s, node.saturation_headway_s,
                f"{where} intersection {i}")
        return errors


class Rl4PhaseOccupancy:
    """One DQN agent on a 4-phase intersection with the occupancy state:
    agent.train, then a greedy run_episode with online learning off."""

    name = "rl-4phase-occupancy"

    def __init__(self, gl, seed: int, out_dir: str, clock=time.perf_counter) -> None:
        self.gl, self.seed, self.clock = gl, seed, clock

    def config(self) -> dict:
        rates = {f"0:{a}T": RL4["through_vph"] for a in "WENS"}
        rates.update({f"0:{a}L": RL4["left_vph"] for a in "WENS"})
        demand = {"kind": "uniform", "rate_vph": rates, "process": "poisson"}
        return {
            "network": {"kind": "single", "phases": 4},
            "demand": {**demand, "seed": TRAINING_SEED},
            "deploy_demand": {**demand, "seed": self.seed},
            "controller": {"kind": "rl", "agent": {
                "state_mode": "counts_plus_occupancy",
                "occupancy_cells": RL4["occupancy_cells"], "online_learning": False}},
            "run": {"horizon_s": RL4["horizon_s"], "seeds": [self.seed]},
            "train": {"episodes": RL4["train_episodes"]},
        }

    def _build(self):
        gl = self.gl
        cfg = gl.config.parse_config(self.config())
        network = gl.config.build_network(cfg)
        horizon = RL4["horizon_s"]
        train_fn = gl.config.build_demand_fn(cfg.demand, network, TRAINING_SEED, horizon)
        deploy_fn = gl.config.build_demand_fn(cfg.deploy_demand, network, self.seed,
                                              RL4["deploy_horizon_s"])
        agent = gl.agent.DQNAgent(network.intersections[0],
                                  gl.agent.AgentConfig.from_dict(cfg.controller.agent),
                                  seed=TRAINING_SEED)
        return network, train_fn, deploy_fn, agent

    def setup(self) -> None:
        network, train_fn, _, agent = self._build()
        self.gl.sim.run_episode(network, [self.gl.agent.training_controller(agent)],
                                list(train_fn(0)), 1, seed=TRAINING_SEED)

    def run(self) -> Round:
        gl, horizon, episodes = self.gl, RL4["horizon_s"], RL4["train_episodes"]
        start = self.clock()
        network, train_fn, deploy_fn, agent = self._build()
        t = self.clock()
        training = gl.agent.train(agent, network, train_fn, episodes, horizon,
                                  base_seed=TRAINING_SEED)
        train_s = self.clock() - t
        demand = list(deploy_fn(HELD_OUT_EPISODE))
        deploy_horizon = RL4["deploy_horizon_s"]
        t = self.clock()
        result = gl.sim.run_episode(network, [gl.agent.greedy_controller(agent)], demand,
                                    deploy_horizon, seed=self.seed)
        greedy_s = self.clock() - t
        wall = self.clock() - start
        return Round(wall, episodes * horizon + deploy_horizon, episodes + 1, deploy_horizon,
                     greedy_s,
                     agent.decision_steps, train_s,
                     {"network": network, "demand": demand, "agent": agent,
                      "training": training, "result": result})

    def digest(self, rnd: Round) -> str:
        out = rnd.outputs
        parts = [repr(p) for p in out["training"].curve] + out["agent"].qnet.parameters()
        return checks.digest(parts + _episode_parts(out["result"]))

    def check(self, rnd: Round) -> list[str]:
        out = rnd.outputs
        gl, agent, result = self.gl, out["agent"], out["result"]
        horizon, episodes = RL4["horizon_s"], RL4["train_episodes"]
        errors, _ = _episode_checks(result, out["network"], out["demand"], "greedy episode")
        errors += checks.check_finite([p.mean_loss for p in out["training"].curve],
                                      "training curve mean loss")
        return errors + _agent_checks(gl, agent, episodes * horizon, episodes * horizon,
                                      episodes, np.random.default_rng(self.seed), "agent")


class RlAblationSweep:
    """harness.run_sweep over the four ablation variants x a few seeds."""

    name = "rl-ablation-sweep"

    def __init__(self, gl, seed: int, out_dir: str, clock=time.perf_counter) -> None:
        self.gl, self.seed, self.out_dir, self.clock = gl, seed, out_dir, clock
        self.seeds = [seed + k for k in range(SWEEP["seeds"])]

    def config(self) -> dict:
        return {
            "network": {"kind": "single", "phases": 2},
            "demand": {"kind": "uniform", "rate_vph": SWEEP["rate_vph"], "process": "poisson",
                       "seed": self.seed},
            "controller": {"kind": "rl"},
            "run": {"horizon_s": SWEEP["horizon_s"], "episodes": SWEEP["eval_episodes"],
                    "seeds": self.seeds, "out_dir": self.out_dir},
            "train": {"episodes": SWEEP["train_episodes"]},
            "sweep": {"kind": "ablation"},
        }

    def setup(self) -> None:
        gl = self.gl
        cfg = gl.config.parse_config(self.config())
        network = gl.config.build_network(cfg)
        demand_fn = gl.config.build_demand_fn(cfg.demand, network, self.seeds[0],
                                              SWEEP["horizon_s"])
        agents = gl.harness.make_agents(network, gl.agent.AgentConfig(), self.seeds[0])
        gl.sim.run_episode(network, [gl.agent.training_controller(a) for a in agents],
                           list(demand_fn(0)), 1, seed=self.seeds[0])

    @contextmanager
    def _probes(self, record: dict):
        """Time the harness's calls to train and evaluate, and keep what
        evaluate and make_agents return.  Each runs once per variant x seed."""
        harness = self.gl.harness
        train, evaluate, make_agents = harness.train, harness.evaluate, harness.make_agents

        def timed_train(*args, **kwargs):
            t = self.clock()
            out = train(*args, **kwargs)
            record["train_s"] += self.clock() - t
            return out

        def timed_evaluate(*args, **kwargs):
            t = self.clock()
            out = evaluate(*args, **kwargs)
            record["deploy_s"] += self.clock() - t
            record["results"] += out[1]
            return out

        def kept_agents(*args, **kwargs):
            agents = make_agents(*args, **kwargs)
            record["agents"] += agents
            return agents

        harness.train, harness.evaluate, harness.make_agents = (
            timed_train, timed_evaluate, kept_agents)
        try:
            yield
        finally:
            harness.train, harness.evaluate, harness.make_agents = train, evaluate, make_agents

    def run(self) -> Round:
        gl = self.gl
        shutil.rmtree(self.out_dir, ignore_errors=True)
        record = {"train_s": 0.0, "deploy_s": 0.0, "results": [], "agents": []}
        start = self.clock()
        cfg = gl.config.parse_config(self.config())
        with self._probes(record):
            rows, written = gl.harness.run_sweep(cfg, self.out_dir)
        wall = self.clock() - start
        files = {}
        for path in written:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
        runs = len(gl.harness.ABLATION_VARIANTS) * len(self.seeds)
        horizon, train_eps, eval_eps = (SWEEP["horizon_s"], SWEEP["train_episodes"],
                                        SWEEP["eval_episodes"])
        return Round(wall, runs * (train_eps + eval_eps) * horizon, runs * (train_eps + eval_eps),
                     runs * eval_eps * horizon, record["deploy_s"],
                     sum(a.decision_steps for a in record["agents"]), record["train_s"],
                     {"files": files, **record})

    def digest(self, rnd: Round) -> str:
        files = rnd.outputs["files"]
        return checks.digest(item for name in sorted(files) for item in (name, files[name]))

    def check(self, rnd: Round) -> list[str]:
        out, gl = rnd.outputs, self.gl
        horizon, train_eps, eval_eps = (SWEEP["horizon_s"], SWEEP["train_episodes"],
                                        SWEEP["eval_episodes"])
        variants = list(gl.harness.ABLATION_VARIANTS)
        expected = {(v, s, e) for v in variants for s in self.seeds for e in range(eval_eps)}
        errors = checks.check_results_csv(out["files"].get("results.csv", b"").decode(), expected)
        rng = np.random.default_rng(self.seed)
        agents = iter(out["agents"])
        results = iter(out["results"])
        for variant in variants:
            for seed in self.seeds:
                where = f"{variant} seed {seed}"
                name = f"curve_{variant}_{seed}.csv"
                errors += checks.check_curve_csv(out["files"].get(name, b"").decode(), horizon,
                                                 train_eps, name)
                agent = next(agents)
                online = eval_eps if agent.config.online_learning else 0
                errors += _agent_checks(gl, agent, train_eps * horizon,
                                        (train_eps + online) * horizon, train_eps + online,
                                        rng, where)
                for e in range(eval_eps):
                    result = next(results)
                    for i, log in enumerate(result.travel_logs):
                        errors += checks.check_accounting(
                            result.reward_traces[i], checks.log_table(log), result.horizon_s,
                            f"{where} eval episode {e} intersection {i}")
        return errors


WORKLOADS = {w.name: w for w in (GridClassic, Rl4PhaseOccupancy, RlAblationSweep)}
