"""Experiment harness: result rows, pooled metrics, evaluation loops, sweeps."""

import dataclasses
import os
import pickle
from fractions import Fraction

import numpy as np
import pytest

from greenlight import harness
from greenlight.classic import FixedTimeController, SotlController, WebsterController
from greenlight.config import SweepSection, build_network, parse_config, resolve
from greenlight.core import (
    Approach,
    ConfigError,
    LaneId,
    Movement,
    Vehicle,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.demand import straight_route
from greenlight.metrics import check_identity, compute_metrics
from greenlight.sim import run_episode

W_T = LaneId(0, Approach.W, Movement.T)
N_T = LaneId(0, Approach.N, Movement.T)

TINY_AGENT = {
    "hidden_dims": [8],
    "batch_size": 4,
    "replay_capacity": 64,
    "target_sync_interval": 10,
    "decision_interval_s": 10,
    "epsilon_decay_steps": 20,
}


def classic_cfg(tmp_path, **run_overrides):
    run = {"horizon_s": 60, "episodes": 2, "seeds": [7], "out_dir": str(tmp_path)}
    run.update(run_overrides)
    return parse_config({
        "network": {"kind": "single", "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": 120.0},
        "controller": {"kind": "fixedtime", "phase_duration_s": 30.0},
        "run": run,
    })


def rl_cfg(tmp_path, train_episodes=2, **controller_overrides):
    controller = {"kind": "rl", "agent": dict(TINY_AGENT)}
    controller.update(controller_overrides)
    return parse_config({
        "network": {"kind": "single", "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": 120.0},
        "controller": controller,
        "run": {"horizon_s": 120, "episodes": 1, "seeds": [0], "out_dir": str(tmp_path)},
        "train": {"episodes": train_episodes, "horizon_s": 120},
    })


# ---------------------------------------------------------------------------
# result rows and CSV export


def test_result_row_csv_repr_floats_and_blank_convergence():
    row = harness.ResultRow("webster", 3, 0, 36.5, 0.325, 12, None)
    assert row.csv() == "webster,3,0,36.5,0.325,12,"


def test_result_row_csv_with_convergence_episode():
    row = harness.ResultRow("rl", 0, 1, 40.0, 1.25, 580, 17)
    assert row.csv() == "rl,0,1,40.0,1.25,580,17"


def test_result_row_csv_roundtrips_full_float_precision():
    value = 1.0 / 3.0
    row = harness.ResultRow("sotl", 0, 0, value, 0.0, 1, None)
    assert float(row.csv().split(",")[3]) == value


def test_write_results_csv_exact_bytes(tmp_path):
    path = tmp_path / "results.csv"
    harness.write_results_csv(path, [harness.ResultRow("fixedtime", 0, 0, 30.0, 0.0, 4, None)])
    assert path.read_bytes() == (
        b"controller,seed,episode,avg_travel_time_s,avg_queue,throughput,converged_at\n"
        b"fixedtime,0,0,30.0,0.0,4,\n"
    )


# ---------------------------------------------------------------------------
# network-level metric pooling


def test_aggregate_metrics_single_intersection_is_passthrough():
    net = single_intersection_network(build_standard_intersection(2))
    result = run_episode(net, [FixedTimeController(1000.0)],
                         [Vehicle(0, 0.0, (W_T,))], 40, seed=0)
    pooled = harness.aggregate_metrics(result)
    assert pooled == compute_metrics(result.travel_logs[0], result.reward_traces[0])


def test_aggregate_metrics_pools_two_intersections():
    # One vehicle rides straight through a 1x2 grid under 50 s fixed timing.
    # It clears intersection 0 unimpeded (enters 0, ready 30, departs 30),
    # re-enters intersection 1 at 60 after the 30 s link, is ready at 90
    # during that intersection's second phase (green 55..109), and leaves at
    # 111: phase 0 reactivates at 110 but the discharge credit restarts from
    # zero after red, needing two green seconds at a 2 s headway.
    base = build_standard_intersection(2)
    net = build_grid_network(1, 2, base)
    vehicle = Vehicle(0, 0.0, tuple(straight_route(net, W_T)))
    result = run_episode(
        net, [FixedTimeController(50.0), FixedTimeController(50.0)],
        [vehicle], 130, seed=0,
    )
    assert result.travel_logs[0].records[0].depart_s == 30
    assert result.travel_logs[1].records[0].depart_s == 111

    pooled = harness.aggregate_metrics(result)
    assert pooled.vehicles == 2          # one crossing counted at each hop
    assert pooled.total_waiting_events == 21
    assert pooled.trace_waiting_events == 21
    assert pooled.tau_s == 111           # last departure 111 - first entry 0
    assert pooled.avg_travel_time_s == pytest.approx(21 / 2 + 30)
    assert pooled.avg_delay_s == pytest.approx(10.5)
    assert pooled.avg_queue == pytest.approx(21 / 111)
    assert pooled.censored_avg_travel_time_s == pytest.approx(40.5)
    assert pooled.pending == 0
    assert check_identity(pooled) == 0


# ---------------------------------------------------------------------------
# controller factories


def test_make_classic_controllers_each_kind(tmp_path):
    cfg = classic_cfg(tmp_path)
    net = build_network(cfg)
    (fixed,) = harness.make_classic_controllers(cfg, net)
    assert isinstance(fixed, FixedTimeController)

    (sotl,) = harness.make_classic_controllers(cfg, net, kind="sotl")
    assert isinstance(sotl, SotlController)
    assert sotl.theta_red == cfg.controller.theta_red

    (webster,) = harness.make_classic_controllers(cfg, net, kind="webster")
    assert isinstance(webster, WebsterController)


def test_make_classic_controllers_one_per_intersection(tmp_path):
    cfg = classic_cfg(tmp_path)
    net = build_grid_network(2, 3, build_standard_intersection(2))
    controllers = harness.make_classic_controllers(cfg, net)
    assert len(controllers) == 6


def test_make_classic_controllers_rejects_rl(tmp_path):
    cfg = classic_cfg(tmp_path)
    net = build_network(cfg)
    with pytest.raises(ConfigError, match="classic"):
        harness.make_classic_controllers(cfg, net, kind="rl")


def test_make_agents_gives_each_intersection_its_own_seed(tmp_path):
    from greenlight.agent import AgentConfig

    net = build_grid_network(1, 2, build_standard_intersection(2))
    agents = harness.make_agents(net, AgentConfig(hidden_dims=(8,)), seed=3)
    assert len(agents) == 2
    w0 = agents[0].qnet.parameters()[0]
    w1 = agents[1].qnet.parameters()[0]
    assert w0.shape == w1.shape
    assert not np.array_equal(w0, w1)


# ---------------------------------------------------------------------------
# evaluation loop


def fixed_factory(duration=1000.0):
    return lambda episode: [FixedTimeController(duration)]


def test_evaluate_calls_factory_once_per_episode():
    net = single_intersection_network(build_standard_intersection(2))
    calls = []

    def factory(episode):
        calls.append(episode)
        return [FixedTimeController(1000.0)]

    metrics, results = harness.evaluate(
        net, factory, lambda e: [Vehicle(0, 0.0, (W_T,))],
        episodes=3, horizon_s=40, base_seed=0,
    )
    assert calls == [0, 1, 2]
    assert len(metrics) == len(results) == 3
    assert all(m.vehicles == 1 for m in metrics)


def test_evaluate_check_passes_on_drained_episode():
    net = single_intersection_network(build_standard_intersection(2))
    metrics, _ = harness.evaluate(
        net, fixed_factory(), lambda e: [Vehicle(0, 0.0, (W_T,))],
        episodes=1, horizon_s=40, base_seed=0, check=True,
    )
    assert metrics[0].pending == 0


def test_evaluate_check_raises_on_nonzero_residual(monkeypatch):
    net = single_intersection_network(build_standard_intersection(2))
    monkeypatch.setattr(harness, "check_identity", lambda m: Fraction(1))
    with pytest.raises(AssertionError, match="identity violated: episode 0 residual 1"):
        harness.evaluate(
            net, fixed_factory(), lambda e: [Vehicle(0, 0.0, (W_T,))],
            episodes=1, horizon_s=40, base_seed=0, check=True,
        )


def test_evaluate_check_skips_undrained_episodes(monkeypatch):
    # A north vehicle never gets green under an effectively static plan, so
    # the episode ends with a pending vehicle and the identity check must
    # not fire even when the residual hook would report a violation.
    net = single_intersection_network(build_standard_intersection(2))
    monkeypatch.setattr(harness, "check_identity", lambda m: Fraction(1))
    metrics, _ = harness.evaluate(
        net, fixed_factory(), lambda e: [Vehicle(0, 0.0, (N_T,))],
        episodes=1, horizon_s=40, base_seed=0, check=True,
    )
    assert metrics[0].pending == 1


def test_evaluate_is_deterministic_for_a_base_seed():
    net = single_intersection_network(build_standard_intersection(2))
    demand = lambda e: [Vehicle(i, 5.0 * i, (W_T,)) for i in range(6)]
    first, _ = harness.evaluate(net, fixed_factory(30.0), demand, 2, 120, base_seed=9)
    second, _ = harness.evaluate(net, fixed_factory(30.0), demand, 2, 120, base_seed=9)
    assert [m.avg_travel_time_s for m in first] == [m.avg_travel_time_s for m in second]


# ---------------------------------------------------------------------------
# per-seed protocol and experiment driver


def test_run_seed_classic_rows(tmp_path):
    outcome = harness.run_seed(resolve(classic_cfg(tmp_path)), seed=7)
    assert outcome.training is None
    assert [r.episode for r in outcome.rows] == [0, 1]
    assert all(r.controller == "fixedtime" for r in outcome.rows)
    assert all(r.seed == 7 for r in outcome.rows)
    assert all(r.converged_at is None for r in outcome.rows)
    assert all(np.isfinite(r.avg_travel_time_s) for r in outcome.rows)


def test_run_seed_honors_controller_label(tmp_path):
    plan = resolve(classic_cfg(tmp_path, episodes=1))
    outcome = harness.run_seed(plan, seed=7, controller_label="baseline")
    assert outcome.rows[0].controller == "baseline"


def test_run_seed_is_reproducible(tmp_path):
    plan = resolve(classic_cfg(tmp_path))
    a = harness.run_seed(plan, seed=11)
    b = harness.run_seed(plan, seed=11)
    assert [r.csv() for r in a.rows] == [r.csv() for r in b.rows]


def test_run_experiment_classic_writes_results_csv_only(tmp_path):
    cfg = classic_cfg(tmp_path, seeds=[0, 1], episodes=1)
    rows, written = harness.run_experiment(cfg)
    assert written == [os.path.join(str(tmp_path), "results.csv")]
    assert [r.seed for r in rows] == [0, 1]
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == harness.RESULTS_HEADER
    assert len(lines) == 1 + len(rows)
    assert lines[1] == rows[0].csv()


def test_run_experiment_rl_writes_curve_after_results(tmp_path):
    cfg = rl_cfg(tmp_path, train_episodes=2)
    rows, written = harness.run_experiment(cfg)
    assert written[0] == os.path.join(str(tmp_path), "results.csv")
    assert written[1] == os.path.join(str(tmp_path), "curve_rl_0.csv")
    curve_lines = (tmp_path / "curve_rl_0.csv").read_text().splitlines()
    assert curve_lines[0] == "episode,steps,avg_travel_time_s,mean_loss,epsilon"
    assert len(curve_lines) == 1 + 2
    # two training episodes cannot fill the ten-episode stability window
    assert rows[0].converged_at is None
    assert rows[0].controller == "rl"


def test_rl_trains_on_demand_drawn_over_the_training_horizon(tmp_path, monkeypatch):
    cfg = rl_cfg(tmp_path, train_episodes=2)
    cfg.demand.rate_vph = 360.0
    cfg.run.horizon_s, cfg.train.horizon_s = 60, 600
    episodes = []
    real_train = harness.train

    def spy(agents, network, demand_fn, n_episodes, horizon_s, **kwargs):
        episodes.extend((horizon_s, demand_fn(episode)) for episode in range(n_episodes))
        return real_train(agents, network, demand_fn, n_episodes, horizon_s, **kwargs)

    monkeypatch.setattr(harness, "train", spy)
    harness.run_seed(resolve(cfg), 0)
    assert len(episodes) == 2
    for horizon_s, vehicles in episodes:
        # one vehicle per 10 s on each of four lanes, over all 600 s
        assert horizon_s == 600 and len(vehicles) == 240
        assert max(v.entry_time_s for v in vehicles) == 590.0


# ---------------------------------------------------------------------------
# sweeps


def test_ablation_variants_cover_the_three_traits():
    assert harness.ABLATION_VARIANTS == {
        "rl": {},
        "rl-no-ol": {"online_learning": False},
        "rl-no-sg": {"guided_sampling": False},
        "rl-no-f": {"forecast": False},
    }


def test_run_ablation_sweep_writes_one_curve_per_variant(tmp_path):
    cfg = rl_cfg(tmp_path, train_episodes=1)
    cfg.sweep = SweepSection("ablation")
    rows, written = harness.run_sweep(cfg)
    assert [r.controller for r in rows] == list(harness.ABLATION_VARIANTS)
    assert written[0].endswith("results.csv")
    names = [os.path.basename(p) for p in written[1:]]
    assert names == [f"curve_{label}_0.csv" for label in harness.ABLATION_VARIANTS]
    for path in written:
        assert os.path.exists(path)


def test_run_ablation_sweep_requires_learning_controller(tmp_path):
    cfg = classic_cfg(tmp_path)
    cfg.sweep = SweepSection("ablation")
    with pytest.raises(ConfigError, match="rl"):
        harness.run_sweep(cfg)


def test_run_sweep_ablation_points_equal_runs_with_the_variant_overrides(tmp_path):
    cfg = rl_cfg(tmp_path / "sweep", train_episodes=1)
    cfg.run.seeds = [0, 1]
    cfg.sweep = SweepSection("ablation")
    swept, _ = harness.run_sweep(cfg)
    for label, overrides in harness.ABLATION_VARIANTS.items():
        single = rl_cfg(tmp_path / label, train_episodes=1, agent={**TINY_AGENT, **overrides})
        single.run.seeds = [0, 1]
        rows, _ = harness.run_experiment(single)
        assert [dataclasses.replace(r, controller=label).csv() for r in rows] == [
            r.csv() for r in swept if r.controller == label]
        for seed in (0, 1):
            assert ((tmp_path / "sweep" / f"curve_{label}_{seed}.csv").read_bytes()
                    == (tmp_path / label / f"curve_rl_{seed}.csv").read_bytes())


def test_run_sweep_ablation_trains_once_per_distinct_training_input(tmp_path, monkeypatch):
    cfg = rl_cfg(tmp_path, train_episodes=1)
    cfg.run.seeds = [0, 1]
    cfg.sweep = SweepSection("ablation")
    trained, made = [], []
    real_train, real_make = harness.train, harness.make_agents

    def counted_train(agents, *args, **kwargs):
        trained.append(agents[0].config)
        return real_train(agents, *args, **kwargs)

    def counted_make(*args, **kwargs):
        agents = real_make(*args, **kwargs)
        made.append((kwargs.get("trained") is not None, agents))
        return agents

    monkeypatch.setattr(harness, "train", counted_train)
    monkeypatch.setattr(harness, "make_agents", counted_make)
    harness.run_sweep(cfg)
    # rl, rl-no-sg and rl-no-f train for each seed; rl-no-ol deploys copies of rl's agents
    assert [(c.online_learning, c.guided_sampling, c.forecast) for c in trained] == (
        [(True, True, True)] * 2 + [(True, False, True)] * 2 + [(True, True, False)] * 2)
    assert [copied for copied, _ in made] == [False, False, True, True, False, False, False, False]
    agents = [a for _, point_agents in made for a in point_agents]
    assert len({id(a) for a in agents}) == 8
    assert [a.config.online_learning for a in agents] == [True, True, False, False] + [True] * 4


def test_make_agents_copies_trained_agents_with_the_given_config():
    from greenlight.agent import AgentConfig

    net = build_grid_network(1, 2, build_standard_intersection(2))
    agents = harness.make_agents(net, AgentConfig(hidden_dims=(8,)), seed=3)
    snapshot = pickle.dumps(agents)
    frozen = AgentConfig(hidden_dims=(8,), online_learning=False)
    copies = harness.make_agents(net, frozen, 99, trained=snapshot)
    for agent, copy in zip(agents, copies, strict=True):
        assert copy is not agent and copy.config is frozen
        assert np.array_equal(copy.qnet.theta, agent.qnet.theta)
        copy.qnet.theta += 1.0
        assert not np.array_equal(copy.qnet.theta, agent.qnet.theta)


def test_run_sweep_rejects_a_bad_point_before_any_seed_runs(tmp_path, monkeypatch):
    # the document check passes this config: only building the point refuses it
    cfg = rl_cfg(tmp_path, train_episodes=1)
    cfg.run.seeds = [0, 1]
    cfg.sweep = SweepSection("ablation")
    monkeypatch.setattr(harness, "ABLATION_VARIANTS", {"good": {}, "bad": {"gama": 1.0}})
    runs = []
    monkeypatch.setattr(harness, "run_seed", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ConfigError, match=r"^sweep point bad: controller\.agent\.gama"):
        harness.run_sweep(cfg)
    assert runs == []
    assert not (tmp_path / "results.csv").exists()


def test_run_sotl_grid_sweep_labels_and_rows(tmp_path):
    cfg = classic_cfg(tmp_path, episodes=1)
    cfg.sweep = SweepSection("sotl-grid", [3.0], [1.0, 2.5])
    rows, written = harness.run_sweep(cfg)
    assert [r.controller for r in rows] == ["sotl[r=3,g=1]", "sotl[r=3,g=2.5]"]
    assert all(r.converged_at is None for r in rows)
    assert written == [os.path.join(str(tmp_path), "results.csv")]


def test_run_sotl_grid_sweep_evaluates_on_deploy_demand(tmp_path):
    # light training demand, heavy deployment demand: a grid point scores
    # what `run` scores for a SOTL config with the same thresholds
    cfg = parse_config({
        "network": {"kind": "single", "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": 200.0, "process": "poisson"},
        "deploy_demand": {"kind": "uniform", "rate_vph": 700.0, "process": "poisson"},
        "controller": {"kind": "sotl", "theta_red": 4.0, "theta_green": 2.0},
        "run": {"horizon_s": 300, "episodes": 2, "seeds": [3], "out_dir": str(tmp_path)},
        "sweep": {"kind": "sotl-grid", "theta_red": [4.0], "theta_green": [2.0]},
    })
    swept, _ = harness.run_sweep(cfg)
    ran, _ = harness.run_experiment(cfg)
    assert [r.controller for r in swept] == ["sotl[r=4,g=2]"] * 2
    assert [dataclasses.replace(r, controller="sotl") for r in swept] == ran


def test_run_sweep_dispatches_and_rejects_unknown_kind(tmp_path):
    cfg = classic_cfg(tmp_path, episodes=1)
    cfg.sweep = SweepSection("sotl-grid", [4.0], [2.0])
    rows, _ = harness.run_sweep(cfg)
    assert len(rows) == 1

    cfg.sweep = SweepSection("bogus")
    with pytest.raises(ConfigError, match="sweep.kind"):
        harness.run_sweep(cfg)


def test_run_sweep_defaults_to_ablation(tmp_path):
    cfg = classic_cfg(tmp_path)
    cfg.sweep = SweepSection()
    with pytest.raises(ConfigError, match="rl"):
        harness.run_sweep(cfg)


# ---------------------------------------------------------------------------
# randomized gradient audit


def test_gradcheck_qnetworks_small_sample_passes():
    results = harness.gradcheck_qnetworks(count=4, seed=1)
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert max(r.max_rel_error for r in results) < 1e-4
    assert all(r.checked > 0 for r in results)
