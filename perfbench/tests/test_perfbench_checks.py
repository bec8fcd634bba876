"""Each benchmark check passes on real outputs and fails on a corrupted copy."""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import greenlight as gl  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def grid_round():
    sizes = {"rows": 2, "cols": 2, "demand_end_s": 600, "horizon_s": 900}
    saved = dict(workloads.GRID)
    workloads.GRID.update(sizes)
    try:
        workload = workloads.GridClassic(gl, 3, "")
        yield workload, workload.run()
    finally:
        workloads.GRID.update(saved)


@pytest.fixture(scope="module")
def rl_round():
    saved = dict(workloads.RL4)
    workloads.RL4.update({"train_episodes": 1, "horizon_s": 300})
    try:
        workload = workloads.Rl4PhaseOccupancy(gl, 4, "")
        yield workload, workload.run()
    finally:
        workloads.RL4.update(saved)


@pytest.fixture(scope="module")
def sweep_round(tmp_path_factory):
    saved = dict(workloads.SWEEP)
    workloads.SWEEP.update({"horizon_s": 150})
    try:
        workload = workloads.RlAblationSweep(gl, 5, str(tmp_path_factory.mktemp("sweep")))
        yield workload, workload.run()
    finally:
        workloads.SWEEP.update(saved)


def fixed_time_episode(rnd):
    metrics, result = rnd.outputs["episodes"]["fixedtime"]
    return metrics, copy.deepcopy(result)


def departed_vehicle(result, node=0):
    return next(vid for vid, rec in result.travel_logs[node].records.items()
                if rec.depart_s is not None)


def lanes_at(demand, node):
    return {v.id: lane.label for v in demand for lane in v.route if lane.intersection == node}


def replay_errors(rnd, result, node=0):
    config = rnd.outputs["network"].intersections[node]
    green = [frozenset(l.label for l in p.green_lanes) for p in config.phases]
    return checks.check_replay(result.phase_traces[node],
                               checks.log_table(result.travel_logs[node]),
                               lanes_at(rnd.outputs["demand"], node), green,
                               config.yellow_s + config.all_red_s,
                               config.saturation_headway_s, "test")


def conservation_errors(rnd, result):
    routes, entries = workloads._routes(rnd.outputs["demand"])
    errors, _ = checks.check_conservation(
        routes, entries, [checks.log_table(log) for log in result.travel_logs],
        [30] * len(result.travel_logs), rnd.outputs["network"].link_travel_time_s,
        result.horizon_s, result.network_departures)
    return errors


# -- grid-classic --------------------------------------------------------------


def test_grid_round_passes_every_check(grid_round):
    workload, rnd = grid_round
    assert workload.check(rnd) == []


def test_departure_shifted_by_one_step_fails_accounting(grid_round):
    _, rnd = grid_round
    _, result = fixed_time_episode(rnd)
    table = checks.log_table(result.travel_logs[0])
    assert checks.check_accounting(result.reward_traces[0], table, result.horizon_s, "t") == []
    result.travel_logs[0].records[departed_vehicle(result)].depart_s += 1
    table = checks.log_table(result.travel_logs[0])
    assert checks.check_accounting(result.reward_traces[0], table, result.horizon_s, "t")


def test_departure_shifted_by_one_step_fails_identity(grid_round):
    _, rnd = grid_round
    _, result = fixed_time_episode(rnd)
    log, trace = result.travel_logs[0], result.reward_traces[0]
    assert gl.metrics.check_identity(gl.metrics.compute_metrics(log, trace)) == 0
    log.records[departed_vehicle(result)].depart_s += 1
    assert gl.metrics.check_identity(gl.metrics.compute_metrics(log, trace)) != 0


def test_departure_shifted_by_one_step_fails_replay(grid_round):
    _, rnd = grid_round
    _, result = fixed_time_episode(rnd)
    assert replay_errors(rnd, result) == []
    result.travel_logs[0].records[departed_vehicle(result)].depart_s += 1
    assert replay_errors(rnd, result)


def test_vehicle_dropped_from_a_log_fails_conservation(grid_round):
    _, rnd = grid_round
    _, result = fixed_time_episode(rnd)
    assert conservation_errors(rnd, result) == []
    # a vehicle on a two-hop route, dropped from the log of its second hop
    vid = next(v.id for v in rnd.outputs["demand"] if len(v.route) == 2
               and v.id in result.travel_logs[v.route[1].intersection].records)
    second = next(v for v in rnd.outputs["demand"] if v.id == vid).route[1].intersection
    del result.travel_logs[second].records[vid]
    assert conservation_errors(rnd, result)


def test_corrupted_episode_fails_the_workload_check(grid_round):
    workload, rnd = grid_round
    broken = copy.copy(rnd)
    broken.outputs = dict(rnd.outputs)
    metrics, result = fixed_time_episode(rnd)
    result.travel_logs[1].records[departed_vehicle(result, 1)].depart_s += 1
    broken.outputs["episodes"] = {**rnd.outputs["episodes"], "fixedtime": (metrics, result)}
    assert workload.check(broken)


class Repeating:
    """A workload whose rounds produce the given digests in turn."""

    def __init__(self, digests):
        self.digests = iter(digests)

    def run(self):
        return workloads.Round(0.01, 1, 1, 1, 0.01, 0, 0.0, {"out": 1})

    def digest(self, rnd):
        return next(self.digests)

    def check(self, rnd):
        return [] if rnd.outputs else ["outputs dropped before the check"]


def test_round_with_a_differing_digest_fails():
    rounds, errors, failed = run.run_rounds(Repeating(["a", "a", "a"]), 0.0)
    assert len(rounds) == 2 and errors == [] and failed == 0
    rounds, errors, failed = run.run_rounds(Repeating(["a", "b"]), 0.0)
    assert errors and failed == 1


# -- learning ------------------------------------------------------------------


def test_rl_round_passes_every_check(rl_round):
    workload, rnd = rl_round
    assert workload.check(copy.deepcopy(rnd)) == []


def test_perturbed_gradient_entry_fails_the_gradient_check(rl_round):
    _, rnd = rl_round
    agent = copy.deepcopy(rnd.outputs["agent"])
    batch = agent.memory.sample(agent.config.batch_size)
    targets = gl.agent.bellman_targets(agent.target, batch.rewards, batch.next_states,
                                       batch.next_phases, agent.config.gamma)
    params = agent.qnet.parameters()
    coords = [(pi, 0) for pi in range(len(params))]

    def loss_and_grads(bump=0.0):
        loss, grads, *_ = agent.qnet.loss_and_grads(batch.states, batch.phases,
                                                    batch.actions, targets)
        grads = [g.copy() for g in grads]
        grads[0].reshape(-1)[0] += bump
        return loss, grads

    errors, worst = checks.fd_gradient_check(loss_and_grads, params, coords)
    assert errors == [] and worst < checks.FD_TOL
    scale = max(float(np.max(np.abs(g))) for g in loss_and_grads()[1])
    errors, _ = checks.fd_gradient_check(lambda: loss_and_grads(0.01 * scale), params, coords)
    assert errors


def test_learn_step_count_off_by_one_fails(rl_round):
    _, rnd = rl_round
    agent = rnd.outputs["agent"]
    decisions, batch = agent.decision_steps, agent.config.batch_size
    assert checks.check_learn_steps(agent.learn_steps, decisions, 1, batch, "t") == []
    assert checks.check_learn_steps(agent.learn_steps + 1, decisions, 1, batch, "t")


def test_non_finite_loss_fails():
    assert checks.check_finite([0.5, 1.5], "loss") == []
    assert checks.check_finite([0.5, math.nan], "loss")
    assert checks.check_finite([math.inf], "loss")


def test_sweep_round_passes_every_check(sweep_round):
    workload, rnd = sweep_round
    assert workload.check(copy.deepcopy(rnd)) == []


def test_curve_steps_off_by_one_fails(sweep_round):
    _, rnd = sweep_round
    name = next(n for n in rnd.outputs["files"] if n.startswith("curve_"))
    text = rnd.outputs["files"][name].decode()
    horizon, episodes = workloads.SWEEP["horizon_s"], workloads.SWEEP["train_episodes"]
    assert checks.check_curve_csv(text, horizon, episodes, name) == []
    broken = text.replace(f"\n0,{horizon},", f"\n0,{horizon + 1},")
    assert checks.check_curve_csv(broken, horizon, episodes, name)


def test_results_csv_missing_row_or_nan_fails(sweep_round):
    workload, rnd = sweep_round
    text = rnd.outputs["files"]["results.csv"].decode()
    keys = {(v, s, 0) for v in gl.harness.ABLATION_VARIANTS for s in workload.seeds}
    assert checks.check_results_csv(text, keys) == []
    lines = text.splitlines(keepends=True)
    assert checks.check_results_csv("".join(lines[:-1]), keys)
    fields = lines[1].split(",")
    fields[3] = "nan"
    assert checks.check_results_csv("".join([lines[0], ",".join(fields)] + lines[2:]), keys)


# -- tracer --------------------------------------------------------------------


def test_self_times_and_outside_time_add_up_to_wall_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.start()   # 0
    outer()          # outer 1..4, inner 2..3
    outer()          # outer 5..8, inner 6..7
    tracer.stop()    # 9
    assert tracer.self_s == {"outer": 4.0, "inner": 2.0}
    assert tracer.outside_s == 3.0 and tracer.wall_s == 9.0
    assert tracer.calls == {"outer": 2, "inner": 2}


def test_install_wraps_every_lookup_name_and_restore_undoes_it():
    adam_step = gl.neural.adam_step
    network = gl.core.single_intersection_network(gl.core.build_standard_intersection(2))
    tracer = tracing.Tracer()
    restore = tracing.install(gl, tracer)
    try:
        assert gl.agent.adam_step is gl.neural.adam_step is not adam_step
        gl.sim.run_episode(network, [gl.classic.FixedTimeController()], [], 5)
        assert tracer.calls["sim.run_episode"] == 1
        assert tracer.calls["sim.step"] == tracer.calls["classic.after_step"] == 5
    finally:
        restore()
    assert gl.agent.adam_step is adam_step and gl.neural.adam_step is adam_step
    assert "after_step" not in vars(gl.classic.FixedTimeController)
