"""End-to-end acceptance checks for the whole package.

Each test exercises one externally meaningful guarantee — exact accounting
identities, gradient correctness, controller arithmetic, learned-policy
quality, ablation trends, estimator accuracy, and bit-level reproducibility —
and prints a single labeled PASS/FAIL line with the measured quantities so a
suite run doubles as a results table.  The RL scenarios are deliberately
small (single intersection, short horizons) so the whole module stays in the
tens-of-minutes range; every random stream is seeded, so reruns reproduce
the printed numbers exactly.
"""

import pickle
import time
from fractions import Fraction

import numpy as np
import pytest

from greenlight import harness
from greenlight.agent import (
    AgentConfig,
    AgentController,
    DQNAgent,
    greedy_controller,
    train,
)
from greenlight.classic import (
    FixedTimeController,
    SotlController,
    WebsterController,
    WebsterParams,
    estimate_flows,
    webster_cycle_length,
    webster_phase_splits,
)
from greenlight.config import _entry_lanes, parse_config
from greenlight.core import (
    Approach,
    LaneId,
    Movement,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.demand import (
    ArrivalProcess,
    DemandSpec,
    RateWindow,
    generate_uniform,
    peaked_spec,
    realize,
    straight_route,
)
from greenlight.harness import ABLATION_VARIANTS, evaluate, run_experiment
from greenlight.metrics import (
    censored_avg_travel_time,
    check_identity,
    detect_convergence,
)
from greenlight.sim import BaseController, run_episode


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict (bypassing capture), then assert."""
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared small-scenario RL trainings (used by the ablation and convergence
# tests).  One uniform-traffic scenario, four agent variants, five seeds.

SMALL_NET = single_intersection_network(build_standard_intersection(2))
SMALL_CFG = SMALL_NET.intersections[0]
SMALL_LANES = list(SMALL_CFG.lanes)
SMALL_RATE = 300.0
SMALL_HORIZON = 600
SMALL_EPISODES = 30
SMALL_SEEDS = (0, 1, 2, 3, 4)
SMALL_AGENT = {
    "decision_interval_s": 1,
    "epsilon_end": 0.01,
    "epsilon_decay_steps": 3000,
    "occupancy_cells": 12,
}
SMALL_VARIANTS = {
    "counts": {},
    "counts_occupancy": {"state_mode": "counts_plus_occupancy"},
    "occupancy_only": {"state_mode": "occupancy_only"},
    "delay_reward": {"reward_mode": "delay"},
}


def _small_demand(episode: int):
    return generate_uniform(SMALL_RATE, SMALL_LANES, float(SMALL_HORIZON))


@pytest.fixture(scope="module")
def small_runs():
    """Train every (variant, seed) pair once; later tests share the results."""
    runs = {}
    for seed in SMALL_SEEDS:
        for label, overrides in SMALL_VARIANTS.items():
            agent = DQNAgent(SMALL_CFG, AgentConfig(**{**SMALL_AGENT, **overrides}),
                             seed=seed)
            result = train([agent], SMALL_NET, _small_demand,
                           episodes=SMALL_EPISODES, horizon_s=SMALL_HORIZON,
                           base_seed=1000 + seed)
            runs[label, seed] = (agent, result)
    return runs


def _greedy_travel_time(agent, episodes: int = 2) -> float:
    """Mean censored travel time over greedy deployment episodes."""
    vals = []
    for ep in range(episodes):
        res = run_episode(SMALL_NET, [greedy_controller(agent)],
                          _small_demand(10_000 + ep), SMALL_HORIZON,
                          seed=5000 + ep)
        vals.append(censored_avg_travel_time(res.travel_logs[0], SMALL_HORIZON))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# 1. exact travel-time/queue identity over randomized drained episodes


def test_travel_time_identity_over_randomized_episodes(capsys):
    t0 = time.time()
    episodes_checked = 0

    def run_block(network, factory, demand_fn, episodes, base_seed):
        nonlocal episodes_checked
        metrics, _ = evaluate(network, factory, demand_fn, episodes,
                              horizon_s=horizon, base_seed=base_seed, check=True)
        for m in metrics:
            assert m.pending == 0, "episode not drained; scenario is miscalibrated"
            assert check_identity(m) == Fraction(0)
        episodes_checked += len(metrics)

    # single 2-phase intersection: 4 controllers x 5 demand patterns x 4 episodes
    net2 = single_intersection_network(build_standard_intersection(2))
    cfg2 = net2.intersections[0]
    lanes2 = list(cfg2.lanes)
    horizon, window = 900, 450.0
    controllers2 = {
        "fixedtime30": lambda: FixedTimeController(30.0),
        "fixedtime50": lambda: FixedTimeController(50.0),
        # theta_red=0 so any waiting red vehicle eventually forces a switch;
        # the default strict threshold can strand a final queue of exactly
        # theta_red vehicles forever, and drained episodes are a precondition
        # for the exact identity.
        "sotl": lambda: SotlController(cfg2, theta_red=0.0),
        "webster": lambda: WebsterController(cfg2),
    }
    demands2 = {
        "uniform240": lambda ep: generate_uniform(240.0, lanes2, window),
        "uniform550": lambda ep: generate_uniform(550.0, lanes2, window),
        "poisson300": lambda ep: generate_uniform(
            300.0, lanes2, window, process=ArrivalProcess.POISSON, seed=100 + ep),
        "poisson480": lambda ep: generate_uniform(
            480.0, lanes2, window, process=ArrivalProcess.POISSON, seed=900 + ep),
        "peaked600": lambda ep: realize(peaked_spec(
            120.0, 600.0, [(60.0, 300.0)], lanes2, window)),
    }
    base = 0
    for make in controllers2.values():
        for demand_fn in demands2.values():
            run_block(net2, lambda ep, mk=make: [mk()], demand_fn, 4, base)
            base += 1

    # single 4-phase intersection
    net4 = single_intersection_network(build_standard_intersection(4))
    lanes4 = list(net4.intersections[0].lanes)
    run_block(net4, lambda ep: [FixedTimeController(30.0)],
              lambda ep: generate_uniform(240.0, lanes4, window), 4, base_seed=77)

    # 1x2 grid with mixed controllers and multi-hop routes
    grid = build_grid_network(1, 2, build_standard_intersection(2))
    entry = _entry_lanes(grid)
    horizon = 1000
    route = lambda lane: straight_route(grid, lane)
    grid_demands = {
        "uniform360": lambda ep: generate_uniform(
            360.0, entry, window, route_for_lane=route),
        "poisson240": lambda ep: generate_uniform(
            240.0, entry, window, process=ArrivalProcess.POISSON, seed=500 + ep,
            route_for_lane=route),
        "peaked500": lambda ep: realize(peaked_spec(
            150.0, 500.0, [(60.0, 300.0)], entry, window), route),
    }
    grid_controllers = [
        lambda: [FixedTimeController(30.0),
                 SotlController(grid.intersections[1], theta_red=0.0)],
        lambda: [WebsterController(grid.intersections[0]), FixedTimeController(50.0)],
    ]
    for make in grid_controllers:
        for demand_fn in grid_demands.values():
            run_block(grid, lambda ep, mk=make: mk(), demand_fn, 3, base)
            base += 1

    elapsed = time.time() - t0
    ok = episodes_checked >= 100 and elapsed < 60.0
    _verdict(capsys, "travel-time identity", ok,
             f"residual exactly 0 on {episodes_checked} drained episodes "
             f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. gradient correctness on random Q-networks


def test_gradient_check_random_networks(capsys):
    t0 = time.time()
    results = harness.gradcheck_qnetworks(20, seed=0)
    worst = max(r.max_rel_error for r in results)
    elapsed = time.time() - t0
    ok = len(results) == 20 and all(r.passed for r in results) and elapsed < 60.0
    _verdict(capsys, "gradient check", ok,
             f"20 networks, max relative error {worst:.2e} < 1e-4 "
             f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. signal-timing arithmetic


def test_webster_timing_arithmetic(capsys):
    params = WebsterParams()  # loss 5 s/phase, headway 2 s
    cycle = webster_cycle_length(900.0, params, 2)
    at_saturation = webster_cycle_length(1800.0, params, 2)
    beyond = webster_cycle_length(2400.0, params, 2)
    c_max = params.cycle_bounds_s[1]

    splits = webster_phase_splits([500.0, 300.0], 40.0, params)
    split_sum = sum(splits)
    effective_green = 40.0 - 2 * params.loss_time_per_phase_s

    ok = (cycle == 20.0
          and at_saturation == c_max and beyond == c_max
          and split_sum == effective_green
          and splits[0] == 18.75 and splits[1] == 11.25)
    _verdict(capsys, "signal-timing arithmetic", ok,
             f"cycle(900 vph, 2 phases) = {cycle}, saturated inputs -> "
             f"C_max = {c_max:g}, splits {splits} sum to {split_sum:g}")


# ---------------------------------------------------------------------------
# 4. trained agent vs. classic baselines on uniform demand


def test_agent_near_volume_timing_on_uniform_demand(capsys):
    t0 = time.time()
    net = single_intersection_network(build_standard_intersection(2))
    cfg = net.intersections[0]
    lanes = list(cfg.lanes)
    train_h, eval_h = 1800, 3600

    def run_leg(rates, baseline_ctrl):
        train_fn = lambda ep: generate_uniform(rates, lanes, train_h - 300.0)
        eval_fn = lambda ep: generate_uniform(rates, lanes, eval_h - 300.0)
        agent = DQNAgent(cfg, AgentConfig(), seed=7)
        train([agent], net, train_fn, episodes=30, horizon_s=train_h,
              base_seed=11)
        # Frozen deployment: the policy is evaluated as trained, with no
        # further weight updates during the rollout.  Demand and policy are
        # both deterministic here, so a single episode is the exact value.
        frozen = AgentController(agent, training=False, learn=False)
        res = run_episode(net, [frozen], eval_fn(10_000), eval_h, seed=900)
        val = censored_avg_travel_time(res.travel_logs[0], eval_h)
        res = run_episode(net, [baseline_ctrl()], eval_fn(10_000), eval_h,
                          seed=900)
        base = censored_avg_travel_time(res.travel_logs[0], eval_h)
        return val, base

    agent_sym, webster_sym = run_leg(300.0, lambda: WebsterController(cfg))
    asym = {l: (400.0 if l.approach in (Approach.W, Approach.E) else 200.0)
            for l in lanes}
    agent_asym, fixed_asym = run_leg(asym, lambda: FixedTimeController(30.0))

    elapsed = time.time() - t0
    ratio = agent_sym / webster_sym
    ok = (ratio <= 1.15 and agent_asym < fixed_asym and elapsed < 600.0)
    _verdict(capsys, "uniform-traffic near-optimality", ok,
             f"symmetric 300 vph: agent {agent_sym:.2f}s vs webster "
             f"{webster_sym:.2f}s (ratio {ratio:.3f} <= 1.15); asymmetric "
             f"2:1: agent {agent_asym:.2f}s < fixed-30 {fixed_asym:.2f}s "
             f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 5. state/reward ablation: richer signal wins at equal budget


def test_state_reward_ablation_medians(capsys, small_runs):
    medians = {}
    for label in ("counts", "occupancy_only", "delay_reward"):
        vals = [_greedy_travel_time(small_runs[label, seed][0])
                for seed in SMALL_SEEDS]
        medians[label] = float(np.median(vals))
    full = medians["counts"]
    ok = full <= medians["occupancy_only"] and full <= medians["delay_reward"]
    _verdict(capsys, "state/reward ablation", ok,
             f"median travel time: counts+queue {full:.2f}s <= "
             f"occupancy-only {medians['occupancy_only']:.2f}s and <= "
             f"delay-reward {medians['delay_reward']:.2f}s (5 seeds)")


# ---------------------------------------------------------------------------
# 6. trait ablation on a peaked scenario with rotated deployment


ROT_EW = [LaneId(0, Approach.W, Movement.T), LaneId(0, Approach.E, Movement.T)]
ROT_NS = [LaneId(0, Approach.N, Movement.T), LaneId(0, Approach.S, Movement.T)]
ROT_HEAVY_BASE = 300.0
ROT_LIGHT_BASE = 100.0
ROT_TRAIN = {"peak": 550.0, "window": (300.0, 900.0), "horizon": 1200,
             "episodes": 10}
ROT_DEPLOY = {"peak": 500.0, "window": (300.0, 1050.0), "horizon": 1500,
              "episodes": 5, "tail": 2}
ROT_AGENT = {"epsilon_end": 0.01, "epsilon_decay_steps": 3000}


def _biased_peak_demand(heavy, light, peak, window, horizon):
    """Heavy axis: base rate with a peak window; light axis: trickle."""
    start, end = window
    lane_windows = {}
    for lane in heavy:
        parts = [RateWindow(0.0, start, ROT_HEAVY_BASE),
                 RateWindow(start, end, peak)]
        if end < horizon:
            parts.append(RateWindow(end, horizon, ROT_HEAVY_BASE))
        lane_windows[lane] = tuple(parts)
    for lane in light:
        lane_windows[lane] = (RateWindow(0.0, horizon, ROT_LIGHT_BASE),)
    return realize(DemandSpec(lane_windows, horizon))


def test_trait_ablation_rotated_peak(capsys):
    net = single_intersection_network(build_standard_intersection(2))
    cfg = net.intersections[0]

    def train_demand(ep):
        return _biased_peak_demand(ROT_EW, ROT_NS, ROT_TRAIN["peak"],
                                   ROT_TRAIN["window"],
                                   float(ROT_TRAIN["horizon"]))

    def deploy_demand():
        return _biased_peak_demand(ROT_NS, ROT_EW, ROT_DEPLOY["peak"],
                                   ROT_DEPLOY["window"],
                                   float(ROT_DEPLOY["horizon"]))

    # rl-no-ol trains as rl does (training always learns), so it deploys
    # copies of rl's trained agents, made as the harness makes them
    trained = {}
    medians = {}
    for label, overrides in ABLATION_VARIANTS.items():
        config = AgentConfig(**{**ROT_AGENT, **overrides})
        per_seed = []
        for seed in SMALL_SEEDS:
            if label == "rl-no-ol":
                assert config.training_config() == AgentConfig(**ROT_AGENT).training_config()
                (agent,) = harness.make_agents(net, config, seed, trained=trained.pop(seed))
            else:
                agent = DQNAgent(cfg, config, seed=seed)
                train([agent], net, train_demand, episodes=ROT_TRAIN["episodes"],
                      horizon_s=ROT_TRAIN["horizon"], base_seed=1000 + seed)
                if label == "rl":
                    trained[seed] = pickle.dumps([agent])
            vals = []
            for ep in range(ROT_DEPLOY["episodes"]):
                res = run_episode(net, [greedy_controller(agent)],
                                  deploy_demand(), ROT_DEPLOY["horizon"],
                                  seed=7000 + 31 * seed + ep)
                vals.append(censored_avg_travel_time(
                    res.travel_logs[0], ROT_DEPLOY["horizon"]))
            per_seed.append(float(np.mean(vals[-ROT_DEPLOY["tail"]:])))
        medians[label] = float(np.median(per_seed))

    full = medians["rl"]
    ok = (all(m >= full for m in medians.values())
          and medians["rl-no-ol"] >= 1.10 * full)
    detail = ", ".join(f"{label} {m:.1f}s" for label, m in medians.items())
    _verdict(capsys, "trait ablation", ok,
             f"deployment medians after rotated-peak shift: {detail}; "
             f"frozen-policy penalty {medians['rl-no-ol'] / full:.2f}x >= 1.10x")


# ---------------------------------------------------------------------------
# 7. compact state converges materially faster than the occupancy-rich state


def test_convergence_speed_compact_vs_rich_state(capsys, small_runs):
    ratios = []
    detail_bits = []
    for seed in SMALL_SEEDS:
        pair = {}
        for label in ("counts", "counts_occupancy"):
            _, result = small_runs[label, seed]
            report = detect_convergence(result.travel_times())
            if report.converged_at is None:
                # never stabilized inside the budget: charge the full budget,
                # which under-states how much slower this run really was
                pair[label] = (None, result.curve[-1].steps)
            else:
                pair[label] = (report.converged_at,
                               result.curve[report.converged_at - 1].steps)
        counts_ep, counts_steps = pair["counts"]
        rich_ep, rich_steps = pair["counts_occupancy"]
        assert counts_ep is not None, "compact state must converge in budget"
        ratios.append(counts_steps / rich_steps)
        detail_bits.append(f"{counts_ep}/{rich_ep if rich_ep else '>30'}")
    median_ratio = float(np.median(ratios))
    ok = median_ratio <= 0.7
    _verdict(capsys, "convergence speed", ok,
             f"median step ratio {median_ratio:.3f} <= 0.7 "
             f"(episodes compact/rich per seed: {', '.join(detail_bits)})")


# ---------------------------------------------------------------------------
# 8. arrival-flow estimation from count history


class _MeasureRecorder(BaseController):
    """Wraps a controller, keeping per-step counts and green masks."""

    def __init__(self, inner):
        self.inner = inner
        self.counts = []
        self.masks = []

    def decide(self, view):
        return self.inner.decide(view)

    def after_step(self, view):
        self.inner.after_step(view)
        self.counts.append(view.counts)  # a tuple: nothing can change it
        self.masks.append(view.green_mask.copy())


def test_flow_estimation_recovers_arrival_rates(capsys):
    net = single_intersection_network(build_standard_intersection(2))
    cfg = net.intersections[0]
    horizon = 280  # two 70 s fixed-time cycles, then two more to measure
    recorder = _MeasureRecorder(FixedTimeController(30.0))
    demand = generate_uniform(720.0, list(cfg.lanes), float(horizon))
    run_episode(net, [recorder], demand, horizon, seed=0)

    counts = np.stack(recorder.counts)
    masks = np.stack(recorder.masks)
    est = estimate_flows(counts[139:280], masks[139:280])

    true_rate = 720.0 / 3600.0
    rel_err = np.abs(est.f_in_per_lane - true_rate) / true_rate
    ok = bool((rel_err <= 0.05).all()) and int(est.in_samples.min()) > 0
    _verdict(capsys, "flow estimation", ok,
             f"f_in per lane {est.f_in_per_lane.tolist()} vs true "
             f"{true_rate:.4f} veh/s; max relative error {rel_err.max():.4f} "
             f"<= 0.05 after two cycles")


# ---------------------------------------------------------------------------
# 9. byte-identical result files on re-run


def test_rerun_reproduces_result_files_exactly(capsys, tmp_path):
    classic = parse_config({
        "network": {"kind": "single", "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": 300.0, "process": "poisson",
                   "seed": 3},
        "controller": {"kind": "webster"},
        "run": {"horizon_s": 500, "episodes": 2, "seeds": [2, 3]},
    })
    rl = parse_config({
        "network": {"kind": "single", "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": 240.0, "process": "poisson",
                   "seed": 5},
        "controller": {"kind": "rl", "agent": {
            "hidden_dims": [8], "batch_size": 4, "replay_capacity": 64,
            "target_sync_interval": 10, "decision_interval_s": 10,
            "epsilon_decay_steps": 20,
        }},
        "run": {"horizon_s": 400, "episodes": 2, "seeds": [5]},
        "train": {"episodes": 4},
    })

    compared, mismatched = [], []
    for name, cfg in (("classic", classic), ("rl", rl)):
        dirs = [tmp_path / f"{name}_{i}" for i in (0, 1)]
        first, second = (run_experiment(cfg, out_dir=str(d))[1] for d in dirs)
        assert len(first) == len(second) and len(first) >= 1
        for path_a, path_b in zip(first, second):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                a, b = fa.read(), fb.read()
            short = path_a.rsplit("/", 1)[-1]
            if len(a) > 60 and a == b:
                compared.append(short)
            else:
                mismatched.append(short)

    ok = not mismatched and len(compared) >= 3  # classic results + rl results + curve
    _verdict(capsys, "determinism", ok,
             f"byte-identical re-runs for {', '.join(compared)}"
             + (f"; MISMATCH: {mismatched}" if mismatched else ""))
