"""Fixed-time / SOTL / volume-based timing oracles."""

import numpy as np
import pytest

from greenlight.classic import (
    FixedTimeController,
    FlowEstimate,
    OversaturatedError,
    SotlController,
    WebsterController,
    WebsterParams,
    critical_volumes_vph,
    discharge_capacity_vph,
    estimate_flows,
    fixed_time_decide,
    sotl_decide,
    webster_cycle_length,
    webster_phase_splits,
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
from greenlight.demand import ArrivalProcess, generate_uniform
from greenlight.sim import CHANGE, KEEP, BaseController, run_episode


def lane(label: str) -> LaneId:
    return LaneId(0, Approach(label[0]), Movement(label[1]))


# -- cycle length ------------------------------------------------------------


def test_cycle_length_midrange():
    # V_c=900, h=2: denominator 0.5; C = 2*5/0.5 = 20
    params = WebsterParams()
    assert webster_cycle_length(900.0, params, phase_count=2) == 20.0


def test_cycle_length_clamps_low():
    params = WebsterParams()
    # V_c=0 gives raw C = 10s, below the 20s floor
    assert webster_cycle_length(0.0, params, phase_count=2) == 20.0


def test_cycle_length_saturated_denominator():
    params = WebsterParams()
    # V_c*h/3600 >= 1: fall back to the longest cycle instead of exploding
    assert webster_cycle_length(1800.0, params, phase_count=2) == 180.0
    assert webster_cycle_length(5000.0, params, phase_count=2) == 180.0


def test_cycle_length_unclamped_value():
    params = WebsterParams()
    # V_c=1620: denominator 0.1, raw C = 100
    assert webster_cycle_length(1620.0, params, phase_count=2) == pytest.approx(100.0)


def test_cycle_length_rejects_negative_volume():
    with pytest.raises(ConfigError):
        webster_cycle_length(-1.0, WebsterParams(), phase_count=2)


# -- green splits ------------------------------------------------------------


def test_splits_proportional_without_clamping():
    params = WebsterParams(green_bounds_s=(0.0, 90.0))
    splits = webster_phase_splits([600.0, 300.0], 20.0, params)
    assert splits == pytest.approx([20.0 / 3.0, 10.0 / 3.0])
    assert sum(splits) == pytest.approx(10.0, abs=1e-12)


def test_splits_min_green_clamp_redistributes():
    params = WebsterParams(green_bounds_s=(3.0, 90.0))
    # shares would be [10, 0]; the zero-volume phase is lifted to 3 and the
    # remainder goes to the loaded phase
    assert webster_phase_splits([1000.0, 0.0], 20.0, params) == pytest.approx([7.0, 3.0])


def test_splits_default_bounds_clamp_light_phase():
    splits = webster_phase_splits([600.0, 300.0], 20.0, WebsterParams())
    assert splits == pytest.approx([5.0, 5.0])


def test_splits_three_phase_exact_sum():
    params = WebsterParams()
    splits = webster_phase_splits([400.0, 300.0, 200.0], 32.0, params)
    assert splits[2] == pytest.approx(5.0)  # clamped at min green
    assert sum(splits) == pytest.approx(17.0, abs=1e-12)
    assert splits[0] > splits[1] > splits[2]


def test_splits_infeasible_bounds_raise():
    params = WebsterParams()
    with pytest.raises(OversaturatedError):
        webster_phase_splits([600.0, 600.0], 200.0, params)  # G=190 > 2*90
    with pytest.raises(OversaturatedError):
        webster_phase_splits([600.0, 600.0], 9.0, params)  # G<0


def test_splits_capacity_enforcement():
    params = WebsterParams(green_bounds_s=(3.0, 90.0))
    # [7, 3] passes the pure arithmetic but 7/20 < 1000/1800: flagged only
    # when capacity enforcement is requested
    webster_phase_splits([1000.0, 0.0], 20.0, params)
    with pytest.raises(OversaturatedError):
        webster_phase_splits([1000.0, 0.0], 20.0, params, enforce_capacity=True)


def test_splits_reject_negative_volume():
    with pytest.raises(ConfigError):
        webster_phase_splits([-1.0, 5.0], 20.0, WebsterParams())


# -- discrete discharge capacity --------------------------------------------


def test_discharge_capacity_floor():
    # 5s green at 2s headway releases 2 vehicles, not 2.5: 360 vph at C=20
    assert discharge_capacity_vph(5.0, 20.0, 2.0) == pytest.approx(360.0)
    assert discharge_capacity_vph(6.0, 21.0, 2.0) == pytest.approx(3 * 3600.0 / 21.0)
    # fractional green runs to the next whole second before the change fires
    assert discharge_capacity_vph(4.2, 20.0, 2.0) == pytest.approx(360.0)
    with pytest.raises(ConfigError):
        discharge_capacity_vph(5.0, 0.0, 2.0)


# -- flow estimation ---------------------------------------------------------


def test_estimate_flows_arrival_rate_from_red_steps():
    counts = np.array([[3.0], [4.0], [5.0], [6.0]])
    masks = np.zeros((4, 1), dtype=bool)
    est = estimate_flows(counts, masks)
    assert est.f_in_per_lane[0] == pytest.approx(1.0)
    assert est.in_samples[0] == 3
    assert est.f_in_valid()[0]
    # green throughout: no arrival sample
    assert not estimate_flows(counts, ~masks).f_in_valid()[0]


def test_estimate_flows_shape_errors():
    with pytest.raises(ConfigError):
        estimate_flows(np.zeros((1, 2)), np.zeros((1, 2), dtype=bool))
    with pytest.raises(ConfigError):
        estimate_flows(np.zeros((4, 2)), np.zeros((4, 3), dtype=bool))


def test_critical_volumes_take_heaviest_served_lane():
    cfg = build_standard_intersection(2)
    f_in = np.array([0.1, 0.2, 0.05, 0.15])  # veh/s per lane WT,ET,NT,ST
    assert critical_volumes_vph(cfg, f_in) == pytest.approx([720.0, 540.0])


# -- decision rules ----------------------------------------------------------


def test_fixed_time_decide():
    assert fixed_time_decide(29.0, 30.0) == KEEP
    assert fixed_time_decide(30.0, 30.0) == CHANGE
    assert fixed_time_decide(45.0, 30.0) == CHANGE
    with pytest.raises(ConfigError):
        fixed_time_decide(-1.0, 30.0)


def test_sotl_decide_thresholds():
    # switch needs red pressure AND an exhausted green
    assert sotl_decide([0], [5], 10.0, 4.0, 2.0, 5.0) == CHANGE
    assert sotl_decide([0], [4], 10.0, 4.0, 2.0, 5.0) == KEEP  # not strictly above
    assert sotl_decide([2], [5], 10.0, 4.0, 2.0, 5.0) == KEEP  # green still busy
    assert sotl_decide([1], [5], 10.0, 4.0, 2.0, 5.0) == CHANGE
    assert sotl_decide([0], [9], 4.0, 4.0, 2.0, 5.0) == KEEP  # min green unmet
    with pytest.raises(ConfigError):
        sotl_decide([0], [5], 10.0, -1.0, 2.0, 5.0)


def test_webster_params_validation():
    with pytest.raises(ConfigError):
        WebsterParams(cycle_bounds_s=(0.0, 180.0))
    with pytest.raises(ConfigError):
        WebsterParams(green_bounds_s=(10.0, 5.0))
    with pytest.raises(ConfigError):
        WebsterParams(saturation_headway_s=0.0)
    with pytest.raises(ConfigError):
        WebsterParams(measurement_window_s=1)


# -- controllers on the simulator -------------------------------------------


def test_fixed_time_controller_cycle():
    net = single_intersection_network(build_standard_intersection(2))
    result = run_episode(net, [FixedTimeController(30.0)], demand=[], horizon_s=71)
    phases = result.phase_traces[0]
    # 30s green + 5s transition per phase: 70s cycle
    assert phases[34] == 0 and phases[35] == 1
    assert phases[69] == 1 and phases[70] == 0


def test_fixed_time_controller_rejects_nonpositive_duration():
    with pytest.raises(ConfigError):
        FixedTimeController(0.0)


def test_sotl_controller_switches_under_red_pressure():
    cfg = build_standard_intersection(2)
    net = single_intersection_network(cfg)
    lanes = list(cfg.lanes)
    # heavy NS, empty WE: the controller should abandon the initial WE green
    rates = {l: (600.0 if l.approach in (Approach.N, Approach.S) else 0.0) for l in lanes}
    demand = generate_uniform(rates, lanes, 300.0)
    result = run_episode(net, [SotlController(cfg)], demand, horizon_s=600)
    assert 1 in result.phase_traces[0]
    assert result.travel_logs[0].departed_count() > 0


def test_webster_controller_warmup_then_replan():
    cfg = build_standard_intersection(2)
    net = single_intersection_network(cfg)
    lanes = list(cfg.lanes)
    demand = generate_uniform(300.0, lanes, 700.0)
    ctrl = WebsterController(cfg)
    assert ctrl.plan.source == "fallback"
    assert ctrl.plan.splits_s == [30.0, 30.0]
    run_episode(net, [ctrl], demand, horizon_s=700)
    assert ctrl.replan_log, "no replan happened within the horizon"
    t0, plan0 = ctrl.replan_log[0]
    assert t0 == 300
    # symmetric 300vph/lane: V_c = 600, C = 10/(2/3) -> clamped to 20; equal
    # splits hit the 5s minimum green and the discrete capacity (360 vph/lane)
    # still covers the demand
    assert plan0.source == "estimated"
    assert plan0.cycle_s == pytest.approx(20.0)
    assert plan0.splits_s == pytest.approx([5.0, 5.0])


class _MeasureRecorder(BaseController):
    """Wraps a controller, keeping each step's post-step counts and green mask."""

    def __init__(self, inner):
        self.inner = inner
        self.counts = []
        self.masks = []

    def decide(self, ctx):
        return self.inner.decide(ctx)

    def after_step(self, outcome):
        self.inner.after_step(outcome)
        self.counts.append(outcome.measures.counts.copy())
        self.masks.append(outcome.measures.green_mask.copy())


def test_webster_replans_from_exactly_the_last_window_plus_one_observations():
    cfg = build_standard_intersection(2)
    net = single_intersection_network(cfg)
    window, horizon = 20, 200
    params = WebsterParams(measurement_window_s=window)
    ctrl = WebsterController(cfg, params, warmup_phase_s=10.0)
    recorder = _MeasureRecorder(ctrl)
    rates = dict(zip(cfg.lanes, [500.0, 300.0, 200.0, 400.0]))
    demand = generate_uniform(rates, list(cfg.lanes), float(horizon),
                              ArrivalProcess.POISSON, seed=4)
    run_episode(net, [recorder], demand, horizon_s=horizon)

    # before step 0 the controller holds empty lanes under an all-red mask
    counts = [np.zeros(cfg.lane_count)] + recorder.counts
    masks = [np.zeros(cfg.lane_count, dtype=bool)] + recorder.masks
    expected = []
    for clock in range(window, horizon, window):
        # decide at `clock` has seen the outcomes of steps 0 .. clock - 1
        est = estimate_flows(np.stack(counts[clock - window:clock + 1]),
                             np.stack(masks[clock - window:clock + 1]))
        if est.f_in_valid().all():
            volumes = critical_volumes_vph(cfg, est.f_in_per_lane)
            cycle = webster_cycle_length(sum(volumes), params, cfg.phase_count)
            expected.append((clock, ctrl._feasible_plan(volumes, cycle)))
    assert len(expected) >= 3
    assert ctrl.replan_log == expected


def test_webster_feasible_plan_stretches_cycle_for_discrete_capacity():
    cfg = build_standard_intersection(2)
    ctrl = WebsterController(cfg)
    # formula cycle for V=[400, 200] clamps to 20s, but 5s greens discharge
    # only 360 vph; the first discretely feasible cycle is 21s with [6, 5]
    plan = ctrl._feasible_plan([400.0, 200.0], 20.0)
    assert plan.source == "extended"
    assert plan.cycle_s == pytest.approx(21.0)
    assert plan.splits_s == pytest.approx([6.0, 5.0])


def test_webster_feasible_plan_saturated_fallback():
    cfg = build_standard_intersection(2)
    ctrl = WebsterController(cfg)
    plan = ctrl._feasible_plan([1800.0, 1800.0], 180.0)
    assert plan.source == "saturated"
    assert plan.cycle_s == pytest.approx(180.0)
    assert plan.splits_s == pytest.approx([85.0, 85.0])
