"""Step-rule oracles for the point-queue engine, traced by hand."""

import dataclasses

import pytest

from greenlight.core import (
    Approach,
    ConfigError,
    IntersectionConfig,
    LaneId,
    Movement,
    PhaseDefinition,
    Vehicle,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.classic import FixedTimeController
from greenlight.demand import straight_route
from greenlight.metrics import log_totals
from greenlight.sim import (
    CHANGE,
    KEEP,
    BaseController,
    IntersectionSim,
    SimulationError,
    link_time_too_short,
    run_episode,
    validate_demand,
)


def lane(label: str, intersection: int = 0) -> LaneId:
    return LaneId(intersection, Approach(label[0]), Movement(label[1]))


def make_sim(**overrides) -> IntersectionSim:
    return IntersectionSim(build_standard_intersection(2, **overrides))


def delays(log) -> list[int]:
    """Waiting steps (depart - ready) of every departed vehicle, in log order."""
    return [r.depart_s - r.ready_s for r in log.records.values() if r.depart_s is not None]


def arrive(sim: IntersectionSim, vehicle_id: int, label: str, entry_time_s: float) -> None:
    """File a vehicle on lane `label` at its entry step, as `run_episode` does."""
    sim._schedule(vehicle_id, sim.config.lane_index(lane(label)),
                  IntersectionSim.entry_step(entry_time_s))


class KeepPhase(BaseController):
    def decide(self, view):
        return KEEP


class AlwaysChange(BaseController):
    def decide(self, view):
        return CHANGE


class FixedFive(BaseController):
    """Change the moment five green seconds have elapsed."""

    def decide(self, view):
        if view.in_transition:
            return KEEP
        return CHANGE if view.elapsed_green_s >= 5 else KEEP


# -- entry quantization ------------------------------------------------------


@pytest.mark.parametrize(
    "entry_time, expected_step",
    [(0.0, 0), (0.25, 1), (3.0, 3), (2.9999999995, 3), (3.0000000001, 3), (7.5, 8)],
)
def test_entry_step_quantization(entry_time, expected_step):
    assert IntersectionSim.entry_step(entry_time) == expected_step


def test_schedule_rejects_an_entry_step_already_simulated():
    sim = make_sim()
    for _ in range(5):
        sim.step(KEEP)
    with pytest.raises(SimulationError,
                       match=r"vehicle 7: entry step 2 is already simulated \(clock_s=5\)"):
        arrive(sim, 7, "WT", 2.0)
    arrive(sim, 8, "WT", 4.5)  # entry step 5, the next to run
    for _ in range(60):
        sim.step(KEEP)
    assert list(sim.log.records) == [8]
    assert not sim._arrivals


# -- single-vehicle free flow ------------------------------------------------


def test_single_vehicle_full_green_passage():
    # enters at 0, reaches the stop line after 300m/10mps = 30s, and the lane
    # has been green since the start so the discharge credit is saturated:
    # it crosses in the same step it becomes ready.
    sim = make_sim()
    arrive(sim, 7, "WT", 0.0)
    departures = []
    for _ in range(40):
        departures += sim.step(KEEP).departures
    assert departures == [7]
    rec = sim.log.records[7]
    assert (rec.entry_s, rec.ready_s, rec.depart_s) == (0, 30, 30)
    assert delays(sim.log) == [0]


def test_free_flow_vehicle_counts_but_does_not_queue():
    sim = make_sim()
    arrive(sim, 0, "WT", 0.0)
    out = sim.step(KEEP)
    assert out.counts == (1, 0, 0, 0)
    assert out.queues == (0, 0, 0, 0)
    assert out.reward == 0.0
    assert out.stopped_fraction.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_log_refuses_a_vehicle_id_on_two_lanes():
    sim = make_sim()
    arrive(sim, 3, "WT", 0.0)
    arrive(sim, 3, "NT", 0.0)
    sim.step(KEEP)
    with pytest.raises(SimulationError, match="vehicle 3 entered twice"):
        sim.log


def test_red_lane_vehicle_waits_and_is_censored():
    # NT is red under phase 0; with keep-forever the vehicle never departs.
    sim = make_sim()
    arrive(sim, 3, "NT", 0.0)
    rewards = []
    for _ in range(40):
        rewards.append(sim.step(KEEP).reward)
    assert len(sim.log.records) - len(delays(sim.log)) == 1
    # queued (post-movement) from ready=30 through t=39: ten snapshots
    assert rewards[:30] == [0.0] * 30
    assert rewards[30:] == [-1.0] * 10
    assert log_totals(sim.log, 40).censored_waiting == 10


# -- discharge headway -------------------------------------------------------


def test_discharge_every_other_second_at_headway_two():
    # four vehicles ready simultaneously: credit is capped at one vehicle, so
    # the platoon leaves at t = 30, 32, 34, 36.
    sim = make_sim()
    for vid in range(4):
        arrive(sim, vid, "WT", 0.0)
    departs = {}
    queue_trace = []
    for t in range(40):
        out = sim.step(KEEP)
        queue_trace.append(int(out.queues[0]))
        for vid in out.departures:
            departs[vid] = t
    assert [departs[v] for v in range(4)] == [30, 32, 34, 36]
    assert delays(sim.log) == [0, 2, 4, 6]
    # post-movement queue snapshots sum to the summed delays
    assert sum(queue_trace) == 12
    assert queue_trace[30:37] == [3, 3, 2, 2, 1, 1, 0]


def test_credit_resets_on_red():
    # phase cycles with 5s green / 5s transition; a WT vehicle ready at t=30
    # (mid NT-ST green) waits for the t=40 activation, and the first second
    # of green only builds credit 1/2, so it leaves at t=41.
    net = single_intersection_network(build_standard_intersection(2))
    demand = [Vehicle(0, 0.0, (lane("WT"),))]
    result = run_episode(net, [FixedFive()], demand, horizon_s=50)
    rec = result.travel_logs[0].records[0]
    assert (rec.entry_s, rec.ready_s, rec.depart_s) == (0, 30, 41)
    assert result.reward_traces[0].sum() == -11.0


def test_shared_lane_keeps_credit_across_a_switch_with_no_transition():
    # WT is green in both phases and yellow = all-red = 0, so the switch at
    # t = 5 leaves it green: at headway 10 it earns its vehicle's credit over
    # t = 0 .. 9.  NT turns green at the switch and starts from zero.
    wt, et, nt = lane("WT"), lane("ET"), lane("NT")
    cfg = IntersectionConfig(
        lanes=(wt, et, nt),
        phases=(PhaseDefinition(frozenset({wt, et})), PhaseDefinition(frozenset({wt, nt}))),
        road_length_m=10.0,  # at the stop line one step after entry
        saturation_headway_s=10.0, yellow_s=0, all_red_s=0, min_green_s=1,
    )
    sim = IntersectionSim(cfg)
    arrive(sim, 0, "WT", 0.0)
    arrive(sim, 1, "NT", 0.0)
    departs = {}
    for t in range(20):
        for vid in sim.step(CHANGE if t == 5 else KEEP).departures:
            departs[vid] = t
    assert departs == {0: 9, 1: 14}


def test_headway_one_discharges_every_green_second():
    sim = make_sim(saturation_headway_s=1.0)
    for vid in range(3):
        arrive(sim, vid, "WT", 0.0)
    departs = {}
    for t in range(35):
        for vid in sim.step(KEEP).departures:
            departs[vid] = t
    assert [departs[v] for v in range(3)] == [30, 31, 32]


def test_sub_unit_headway_releases_multiple_per_second():
    # h = 0.5: two vehicles per green second once both are at the line.
    sim = make_sim(saturation_headway_s=0.5)
    for vid in range(4):
        arrive(sim, vid, "WT", 0.0)
    departs = {}
    for t in range(35):
        for vid in sim.step(KEEP).departures:
            departs[vid] = t
    assert [departs[v] for v in range(4)] == [30, 30, 31, 31]


# -- phase logic -------------------------------------------------------------


def test_transition_blocks_green_for_five_seconds():
    net = single_intersection_network(build_standard_intersection(2))
    result = run_episode(net, [FixedFive()], demand=[], horizon_s=21)
    phases = result.phase_traces[0].tolist()
    # green 0..4, transition 5..9 (observation keeps reporting the outgoing
    # phase), new phase visible from the activation step onward
    assert phases == [0] * 10 + [1] * 10 + [0]


def test_min_green_and_transition_ignores_are_counted():
    net = single_intersection_network(build_standard_intersection(2))
    result = run_episode(net, [AlwaysChange()], demand=[], horizon_s=20)
    # t=0..4 blocked by min green (5), t=5 accepted, t=6..10 mid-transition
    # (5 ignores), t=11..14 blocked by min green again, t=15 accepted,
    # t=16..19 mid-transition -> 5 + 5 + 4 + 4 = 18
    assert result.ignored_actions == [18]


def test_change_before_min_green_is_ignored_and_phase_kept():
    sim = make_sim()
    out = sim.step(CHANGE)
    assert out.phase_index == 0
    assert sim.state.ignored_actions == 1
    assert sim.state.transition_countdown_s == 0


def test_instantaneous_switch_without_yellow_or_all_red():
    sim = make_sim(yellow_s=0, all_red_s=0)
    arrive(sim, 0, "NT", 0.0)
    for _ in range(30):
        sim.step(KEEP)  # vehicle reaches the NT stop line at t=30 (red)
    out = sim.step(CHANGE)  # elapsed green 30 >= 5: switch this very step
    assert out.phase_index == 1
    assert out.green_mask.tolist() == [False, False, True, True]
    # the new green starts from zero credit: release comes one second later
    assert out.departures == []
    out = sim.step(KEEP)
    assert out.departures == [0]


def test_observation_reports_outgoing_phase_mid_transition():
    sim = make_sim()
    for _ in range(5):
        sim.step(KEEP)
    sim.step(CHANGE)  # t=5: transition begins
    assert sim.state.transition_countdown_s == 5
    view = sim.control_context()
    assert view.phase_index == 0
    assert view.in_transition
    assert not view.green_mask.any()


def test_elapsed_green_freezes_during_transition():
    sim = make_sim()
    for _ in range(5):
        sim.step(KEEP)
    assert sim.state.green_elapsed_s == 5
    sim.step(CHANGE)
    frozen = sim.state.green_elapsed_s
    sim.step(KEEP)
    assert sim.state.green_elapsed_s == frozen
    for _ in range(4):
        sim.step(KEEP)  # countdown runs out; new phase activates
    assert sim.state.current_phase_index == 1
    assert sim.state.green_elapsed_s == 1  # the activation step was green


def test_invalid_action_raises():
    sim = make_sim()
    with pytest.raises(SimulationError):
        sim.step(2)


# -- measures ----------------------------------------------------------------


def test_waiting_measure_counts_post_movement_snapshots():
    sim = make_sim()
    arrive(sim, 0, "NT", 0.0)
    outs = [sim.step(KEEP) for _ in range(33)]
    # ready at 30; waiting measure = snapshots seen so far (1 at t=30, ...)
    assert outs[29].waiting_steps[2] == 0
    assert outs[30].waiting_steps[2] == 1
    assert outs[32].waiting_steps[2] == 3
    assert outs[32].stopped_fraction[2] == 1.0


def test_one_read_only_view_per_step_clocked_by_steps_run():
    sim = make_sim()
    arrive(sim, 0, "NT", 0.0)
    before = sim.control_context()
    assert (before.clock_s, before.reward, before.departures) == (0, 0.0, [])
    for steps in range(1, 32):
        view = sim.step(KEEP)
        # the next decide reads the view the step returned, so neither may change it
        assert sim.control_context() is view
        assert view.clock_s == steps
    for measure in (view.queues, view.counts, view.waiting_steps):
        assert type(measure) is tuple
        with pytest.raises(TypeError):
            measure[2] = 0
    for array in (view.stopped_fraction, view.green_mask):
        with pytest.raises(ValueError):
            array[2] = 0


def test_occupancy_vector_cells():
    sim = make_sim()
    arrive(sim, 0, "WT", 0.0)
    sim.step(KEEP)
    # after one step the vehicle is 10m down a 300m lane: cell 0 of 4
    assert sim.occupancy_vector(4).tolist() == [1, 0, 0, 0] + [0] * 12
    for _ in range(9):
        sim.step(KEEP)
    # at 100m it sits in cell 1 (75m cells)
    assert sim.occupancy_vector(4)[:4].tolist() == [0, 1, 0, 0]


def test_occupancy_vector_queued_vehicles_stack_from_stop_line():
    sim = make_sim()
    for vid in range(3):
        arrive(sim, vid, "NT", 0.0)
    for _ in range(31):
        sim.step(KEEP)
    # all three queued on NT (index 2): ranks at 300, 292.5, 285 m -> cell 3
    occ = sim.occupancy_vector(4)
    assert occ[2 * 4 : 3 * 4].tolist() == [0, 0, 0, 3]
    with pytest.raises(ConfigError):
        sim.occupancy_vector(0)


# -- episode orchestration ---------------------------------------------------


def test_run_episode_requires_one_controller_per_intersection():
    net = single_intersection_network(build_standard_intersection(2))
    with pytest.raises(ConfigError):
        run_episode(net, [], demand=[], horizon_s=10)
    with pytest.raises(ConfigError):
        run_episode(net, [KeepPhase()], demand=[], horizon_s=0)


def test_validate_demand_rejects_missing_lane():
    net = single_intersection_network(build_standard_intersection(2))
    bad = [Vehicle(0, 0.0, (lane("WL"),))]
    with pytest.raises(ConfigError):
        validate_demand(net, bad)
    with pytest.raises(ConfigError):
        run_episode(net, [KeepPhase()], bad, horizon_s=10)


@pytest.mark.parametrize("layout", ["alone", "after 500 sharing a valid route",
                                    "shared by 50"])
@pytest.mark.parametrize("grid, phases, route, match", [
    # 0 -> 2 on a 1x3 grid skips intersection 1: the east exit of 0 feeds 1
    ((1, 3), 2, (lane("WT", 0), lane("WT", 2)), "cannot reach 2:WT from 0:WT"),
    ((1, 3), 2, (lane("WT", 0), lane("WT", 0)), "cannot reach 0:WT from 0:WT"),
    # a left-turn loop round a 2x2 grid follows every link back into 2
    ((2, 2), 4, (lane("WT", 2), lane("WL", 3), lane("SL", 1), lane("EL", 0), lane("NL", 2)),
     "enters an intersection twice"),
])
def test_validate_demand_rejects_unlinked_hops_and_revisits(grid, phases, route, match, layout):
    """Routes are checked once per route object, so a bad route must be found
    behind many vehicles sharing a good one, and a bad route shared by many
    vehicles must be blamed on the first of them."""
    net = build_grid_network(*grid, build_standard_intersection(phases))
    valid = straight_route(net, lane("WT", 0))
    if layout == "alone":
        demand, first_bad = [Vehicle(0, 0.0, route)], 0
    elif layout == "shared by 50":
        demand = ([Vehicle(i, 0.0, valid) for i in range(10)]
                  + [Vehicle(i, 1.0, route) for i in range(10, 60)])
        first_bad = 10
    else:
        demand = [Vehicle(i, 0.0, valid) for i in range(500)] + [Vehicle(500, 1.0, route)]
        first_bad = 500
    with pytest.raises(ConfigError, match=f"vehicle {first_bad} .*{match}"):
        validate_demand(net, demand)
    decisions = []

    class Recording(KeepPhase):
        def decide(self, view):
            decisions.append(view.clock_s)
            return KEEP

    with pytest.raises(ConfigError, match=f"vehicle {first_bad} .*{match}"):
        run_episode(net, [Recording() for _ in range(net.intersection_count)], demand,
                    horizon_s=400)
    assert decisions == []


def test_validate_demand_rejects_a_shared_vehicle_id_before_any_step():
    """Routing and logs are keyed by vehicle id, so a second vehicle 5 would
    take over the first one's route: the first would never reach
    intersection 1, yet the episode would count two network departures."""
    net = build_grid_network(1, 2, build_standard_intersection(2))
    demand = [Vehicle(5, 0.0, (lane("WT", 0), lane("WT", 1))),
              Vehicle(5, 0.0, (lane("NT", 1),))]
    with pytest.raises(ConfigError, match="vehicle id 5 is used by more than one vehicle"):
        validate_demand(net, demand)
    decisions = []

    class Recording(KeepPhase):
        def decide(self, view):
            decisions.append(view.clock_s)
            return KEEP

    with pytest.raises(ConfigError, match="vehicle id 5"):
        run_episode(net, [Recording(), Recording()], demand, horizon_s=200)
    assert decisions == []


def test_route_advances_across_grid_link():
    # 1x2 grid, both phase-0 greens include WT: departs intersection 0 at 30,
    # travels the 30s link, enters intersection 1 at 60, ready at 90, departs
    # at 90 (credit saturated by then).
    net = build_grid_network(1, 2, build_standard_intersection(2))
    route = (lane("WT", 0), lane("WT", 1))
    demand = [Vehicle(0, 0.0, route)]
    controllers = [KeepPhase(), KeepPhase()]
    result = run_episode(net, controllers, demand, horizon_s=120)
    rec0 = result.travel_logs[0].records[0]
    rec1 = result.travel_logs[1].records[0]
    assert (rec0.entry_s, rec0.depart_s) == (0, 30)
    assert (rec1.entry_s, rec1.ready_s, rec1.depart_s) == (60, 90, 90)
    assert result.network_departures == 1


def test_partial_route_is_not_a_network_departure():
    net = build_grid_network(1, 2, build_standard_intersection(2))
    route = (lane("WT", 0), lane("WT", 1))
    demand = [Vehicle(0, 0.0, route)]
    controllers = [KeepPhase(), KeepPhase()]
    result = run_episode(net, controllers, demand, horizon_s=70)
    assert len(delays(result.travel_logs[0])) == 1
    assert len(delays(result.travel_logs[1])) == 0
    assert result.network_departures == 0


def test_zero_link_time_with_multi_hop_routes_is_rejected_before_the_first_step():
    # with a 0 s link, a vehicle leaving intersection 1 would be scheduled into
    # the step intersection 0 has just simulated, and vanish from the episode
    grid = build_grid_network(1, 2, build_standard_intersection(2))
    route = (lane("ET", 1), lane("ET", 0))
    demand = [Vehicle(i, 3.0 * i, route) for i in range(20)]
    decisions = []

    class Recording(FixedTimeController):
        def decide(self, view):
            decisions.append(view.clock_s)
            return super().decide(view)

    flat = dataclasses.replace(grid, link_travel_time_s=0.0)
    with pytest.raises(ConfigError, match="link_travel_time_s"):
        run_episode(flat, [Recording(), Recording()], demand, horizon_s=400)
    assert decisions == []
    # rounding loses this link time at steps 16 to 31 but not at the last step, 59
    tiny = dataclasses.replace(grid, link_travel_time_s=1.000001e-9)
    assert link_time_too_short(1.000001e-9, 21) and not link_time_too_short(1.000001e-9, 16)
    with pytest.raises(ConfigError, match="link_travel_time_s"):
        run_episode(tiny, [Recording(), Recording()], demand, horizon_s=60)
    assert decisions == []
    # single-hop demand needs no link and still runs
    run_episode(flat, [Recording(), Recording()], [Vehicle(0, 0.0, route[:1])], horizon_s=5)
    assert len(decisions) == 10


def test_sub_second_link_time_enters_on_the_next_step():
    # entry at ceil(depart + link): every vehicle reaches intersection 0
    net = dataclasses.replace(build_grid_network(1, 2, build_standard_intersection(2)),
                              link_travel_time_s=0.5)
    route = (lane("ET", 1), lane("ET", 0))
    demand = [Vehicle(i, 3.0 * i, route) for i in range(20)]
    result = run_episode(net, [FixedTimeController(), FixedTimeController()], demand,
                         horizon_s=400)
    first, second = result.travel_logs[1].records, result.travel_logs[0].records
    assert result.network_departures == 20
    assert all(second[v].entry_s == first[v].depart_s + 1 for v in range(20))


def test_exact_credit_arithmetic_is_fractional():
    # h = 10: each green second earns exactly 1/10 of a vehicle.  The first
    # vehicle finds the credit saturated; each later one needs exactly ten
    # seconds of green.  A float credit sums ten 0.1s to 0.9999999999999999
    # and releases them at 41 and 52 instead.
    sim = make_sim(saturation_headway_s=10.0)
    for vid in range(3):
        arrive(sim, vid, "WT", 0.0)
    departs = {}
    for t in range(60):
        for vid in sim.step(KEEP).departures:
            departs[vid] = t
    assert [departs[v] for v in range(3)] == [30, 40, 50]
