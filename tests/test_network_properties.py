"""Property tests: network metrics pooled over random grids, and the
episode traces against what each step's view reported."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import demand as demand_mod
from greenlight import harness
from greenlight.config import build_demand_fn, build_network, parse_config
from greenlight.core import (
    Approach,
    LaneId,
    Movement,
    PhaseDefinition,
    Vehicle,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.metrics import check_identity, compute_metrics
from greenlight.sim import (
    CHANGE,
    KEEP,
    BaseController,
    IntersectionSim,
    run_episode,
)

DEMAND_END_S = 120
DRAINED_HORIZON_S = 600  # every drawn fixed-time and Webster episode drains by then
SUMMED = ("total_waiting_events", "trace_waiting_events", "vehicles", "throughput",
          "entered", "pending")


@st.composite
def grid_episodes(draw):
    """A random grid under fixed-time or Webster timing, straight-route demand
    that stops early, and a horizon that is either long enough to drain or cut."""
    cfg = parse_config({
        "network": {"kind": "grid", "rows": draw(st.integers(1, 2)),
                    "cols": draw(st.integers(1, 3)), "phases": 2},
        "demand": {"kind": "uniform", "rate_vph": draw(st.sampled_from([100.0, 250.0, 400.0])),
                   "process": "poisson", "seed": draw(st.integers(0, 2**16))},
        "controller": {"kind": draw(st.sampled_from(["fixedtime", "webster"])),
                       "phase_duration_s": draw(st.sampled_from([10.0, 30.0])),
                       "webster": {"measurement_window_s": 60}},
    })
    cut = draw(st.none() | st.integers(1, DRAINED_HORIZON_S - 1))
    return cfg, cut


def vehicle_states(result, network, demand):
    """(entered, on a lane, in a link) at the horizon, walking each route."""
    entered = on_lane = in_link = 0
    for veh in demand:
        records = [result.travel_logs[lane.intersection].records.get(veh.id)
                   for lane in veh.route]
        hops = records.index(None) if None in records else len(records)
        assert all(r is None for r in records[hops:])
        if IntersectionSim.entry_step(veh.entry_time_s) >= result.horizon_s:
            assert hops == 0
            continue
        assert hops > 0
        entered += 1
        last = records[hops - 1]
        if last.depart_s is None:
            on_lane += 1
        elif hops < len(records):
            due = IntersectionSim.entry_step(last.depart_s + network.link_travel_time_s)
            assert due >= result.horizon_s
            in_link += 1
    return entered, on_lane, in_link


@settings(max_examples=25, deadline=None)
@given(grid_episodes())
def test_pooled_metrics_sum_the_intersections_and_conserve_vehicles(episode):
    cfg, cut = episode
    network = build_network(cfg)
    demand = build_demand_fn(cfg.demand, network, 0, DEMAND_END_S)(0)
    result = run_episode(network, harness.make_classic_controllers(cfg, network), demand,
                         cut or DRAINED_HORIZON_S)
    per = [compute_metrics(log, trace)
           for log, trace in zip(result.travel_logs, result.reward_traces)]
    pooled = harness.aggregate_metrics(result)

    for name in SUMMED:
        assert getattr(pooled, name) == sum(getattr(m, name) for m in per), name
    if network.intersection_count == 1:
        assert repr(vars(pooled)) == repr(vars(per[0]))

    entered, on_lane, in_link = vehicle_states(result, network, demand)
    assert on_lane == pooled.pending
    assert entered == result.network_departures + on_lane + in_link
    if cut is None:
        assert on_lane == in_link == 0
    if pooled.pending == 0:
        for m in per + [pooled]:
            if m.vehicles:
                assert check_identity(m) == 0


@st.composite
def grid_demands(draw):
    """A 1x2 to 3x3 grid with uniform or peaked, deterministic or Poisson demand."""
    rows, cols = draw(st.tuples(st.integers(1, 3), st.integers(1, 3))
                      .filter(lambda shape: shape[0] * shape[1] > 1))
    process = draw(st.sampled_from(["deterministic", "poisson"]))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        demand = {"kind": "uniform", "rate_vph": draw(st.sampled_from([150.0, 400.0])),
                  "process": process, "seed": seed}
    else:
        start = draw(st.integers(0, 200))
        demand = {"kind": "peaked", "base_vph": 100.0, "peak_vph": 600.0,
                  "peak_windows": [[start, start + draw(st.integers(30, 100))]],
                  "process": process, "seed": seed}
    cfg = parse_config({"network": {"kind": "grid", "rows": rows, "cols": cols,
                                    "phases": draw(st.sampled_from([2, 4]))},
                        "demand": demand})
    return cfg, draw(st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(grid_demands())
def test_grid_demand_routes_each_entry_lane_once_and_shares_the_route(drawn):
    cfg, episode = drawn
    network = build_network(cfg)
    realize = demand_mod.realize
    seen = []

    def counting_realize(spec, route_for_lane=None):
        calls = Counter()

        def counting_route(lane):
            calls[lane] += 1
            return route_for_lane(lane)

        seen.append((spec, calls))
        return realize(spec, counting_route)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(demand_mod, "realize", counting_realize)
        demand = build_demand_fn(cfg.demand, network, 7, 300.0)(episode)
    (spec, calls), = seen

    # the reference routes every vehicle with its own straight_route call
    reference = [Vehicle(v.id, v.entry_time_s, demand_mod.straight_route(network, v.route[0]))
                 for v in realize(spec)]
    assert [(v.id, v.entry_time_s, v.route) for v in demand] == \
        [(v.id, v.entry_time_s, v.route) for v in reference]

    shared = {}
    for veh in demand:
        assert veh.route is shared.setdefault(veh.route[0], veh.route)
    assert calls == Counter(set(shared))


# -- episode traces ----------------------------------------------------------


class TraceRecorder(BaseController):
    """Passes a controller's actions through and records, in ``after_step``,
    the reward, phase and queues of each step's view."""

    def __init__(self, inner: BaseController) -> None:
        self.inner = inner
        self.rewards: list[float] = []
        self.phases: list[int] = []
        self.queues: list[tuple[int, ...]] = []

    def decide(self, view):
        return self.inner.decide(view)

    def after_step(self, view):
        self.inner.after_step(view)
        self.rewards.append(view.reward)
        self.phases.append(view.phase_index)
        self.queues.append(view.queues)


class Scripted(BaseController):
    """Plays back a fixed keep/change sequence."""

    def __init__(self, actions: list[int]) -> None:
        self.actions = iter(actions)

    def decide(self, view):
        return next(self.actions)


class KeepPhase(BaseController):
    def decide(self, view):
        return KEEP


def run_recorded(network, controllers, demand, horizon):
    """Run an episode under recorders and check that its three traces hold,
    byte for byte, what the views reported at every step."""
    recorders = [TraceRecorder(ctrl) for ctrl in controllers]
    result = run_episode(network, recorders, demand, horizon)
    for i, (node, rec) in enumerate(zip(network.intersections, recorders)):
        expected = (np.array(rec.rewards, dtype=np.float64),
                    np.array(rec.phases, dtype=np.int64),
                    np.array(rec.queues, dtype=np.int64).reshape(horizon, node.lane_count))
        traces = (result.reward_traces[i], result.phase_traces[i], result.queue_traces[i])
        for trace, want in zip(traces, expected):
            assert (trace.dtype, trace.shape, trace.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
    return result


def without_transition(cfg):
    """The same experiment with no yellow or all-red step between phases."""
    return dataclasses.replace(cfg, network=dataclasses.replace(cfg.network, yellow_s=0,
                                                                all_red_s=0))


@settings(max_examples=20, deadline=None)
@given(grid_episodes(), st.booleans())
def test_grid_traces_are_the_views_byte_for_byte(episode, no_transition):
    cfg, cut = episode
    if no_transition:
        cfg = without_transition(cfg)
    network = build_network(cfg)
    demand = build_demand_fn(cfg.demand, network, 0, DEMAND_END_S)(0)
    run_recorded(network, harness.make_classic_controllers(cfg, network), demand,
                 cut or DRAINED_HORIZON_S)


@settings(max_examples=15, deadline=None)
@given(grid_demands(), st.integers(1, 300), st.sampled_from(["fixedtime", "sotl"]),
       st.booleans())
def test_peaked_and_four_phase_grid_traces_are_the_views(drawn, horizon, kind, no_transition):
    cfg, episode = drawn
    if no_transition:
        cfg = without_transition(cfg)
    network = build_network(cfg)
    demand = build_demand_fn(cfg.demand, network, 7, 300.0)(episode)
    run_recorded(network, harness.make_classic_controllers(cfg, network, kind), demand, horizon)


@st.composite
def single_episodes(draw):
    """One intersection, standard or with a lane of each phase also green in
    the next, with or without yellow and all-red; demand on a few lanes up
    to the horizon, so a cut finds vehicles queued and in free flow."""
    yellow, all_red = draw(st.sampled_from([(0, 0), (1, 0), (3, 2)]))
    cfg = build_standard_intersection(
        draw(st.sampled_from([2, 4])), yellow_s=yellow, all_red_s=all_red,
        min_green_s=draw(st.integers(1, 6)),
        saturation_headway_s=draw(st.sampled_from([0.5, 2.0, 2.2])),
        road_length_m=draw(st.sampled_from([10.0, 100.0, 300.0])),
    )
    if draw(st.booleans()):
        green = [set(phase.green_lanes) for phase in cfg.phases]
        for k in range(cfg.phase_count):
            shared = draw(st.sampled_from(cfg.green_lane_indices(k)))
            green[(k + 1) % cfg.phase_count].add(cfg.lanes[shared])
        cfg = dataclasses.replace(
            cfg, phases=tuple(PhaseDefinition(frozenset(g)) for g in green))
    horizon = draw(st.integers(1, 120))
    lanes = cfg.lanes[:draw(st.integers(1, cfg.lane_count))]
    arrivals = draw(st.lists(
        st.tuples(st.sampled_from(lanes), st.floats(0.0, horizon, allow_nan=False)),
        max_size=60,
    ))
    actions = draw(st.lists(st.sampled_from([KEEP, KEEP, KEEP, CHANGE]),
                            min_size=horizon, max_size=horizon))
    demand = [Vehicle(vid, entry, (lane,)) for vid, (lane, entry) in enumerate(arrivals)]
    return single_intersection_network(cfg), Scripted(actions), demand, horizon


@settings(max_examples=100, deadline=None)
@given(single_episodes())
def test_single_intersection_traces_are_the_views_byte_for_byte(episode):
    network, controller, demand, horizon = episode
    run_recorded(network, [controller], demand, horizon)


def test_a_cut_horizon_leaves_queued_and_free_flow_vehicles_in_the_traces():
    # NT is red under phase 0, which never changes; a vehicle every 2 s
    # reaches the stop line 30 s after it enters
    cfg = build_standard_intersection(2)
    nt = LaneId(0, Approach.N, Movement.T)
    demand = [Vehicle(i, 2.0 * i, (nt,)) for i in range(50)]
    result = run_recorded(single_intersection_network(cfg), [KeepPhase()],
                          demand, 60)
    # entries 0, 2, .., 28 queue by step 59; entries 30, .., 58 are in free flow
    assert result.queue_traces[0][-1].tolist() == [15 if j == cfg.lane_index(nt) else 0
                                                  for j in range(cfg.lane_count)]
    assert sum(r.ready_s >= 60 for r in result.travel_logs[0].records.values()) == 15
