"""Property tests: network metrics pooled over random grids."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import demand as demand_mod
from greenlight import harness
from greenlight.config import build_demand_fn, build_network, parse_config
from greenlight.core import Vehicle
from greenlight.metrics import check_identity, compute_metrics
from greenlight.sim import IntersectionSim, run_episode

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
