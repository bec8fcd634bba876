"""Property tests: the point-queue engine against per-vehicle references."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight.classic import SotlController
from greenlight.core import (
    Approach,
    IntersectionConfig,
    LaneId,
    Movement,
    PhaseDefinition,
    Vehicle,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.demand import straight_route
from greenlight.metrics import EpisodeMetrics, log_totals, pooled_metrics
from greenlight.sim import (
    CHANGE,
    KEEP,
    BaseController,
    IntersectionSim,
    TravelLog,
    _VehicleRecord,
    run_episode,
)

HEADWAYS = [1 / 3, 0.5, 0.7, 2.0, 2.2, 10.0]
LANE_IDS = [LaneId(0, a, m) for a in Approach for m in Movement]


@st.composite
def overlapping_intersection(draw, **timing):
    """2 to 6 lanes in 2 to 4 phases, each phase sharing a drawn lane with
    the next (cyclically), so a lane can stay green across a phase switch."""
    lanes = tuple(draw(st.permutations(LANE_IDS))[:draw(st.integers(2, 6))])
    phase_count = draw(st.integers(2, 4))
    phases = [draw(st.sets(st.sampled_from(range(len(lanes))), min_size=1))
              for _ in range(phase_count)]
    for k in range(phase_count):
        shared = draw(st.sampled_from(range(len(lanes))))
        phases[k].add(shared)
        phases[(k + 1) % phase_count].add(shared)
    for j in range(len(lanes)):  # every lane must be green in some phase
        phases[j % phase_count].add(j)
    return IntersectionConfig(
        lanes=lanes,
        phases=tuple(PhaseDefinition(frozenset(lanes[j] for j in p)) for p in phases),
        **timing,
    )


@st.composite
def scenarios(draw, min_horizon=1, overlapping=None):
    """A random intersection, demand and keep/change action sequence.  The
    intersection is a standard one, whose phases share no lane, or (always
    when ``overlapping``, else half the time) one with overlapping phases.
    Half the intersections switch with no yellow or all-red step, so a lane
    shared by consecutive phases keeps its discharge credit."""
    no_transition = draw(st.booleans())
    timing = dict(
        saturation_headway_s=draw(st.sampled_from(HEADWAYS)),
        yellow_s=0 if no_transition else draw(st.integers(0, 3)),
        all_red_s=0 if no_transition else draw(st.integers(0, 2)),
        min_green_s=draw(st.integers(1, 8)),
        road_length_m=draw(st.sampled_from([100.0, 180.0, 300.0])),
        free_flow_speed_mps=draw(st.sampled_from([7.0, 10.0, 13.3])),
    )
    if overlapping or (overlapping is None and draw(st.booleans())):
        cfg = draw(overlapping_intersection(**timing))
    else:
        cfg = build_standard_intersection(draw(st.sampled_from([2, 4])), **timing)
    horizon = draw(st.integers(min_horizon, 160))
    busy_lanes = draw(st.integers(1, cfg.lane_count))  # few busy lanes build long queues
    arrivals = draw(st.lists(
        st.tuples(st.integers(0, busy_lanes - 1), st.floats(0.0, horizon, allow_nan=False)),
        max_size=60,
    ))
    change_prob = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actions = [CHANGE if rng.random() < change_prob else KEEP for _ in range(horizon)]
    return cfg, arrivals, actions


def red_steps(transition_s, phase_trace, countdown_at_end):
    """Yellow/all-red steps: the transition_s steps before each phase switch,
    plus those of a transition still running at the end of the trace."""
    horizon = len(phase_trace)
    red = [False] * horizon
    for t in range(1, horizon):
        if phase_trace[t] != phase_trace[t - 1]:
            for s in range(max(0, t - transition_s), t):
                red[s] = True
    if countdown_at_end:  # the switch was accepted transition_s - countdown steps ago
        for s in range(horizon - (transition_s - countdown_at_end + 1), horizon):
            red[s] = True
    return red


def replay_departures(cfg, phase_trace, red, ready_by_lane):
    """Departure step of every vehicle, from the phase trace and ready steps,
    with the discharge credit kept as an exact Fraction."""
    inc = 1 / Fraction(cfg.saturation_headway_s)
    cap = max(Fraction(1), inc)
    departs = {}
    for j, vehicles in enumerate(ready_by_lane):  # (vid, ready) in stop-line order
        head, credit = 0, Fraction(0)
        for t in range(len(phase_trace)):
            if red[t] or j not in cfg.green_lane_indices(phase_trace[t]):
                credit = Fraction(0)
                continue
            credit = min(credit + inc, cap)
            while credit >= 1 and head < len(vehicles) and vehicles[head][1] <= t:
                departs[vehicles[head][0]] = t
                head += 1
                credit -= 1
    return departs


def schedule(sim, cfg, arrivals):
    """Schedule the drawn (lane index, entry time) arrivals; vehicle id -> lane index."""
    for vid, (j, entry) in enumerate(arrivals):
        sim._schedule(vid, j, IntersectionSim.entry_step(entry))
    return {vid: j for vid, (j, _) in enumerate(arrivals)}


def assert_departures_match_replay(cfg, sim, lane_of, phases, all_red):
    """The logged departure steps equal the exact replay of the phase trace,
    whose yellow/all-red steps are those the views showed with no green."""
    ready_by_lane = [[] for _ in cfg.lanes]
    for vid, rec in sim.log.records.items():
        ready_by_lane[lane_of[vid]].append((vid, rec.ready_s))
    red = red_steps(cfg.transition_time_s, phases, sim.state.transition_countdown_s)
    assert red == all_red
    replayed = replay_departures(cfg, phases, red, ready_by_lane)
    logged = {vid: rec.depart_s for vid, rec in sim.log.records.items()
              if rec.depart_s is not None}
    assert logged == replayed


def sotl_reference(cfg, view, theta_red, theta_green):
    """SOTL with green and red lanes taken from the phase's lane list."""
    if view.in_transition or view.elapsed_green_s < cfg.min_green_s:
        return KEEP
    green = cfg.green_lane_indices(view.phase_index)
    queues = [int(q) for q in view.queues]
    red_max = max((q for j, q in enumerate(queues) if j not in green), default=0)
    green_sum = sum(queues[j] for j in green)
    return CHANGE if red_max > theta_red and green_sum < theta_green else KEEP


def occupancy_reference(cfg, log, lane_of, now, cells):
    """Per-vehicle occupancy: queued vehicles 7.5 m apart back from the stop
    line, free-flow vehicles at speed * time since entry."""
    width = cfg.road_length_m / cells
    grid = np.zeros(cfg.lane_count * cells, dtype=np.int64)
    ranks = [0] * cfg.lane_count
    for vid, rec in log.records.items():  # log order is stop-line order per lane
        if rec.depart_s is not None:
            continue
        j = lane_of[vid]
        if rec.ready_s < now:
            pos = cfg.road_length_m - ranks[j] * 7.5
            ranks[j] += 1
        else:
            pos = min(cfg.free_flow_speed_mps * (now - rec.entry_s), cfg.road_length_m)
        grid[j * cells + min(max(int(pos // width), 0), cells - 1)] += 1
    return grid


def measures_reference(cfg, log, lane_of, now):
    """Per-lane queues, vehicle counts and waiting steps, vehicle by vehicle:
    a vehicle ready at step r < now is queued and has waited now - r steps."""
    queues, counts, waiting = ([0] * cfg.lane_count for _ in range(3))
    for vid, rec in log.records.items():
        if rec.depart_s is not None:
            continue
        j = lane_of[vid]
        counts[j] += 1
        if rec.ready_s < now:
            queues[j] += 1
            waiting[j] += now - rec.ready_s
    return queues, counts, waiting


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.integers(1, 40), st.sampled_from([0.0, 1.0, 4.0]),
       st.sampled_from([1.0, 2.0, 5.0]))
def test_engine_matches_exact_replay_and_per_vehicle_occupancy(scenario, cells, theta_red,
                                                               theta_green):
    cfg, arrivals, actions = scenario
    sim = IntersectionSim(cfg)
    sotl = SotlController(cfg, theta_red=theta_red, theta_green=theta_green)
    lane_of = schedule(sim, cfg, arrivals)

    phases, all_red, reward_sum = [], [], 0.0
    for t, action in enumerate(actions):
        view = sim.control_context()
        if not view.in_transition:
            green = cfg.green_lane_indices(view.phase_index)
            assert view.green_mask.tolist() == [j in green for j in range(cfg.lane_count)]
        assert sotl.decide(view) == sotl_reference(cfg, view, theta_red, theta_green)
        out = sim.step(action)
        assert sim.control_context() is out and out.clock_s == t + 1
        phases.append(out.phase_index)
        all_red.append(not out.green_mask.any())
        reward_sum += out.reward
        log = sim.log
        departed = sum(rec.depart_s is not None for rec in log.records.values())
        assert len(log.records) == departed + sum(out.counts)
        queues, counts, waiting = measures_reference(cfg, log, lane_of, t + 1)
        assert out.queues == tuple(queues)
        assert out.counts == tuple(counts)
        assert out.waiting_steps == tuple(waiting)
        assert out.stopped_fraction.tolist() == [q / max(v, 1)
                                                 for q, v in zip(queues, counts)]
        assert out.reward == -sum(queues)
        assert math.copysign(1.0, out.reward) == (-1.0 if any(queues) else 1.0)  # no -0.0
        assert -reward_sum == log_totals(log, t + 1).censored_waiting
        expected = occupancy_reference(cfg, log, lane_of, t + 1, cells)
        assert np.array_equal(sim.occupancy_vector(cells), expected)

    assert_departures_match_replay(cfg, sim, lane_of, phases, all_red)


@settings(max_examples=200, deadline=None)
@given(scenarios(overlapping=True))
def test_lanes_shared_by_consecutive_phases_discharge_as_in_exact_replay(scenario):
    """A lane green in consecutive steps keeps its credit across a phase
    switch, and one that was red starts from zero."""
    cfg, arrivals, actions = scenario
    sim = IntersectionSim(cfg)
    lane_of = schedule(sim, cfg, arrivals)
    phases, all_red = [], []
    for action in actions:
        out = sim.step(action)
        phases.append(out.phase_index)
        all_red.append(not out.green_mask.any())
    assert_departures_match_replay(cfg, sim, lane_of, phases, all_red)


@settings(max_examples=40, deadline=None)
@given(scenarios(min_horizon=11))
def test_kept_views_report_their_own_step(scenario):
    """A view first read 10 or more steps after its own still reports that
    step's queues, counts and waiting steps, the lazy waiting included."""
    cfg, arrivals, actions = scenario
    sim = IntersectionSim(cfg)
    lane_of = schedule(sim, cfg, arrivals)
    views, expected = [], []
    for t, action in enumerate(actions):
        views.append(sim.step(action))
        expected.append(measures_reference(cfg, sim.log, lane_of, t + 1))
    for view, (queues, counts, waiting) in zip(views[:-10], expected):
        assert view.waiting_steps == tuple(waiting)
        assert view.queues == tuple(queues)
        assert view.counts == tuple(counts)


class _ViewRecorder(BaseController):
    """Plays a fixed keep/change sequence and keeps every view it is handed."""

    def __init__(self, actions):
        self.actions = actions
        self.decided = []
        self.after = []

    def decide(self, view):
        self.decided.append(view)
        return self.actions[len(self.decided) - 1]

    def after_step(self, view):
        self.after.append(view)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_episode_traces_hold_every_view_run_episode_handed_out(data):
    rows, cols = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    network = build_grid_network(rows, cols, build_standard_intersection(
        data.draw(st.sampled_from([2, 4])),
        saturation_headway_s=data.draw(st.sampled_from(HEADWAYS)),
        min_green_s=data.draw(st.integers(1, 8)),
        road_length_m=data.draw(st.sampled_from([60.0, 100.0])),
    ))
    horizon = data.draw(st.integers(1, 90))
    lanes = [lane for cfg in network.intersections for lane in cfg.lanes]
    arrivals = data.draw(st.lists(
        st.tuples(st.sampled_from(lanes), st.floats(0.0, horizon, allow_nan=False)),
        max_size=80,
    ))
    demand = [Vehicle(vid, entry, straight_route(network, lane))
              for vid, (lane, entry) in enumerate(arrivals)]
    controllers = [
        _ViewRecorder(data.draw(st.lists(st.sampled_from([KEEP, CHANGE]),
                                         min_size=horizon, max_size=horizon)))
        for _ in network.intersections
    ]
    result = run_episode(network, controllers, demand, horizon)

    for i, (cfg, ctrl) in enumerate(zip(network.intersections, controllers)):
        rewards, phases, queues = (result.reward_traces[i], result.phase_traces[i],
                                   result.queue_traces[i])
        assert (rewards.dtype, phases.dtype, queues.dtype) == (np.float64, np.int64, np.int64)
        assert rewards.shape == phases.shape == (horizon,)
        assert queues.shape == (horizon, cfg.lane_count)
        # each step's view reaches after_step, then the next step's decide
        assert len(ctrl.after) == horizon
        assert all(a is d for a, d in zip(ctrl.after, ctrl.decided[1:]))
        for t, view in enumerate(ctrl.after):
            assert view.clock_s == t + 1
            assert rewards[t] == view.reward
            assert phases[t] == view.phase_index
            assert tuple(queues[t]) == view.queues


# -- the lanes as the travel ledger ---------------------------------------------


def ledger_reference(network, demand, controllers, horizon):
    """Per intersection, vehicle id -> (entry, ready, departure or None),
    walked along each route: a hop is entered at its arrival step if that
    step ran, is ready free-flow steps later, and departs at the step whose
    view lists the vehicle; the next hop arrives a link time after that."""
    departs = [{vid: view.clock_s - 1 for view in ctrl.after for vid in view.departures}
               for ctrl in controllers]
    ledgers = [{} for _ in network.intersections]
    for veh in demand:
        arrival = IntersectionSim.entry_step(veh.entry_time_s)
        for lane in veh.route:
            if arrival >= horizon:
                break
            i = lane.intersection
            ff = math.ceil(network.intersections[i].free_flow_time_s - 1e-9)
            depart = departs[i].get(veh.id)
            ledgers[i][veh.id] = (arrival, arrival + ff, depart)
            if depart is None:
                break
            arrival = IntersectionSim.entry_step(depart + network.link_travel_time_s)
    return ledgers


def assert_logs_match_ledger(network, demand, controllers, horizon):
    result = run_episode(network, controllers, demand, horizon)
    lane_of = {(lane.intersection, veh.id): lane for veh in demand for lane in veh.route}
    for i, (log, expected) in enumerate(zip(result.travel_logs,
                                            ledger_reference(network, demand, controllers,
                                                             horizon))):
        records = {vid: (r.entry_s, r.ready_s, r.depart_s) for vid, r in log.records.items()}
        assert records == expected
        # lane after lane, each lane's vehicles in stop-line order
        cfg = network.intersections[i]
        order = [(cfg.lane_index(lane_of[i, vid]), rec.ready_s)
                 for vid, rec in log.records.items()]
        assert order == sorted(order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grid_logs_equal_the_ledger_of_the_routes_and_views(data):
    rows, cols = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    network = build_grid_network(rows, cols, build_standard_intersection(
        data.draw(st.sampled_from([2, 4])),
        saturation_headway_s=data.draw(st.sampled_from(HEADWAYS)),
        min_green_s=data.draw(st.integers(1, 8)),
        road_length_m=data.draw(st.sampled_from([60.0, 100.0])),
    ))
    horizon = data.draw(st.integers(1, 150))
    lanes = [lane for cfg in network.intersections for lane in cfg.lanes]
    arrivals = data.draw(st.lists(
        st.tuples(st.sampled_from(lanes), st.floats(0.0, horizon, allow_nan=False)),
        max_size=80,
    ))
    demand = [Vehicle(vid, entry, straight_route(network, lane))
              for vid, (lane, entry) in enumerate(arrivals)]
    controllers = [
        _ViewRecorder(data.draw(st.lists(st.sampled_from([KEEP, CHANGE]),
                                         min_size=horizon, max_size=horizon)))
        for _ in network.intersections
    ]
    assert_logs_match_ledger(network, demand, controllers, horizon)


@settings(max_examples=60, deadline=None)
@given(scenarios(overlapping=True))
def test_shared_lane_logs_equal_the_ledger_of_the_views(scenario):
    cfg, arrivals, actions = scenario
    network = single_intersection_network(cfg)
    demand = [Vehicle(vid, entry, (cfg.lanes[j],)) for vid, (j, entry) in enumerate(arrivals)]
    assert_logs_match_ledger(network, demand, [_ViewRecorder(actions)], len(actions))


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.data())
def test_reading_the_log_mid_episode_leaves_the_final_records_unchanged(scenario, data):
    """A read shows, after step t, every vehicle entered by t with its final
    entry and stop-line steps, and its departure step once it is <= t."""
    cfg, arrivals, actions = scenario
    reads = data.draw(st.sets(st.integers(0, len(actions) - 1)))
    read, unread = IntersectionSim(cfg), IntersectionSim(cfg)
    schedule(read, cfg, arrivals)
    schedule(unread, cfg, arrivals)
    snapshots = {}
    for t, action in enumerate(actions):
        read.step(action)
        unread.step(action)
        if t in reads:
            snapshots[t] = {vid: (r.entry_s, r.ready_s, r.depart_s)
                            for vid, r in read.log.records.items()}
    final = read.log.records
    assert final == unread.log.records
    for t, snapshot in snapshots.items():
        assert snapshot == {
            vid: (r.entry_s, r.ready_s,
                  r.depart_s if r.depart_s is not None and r.depart_s <= t else None)
            for vid, r in final.items() if r.entry_s <= t
        }


def pooled_reference(logs, traces):
    """Network metrics in several passes over the records, one per quantity."""
    entered = sum(len(log.records) for log in logs)
    delays = [r.depart_s - r.ready_s for log in logs for r in log.records.values()
              if r.depart_s is not None]
    departed, total_w = len(delays), sum(delays)
    trace_w = sum(int(round(-float(np.asarray(t, dtype=float).sum()))) for t in traces)
    censored_w = sum(max(0, (len(t) if r.depart_s is None else r.depart_s) - r.ready_s)
                     for log, t in zip(logs, traces) for r in log.records.values())
    firsts = [r.entry_s for log in logs for r in log.records.values()]
    lasts = [r.depart_s for log in logs for r in log.records.values() if r.depart_s is not None]
    tau = max(lasts) - min(firsts) if lasts else 0
    lmu = next((log.free_flow_time_s for log in logs if log.records), logs[0].free_flow_time_s)
    avg_delay = total_w / departed if departed else float("nan")
    return EpisodeMetrics(
        avg_travel_time_s=avg_delay + lmu, avg_delay_s=avg_delay, throughput=departed,
        avg_queue=trace_w / tau if tau > 0 else 0.0, total_waiting_events=total_w,
        trace_waiting_events=trace_w, tau_s=tau, vehicles=departed, entered=entered,
        pending=entered - departed,
        censored_avg_travel_time_s=censored_w / entered + lmu if entered else float("nan"),
        free_flow_time_s=lmu, empty=entered == 0,
    )


@st.composite
def logs_and_traces(draw):
    """1 to 4 logs of different free-flow times, each with a reward trace:
    empty logs, and vehicles departed, queued, or not yet at the stop line
    when the trace ends; all pending when no vehicle departs."""
    all_pending = draw(st.booleans())
    logs, traces = [], []
    for _ in range(draw(st.integers(1, 4))):
        log = TravelLog(draw(st.sampled_from([100.0, 300.0])), draw(st.sampled_from([7.0, 10.0])))
        horizon = draw(st.integers(1, 120))
        ff = draw(st.integers(0, 40))
        vehicles = draw(st.lists(st.tuples(st.integers(0, 120), st.none() if all_pending
                                           else st.none() | st.integers(0, 60)), max_size=30))
        for vid, (entry, wait) in enumerate(vehicles):
            ready = entry + ff
            log.records[vid] = _VehicleRecord(entry, ready, None if wait is None else ready + wait)
        logs.append(log)
        traces.append(-np.array(draw(st.lists(st.integers(0, 9), min_size=horizon,
                                              max_size=horizon)), dtype=float))
    return logs, traces


@settings(max_examples=200, deadline=None)
@given(logs_and_traces())
def test_one_pass_pooled_metrics_equal_the_multi_pass_reference(case):
    logs, traces = case
    assert repr(vars(pooled_metrics(logs, traces))) == repr(vars(pooled_reference(logs, traces)))
