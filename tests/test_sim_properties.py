"""Property tests: the point-queue engine against per-vehicle references."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight.classic import SotlController
from greenlight.core import build_standard_intersection
from greenlight.sim import CHANGE, KEEP, IntersectionSim

HEADWAYS = [1 / 3, 0.5, 0.7, 2.0, 2.2, 10.0]


@st.composite
def scenarios(draw):
    """A random intersection, demand and keep/change action sequence."""
    cfg = build_standard_intersection(
        draw(st.sampled_from([2, 4])),
        saturation_headway_s=draw(st.sampled_from(HEADWAYS)),
        yellow_s=draw(st.integers(0, 3)),
        all_red_s=draw(st.integers(0, 2)),
        min_green_s=draw(st.integers(1, 8)),
        road_length_m=draw(st.sampled_from([100.0, 180.0, 300.0])),
        free_flow_speed_mps=draw(st.sampled_from([7.0, 10.0, 13.3])),
    )
    horizon = draw(st.integers(1, 160))
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


def sotl_reference(cfg, ctx, theta_red, theta_green):
    """SOTL with green and red lanes taken from the phase's lane list."""
    if ctx.in_transition or ctx.elapsed_green_s < cfg.min_green_s:
        return KEEP
    green = cfg.green_lane_indices(ctx.observation.phase_index)
    queues = [int(q) for q in ctx.queue_lengths]
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


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.integers(1, 40), st.sampled_from([0.0, 1.0, 4.0]),
       st.sampled_from([1.0, 2.0, 5.0]))
def test_engine_matches_exact_replay_and_per_vehicle_occupancy(scenario, cells, theta_red,
                                                               theta_green):
    cfg, arrivals, actions = scenario
    sim = IntersectionSim(cfg)
    sotl = SotlController(cfg, theta_red=theta_red, theta_green=theta_green)
    lane_of = {}
    for vid, (j, entry) in enumerate(arrivals):
        sim.schedule_arrival(vid, cfg.lanes[j], entry)
        lane_of[vid] = j

    phases, all_red, reward_sum = [], [], 0.0
    for t, action in enumerate(actions):
        ctx = sim.control_context()
        if not ctx.in_transition:
            green = cfg.green_lane_indices(ctx.observation.phase_index)
            assert ctx.green_mask.tolist() == [j in green for j in range(cfg.lane_count)]
        assert sotl.decide(ctx) == sotl_reference(cfg, ctx, theta_red, theta_green)
        out = sim.step(action)
        phases.append(out.observation.phase_index)
        all_red.append(not out.measures.green_mask.any())
        reward_sum += out.reward
        log = sim.log
        assert log.entered_count() == log.departed_count() + int(out.measures.counts.sum())
        assert -reward_sum == log.censored_waiting(t + 1)
        expected = occupancy_reference(cfg, log, lane_of, t + 1, cells)
        assert np.array_equal(sim.occupancy_vector(cells), expected)

    ready_by_lane = [[] for _ in cfg.lanes]
    for vid, rec in sim.log.records.items():
        ready_by_lane[lane_of[vid]].append((vid, rec.ready_s))
    red = red_steps(cfg.transition_time_s, phases, sim.state.transition_countdown_s)
    assert red == all_red
    replayed = replay_departures(cfg, phases, red, ready_by_lane)
    logged = {vid: rec.depart_s for vid, rec in sim.log.records.items()
              if rec.depart_s is not None}
    assert logged == replayed
