"""Discrete-time point-queue intersection engine.

Model: a vehicle entering a lane needs the free-flow traversal time to reach
the stop line, then stacks in a vertical (capacity-unbounded) FIFO queue.
Green lanes discharge through a saturation-flow credit (one vehicle per
`saturation_headway_s` of green), kept in integer ticks of the headway's
exact rational value.  Every step is one second:

    (a) phase logic       apply the keep/change action, run yellow+all-red
    (b) arrivals          due vehicles enter the free-flow segment
    (c) queue join        vehicles whose free-flow time has elapsed queue up
    (d) discharge         green lanes release head-of-queue vehicles
    (e) reward            R = -sum of queue lengths, post-movement
    (f) clock advance

With this ordering the waiting-event accounting is exact: a vehicle that
reaches the stop line at step r and departs at step d appears in exactly
d - r post-movement queue snapshots, so summed queue lengths equal summed
per-vehicle delays with no rounding.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence, TextIO

import numpy as np

from .core import ConfigError, IntersectionConfig, LaneId, NetworkConfig, Vehicle

log = logging.getLogger(__name__)

KEEP = 0
CHANGE = 1

VEHICLE_SPACING_M = 7.5  # queued vehicles stand this far apart behind the stop line


class SimulationError(RuntimeError):
    """Internal inconsistency detected while stepping the simulator."""


@dataclass
class Observation:
    """Agent-facing state: per-lane vehicle counts plus the active phase."""

    vehicle_counts: np.ndarray  # int, length M, ordered by lane index
    phase_index: int

    def __post_init__(self) -> None:
        if self.phase_index < 0:
            raise SimulationError("observation phase_index must be >= 0")


@dataclass
class LaneMeasures:
    """Post-movement per-lane measures, inputs for the reward variants."""

    queues: np.ndarray            # q_j, vehicles stopped at the line
    counts: np.ndarray            # v_j, all vehicles on the lane
    waiting_steps: np.ndarray     # summed waiting-so-far of queued vehicles
    stopped_fraction: np.ndarray  # q_j / v_j (0 where the lane is empty)
    green_mask: np.ndarray        # c_j for the step just executed


@dataclass
class StepOutcome:
    """Result of one simulated second."""

    observation: Observation
    reward: float                 # -sum(q_j), always <= 0
    departures: list[int]         # vehicle ids that crossed the stop line
    clock_s: int                  # the step index that was just executed
    measures: LaneMeasures


@dataclass
class _VehicleRecord:
    entry_s: int
    ready_s: int
    depart_s: int | None = None


class TravelLog:
    """Per-vehicle entry / ready / departure timestamps for one intersection."""

    def __init__(self, road_length_m: float, free_flow_speed_mps: float) -> None:
        self.road_length_m = road_length_m
        self.free_flow_speed_mps = free_flow_speed_mps
        self.records: dict[int, _VehicleRecord] = {}

    @property
    def free_flow_time_s(self) -> float:
        return self.road_length_m / self.free_flow_speed_mps

    def record_entry(self, vehicle_id: int, entry_s: int, ready_s: int) -> None:
        if vehicle_id in self.records:
            raise SimulationError(f"vehicle {vehicle_id} entered twice")
        self.records[vehicle_id] = _VehicleRecord(entry_s, ready_s)

    def record_departure(self, vehicle_id: int, depart_s: int) -> None:
        rec = self.records[vehicle_id]
        if rec.depart_s is not None:
            raise SimulationError(f"vehicle {vehicle_id} departed twice")
        rec.depart_s = depart_s

    def entered_count(self) -> int:
        return len(self.records)

    def departed_count(self) -> int:
        return sum(1 for r in self.records.values() if r.depart_s is not None)

    def delays(self) -> list[int]:
        """Waiting steps (depart - ready) of every departed vehicle."""
        return [r.depart_s - r.ready_s for r in self.records.values() if r.depart_s is not None]

    def censored_waiting(self, end_s: int) -> int:
        """Total waiting steps including vehicles still queued at `end_s`."""
        total = 0
        for r in self.records.values():
            stop = r.depart_s if r.depart_s is not None else end_s
            total += max(0, stop - r.ready_s)
        return total

    def first_entry(self) -> int | None:
        if not self.records:
            return None
        return min(r.entry_s for r in self.records.values())

    def last_departure(self) -> int | None:
        times = [r.depart_s for r in self.records.values() if r.depart_s is not None]
        return max(times) if times else None


@dataclass
class _LaneState:
    """One lane as Newell's cumulative arrival/departure curves.

    Every vehicle shares the lane's free-flow time and vehicles enter in step
    order, so entry order is stop-line order.  Vehicles before `departed`
    have crossed the stop line, those before `ready` have reached it, and the
    rest are still on the free-flow segment.
    """

    vehicle_ids: list[int] = field(default_factory=list)
    ready_steps: list[int] = field(default_factory=list)
    departed: int = 0
    ready: int = 0
    ready_sum: int = 0  # sum of ready steps over queued vehicles, for O(1) waiting
    credit: int = 0     # discharge credit in ticks of the rational headway


@dataclass
class SimState:
    """Snapshot of the dynamic world owned by one IntersectionSim."""

    clock_s: int
    lanes: list[_LaneState]
    current_phase_index: int
    pending_phase_index: int | None
    transition_countdown_s: int
    green_elapsed_s: int
    ignored_actions: int


@dataclass
class ControlContext:
    """Everything a controller may look at before choosing keep/change."""

    observation: Observation
    queue_lengths: np.ndarray
    waiting_steps: np.ndarray
    green_mask: np.ndarray            # c_j if this step keeps the phase
    elapsed_green_s: int
    in_transition: bool
    min_green_met: bool
    clock_s: int
    occupancy: Callable[[int], np.ndarray]  # cells_per_lane -> occupancy vector


class BaseController:
    """Per-intersection signal controller; concrete ones implement decide()."""

    def decide(self, ctx: ControlContext) -> int:  # pragma: no cover - abstract
        """Return 1 to advance to the next phase, 0 to keep the current one."""
        raise NotImplementedError

    def after_step(self, outcome: StepOutcome) -> None:
        """Hook called once per step with the step's outcome; a no-op here."""
        return None


class AlwaysKeepController(BaseController):
    """Never changes phase; useful for traces and degenerate baselines."""

    def decide(self, ctx: ControlContext) -> int:
        return KEEP


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class IntersectionSim:
    """Owns the dynamic state of one intersection and advances it by 1 s steps.

    A sim instance belongs to exactly one episode runner; distinct episodes
    must build distinct instances.
    """

    def __init__(self, config: IntersectionConfig) -> None:
        config.validate()
        self.config = config
        # ceil so a vehicle is never ready before physically reaching the line;
        # exact for the default 300 m / 10 m/s geometry.
        self._ff_steps = math.ceil(config.free_flow_time_s - 1e-9)
        # A float headway is an exact rational p/q: a green second earns q
        # ticks, a vehicle costs p, and the credit never exceeds max(p, q),
        # which is max(1, 1/h) vehicles.
        self._tick_cost, self._tick_gain = float(config.saturation_headway_s).as_integer_ratio()
        self._tick_cap = max(self._tick_cost, self._tick_gain)
        self._green_lanes = [frozenset(config.green_lane_indices(k))
                             for k in range(config.phase_count)]
        self._green_masks = [_read_only(np.array([j in green for j in range(config.lane_count)]))
                             for green in self._green_lanes]
        self._red_mask = _read_only(np.zeros(config.lane_count, dtype=bool))
        self.log = TravelLog(config.road_length_m, config.free_flow_speed_mps)
        self._arrivals: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.state = SimState(
            clock_s=0,
            lanes=[_LaneState() for _ in config.lanes],
            current_phase_index=0,
            pending_phase_index=None,
            transition_countdown_s=0,
            green_elapsed_s=0,
            ignored_actions=0,
        )
        # The measures of the last step stay valid until the next one.
        self._measures = self._measure(self._green_masks[0])
        self._observation = Observation(self._measures.counts, 0)

    # -- demand loading ------------------------------------------------------

    @staticmethod
    def entry_step(entry_time_s: float) -> int:
        """First whole second at or after the requested entry time."""
        return math.ceil(entry_time_s - 1e-9)

    def schedule_arrival(self, vehicle_id: int, lane: LaneId, entry_time_s: float) -> None:
        try:
            lane_idx = self.config.lane_index(lane)
        except ValueError:
            raise ConfigError(f"demand_lane: lane {lane} does not exist at this intersection") from None
        self._arrivals[self.entry_step(entry_time_s)].append((vehicle_id, lane_idx))

    # -- observation ---------------------------------------------------------

    def observe(self) -> Observation:
        return self._observation

    def _measure(self, green_mask: np.ndarray) -> LaneMeasures:
        """Per-lane measures of the current state; read-only, shared with the
        next control context."""
        lanes = self.state.lanes
        now = self.state.clock_s
        queued = [l.ready - l.departed for l in lanes]
        queues, counts, waiting = _read_only(np.array([
            queued,
            [len(l.ready_steps) - l.departed for l in lanes],
            # a vehicle queued since step r has waited through steps r .. now - 1
            [now * q - l.ready_sum for q, l in zip(queued, lanes)],
        ], dtype=np.int64))
        stopped = _read_only(queues / np.maximum(counts, 1))  # an empty lane has no queue: 0
        return LaneMeasures(queues, counts, waiting, stopped, green_mask)

    def occupancy_vector(self, cells_per_lane: int) -> np.ndarray:
        """Coarse per-lane occupancy grid, cell 0 at the lane entrance.

        Queued vehicles sit at one vehicle-length spacing behind the stop
        line; free-flow vehicles sit at speed * time-since-entry from the
        entrance.
        """
        if cells_per_lane < 1:
            raise ConfigError("occupancy_cells: cells_per_lane must be >= 1")
        cfg = self.config
        counts = self._measures.counts
        # every vehicle on a lane, in stop-line order; the first q_j are queued
        lane = np.arange(cfg.lane_count).repeat(counts)
        rank = np.arange(len(lane)) - (counts.cumsum() - counts)[lane]
        lanes = self.state.lanes
        ready = np.fromiter(chain.from_iterable(l.ready_steps[l.departed:] for l in lanes),
                            dtype=np.int64, count=len(lane))
        since_entry = self.state.clock_s - (ready - self._ff_steps)
        position = np.where(
            rank < self._measures.queues[lane],
            cfg.road_length_m - rank * VEHICLE_SPACING_M,
            np.minimum(cfg.free_flow_speed_mps * since_entry, cfg.road_length_m),
        )
        cell = (position // (cfg.road_length_m / cells_per_lane)).astype(np.int64)
        np.maximum(cell, 0, out=cell)
        np.minimum(cell, cells_per_lane - 1, out=cell)
        return np.bincount(lane * cells_per_lane + cell, minlength=cfg.lane_count * cells_per_lane)

    def control_context(self) -> ControlContext:
        st = self.state
        measures = self._measures
        return ControlContext(
            observation=self._observation,
            queue_lengths=measures.queues,
            waiting_steps=measures.waiting_steps,
            # phase and countdown are as the last step left them, and so is its mask
            green_mask=measures.green_mask,
            elapsed_green_s=st.green_elapsed_s,
            in_transition=st.transition_countdown_s > 0,
            min_green_met=st.green_elapsed_s >= self.config.min_green_s,
            clock_s=st.clock_s,
            occupancy=self.occupancy_vector,
        )

    # -- dynamics ------------------------------------------------------------

    def step(self, action: int) -> StepOutcome:
        """Advance the world by one second under the given keep/change action."""
        if action not in (KEEP, CHANGE):
            raise SimulationError(f"action must be 0 or 1, got {action!r}")
        cfg = self.config
        st = self.state
        t = st.clock_s

        # (a) phase logic
        if st.transition_countdown_s > 0:
            if action == CHANGE:
                st.ignored_actions += 1
                log.debug("t=%d: change request ignored mid-transition", t)
            st.transition_countdown_s -= 1
            if st.transition_countdown_s == 0:
                st.current_phase_index = st.pending_phase_index  # type: ignore[assignment]
                st.pending_phase_index = None
                st.green_elapsed_s = 0
        elif action == CHANGE:
            if st.green_elapsed_s >= cfg.min_green_s:
                nxt = (st.current_phase_index + 1) % cfg.phase_count
                if cfg.transition_time_s == 0:
                    st.current_phase_index = nxt
                    st.green_elapsed_s = 0
                else:
                    st.pending_phase_index = nxt
                    st.transition_countdown_s = cfg.transition_time_s
            else:
                st.ignored_actions += 1
                log.debug("t=%d: change request ignored before min green", t)

        green_now = st.transition_countdown_s == 0
        green_lanes = self._green_lanes[st.current_phase_index] if green_now else frozenset()

        # (b) arrivals
        ready = t + self._ff_steps
        for vid, lane_idx in self._arrivals.pop(t, ()):  # insertion order = load order
            lane = st.lanes[lane_idx]
            lane.vehicle_ids.append(vid)
            lane.ready_steps.append(ready)
            self.log.record_entry(vid, t, ready)

        departures: list[int] = []
        cost, gain, cap = self._tick_cost, self._tick_gain, self._tick_cap
        for j, lane in enumerate(st.lanes):
            # (c) queue join: free-flow time elapsed, move to the stop line
            ready_steps = lane.ready_steps
            at_line = lane.ready
            while at_line < len(ready_steps) and ready_steps[at_line] <= t:
                lane.ready_sum += ready_steps[at_line]
                at_line += 1
            lane.ready = at_line
            # (d) discharge
            if j not in green_lanes:
                lane.credit = 0
                continue
            credit = min(lane.credit + gain, cap)
            head = lane.departed
            while credit >= cost and head < at_line:
                vid = lane.vehicle_ids[head]
                lane.ready_sum -= ready_steps[head]
                self.log.record_departure(vid, t)
                departures.append(vid)
                head += 1
                credit -= cost
            lane.departed = head
            lane.credit = credit

        # (f) clock, then (e) reward and measures, post-movement
        st.clock_s = t + 1
        if green_now:
            st.green_elapsed_s += 1
        mask = self._green_masks[st.current_phase_index] if green_now else self._red_mask
        self._measures = self._measure(mask)
        self._observation = Observation(self._measures.counts, st.current_phase_index)
        return StepOutcome(
            observation=self._observation,
            reward=float(-int(self._measures.queues.sum())),  # int negation avoids -0.0
            departures=departures,
            clock_s=t,
            measures=self._measures,
        )


# ---------------------------------------------------------------------------
# episode orchestration


@dataclass
class EpisodeResult:
    """Complete record of one simulated episode over a network."""

    travel_logs: list[TravelLog]
    reward_traces: list[np.ndarray]          # per intersection, length horizon
    queue_traces: list[np.ndarray]           # per intersection, (horizon, M)
    phase_traces: list[np.ndarray]           # per intersection, length horizon
    horizon_s: int
    seed: int
    network_departures: int                  # vehicles that finished their full route
    ignored_actions: list[int] = field(default_factory=list)


def validate_demand(network: NetworkConfig, demand: Sequence[Vehicle]) -> None:
    """Fail fast before simulation if any route references a missing lane."""
    for veh in demand:
        for lane in veh.route:
            if not network.has_lane(lane):
                raise ConfigError(
                    f"demand_route: vehicle {veh.id} references missing lane {lane}"
                )


def run_episode(
    network: NetworkConfig,
    controllers: Sequence[BaseController],
    demand: Sequence[Vehicle],
    horizon_s: int,
    seed: int = 0,
    *,
    collect_queue_traces: bool = True,
) -> EpisodeResult:
    """Step every intersection once per second for `horizon_s` seconds.

    Vehicles departing an intersection re-enter the next intersection of
    their route after the network link travel time.  Fully deterministic
    for a given (network, controllers, demand, seed).
    """
    if horizon_s <= 0:
        raise ConfigError("horizon: horizon_s must be positive")
    n = network.intersection_count
    if len(controllers) != n:
        raise ConfigError(f"controllers: expected {n} controllers, got {len(controllers)}")
    validate_demand(network, demand)
    # A next hop is scheduled at departure step + link time; it must land on a
    # later step, or the intersection may already have simulated it.  Rounding
    # absorbs the most of a tiny link time at the last step, so test there.
    last = horizon_s - 1
    if (IntersectionSim.entry_step(last + network.link_travel_time_s) <= last
            and any(len(veh.route) > 1 for veh in demand)):
        raise ConfigError(
            f"network_link: link_travel_time_s={network.link_travel_time_s} puts a "
            f"vehicle's next hop in the step it departs, which is already simulated; "
            f"multi-hop routes need a positive link time"
        )

    sims = [IntersectionSim(cfg) for cfg in network.intersections]
    route_pos: dict[int, int] = {}
    routes: dict[int, tuple[LaneId, ...]] = {}
    for veh in demand:
        routes[veh.id] = veh.route
        route_pos[veh.id] = 0
        first = veh.route[0]
        sims[first.intersection].schedule_arrival(veh.id, first, veh.entry_time_s)

    m = [cfg.lane_count for cfg in network.intersections]
    reward_traces = [np.zeros(horizon_s) for _ in range(n)]
    phase_traces = [np.zeros(horizon_s, dtype=np.int64) for _ in range(n)]
    queue_traces = [
        np.zeros((horizon_s, m[i]), dtype=np.int64) if collect_queue_traces else np.zeros((0, 0))
        for i in range(n)
    ]
    network_departures = 0

    for t in range(horizon_s):
        for i, sim in enumerate(sims):
            outcome = sim.step(controllers[i].decide(sim.control_context()))
            controllers[i].after_step(outcome)
            reward_traces[i][t] = outcome.reward
            phase_traces[i][t] = outcome.observation.phase_index
            if collect_queue_traces:
                queue_traces[i][t] = outcome.measures.queues
            for vid in outcome.departures:
                pos = route_pos[vid] + 1
                route_pos[vid] = pos
                route = routes[vid]
                if pos < len(route):
                    nxt = route[pos]
                    sims[nxt.intersection].schedule_arrival(
                        vid, nxt, t + network.link_travel_time_s
                    )
                else:
                    network_departures += 1

    return EpisodeResult(
        travel_logs=[sim.log for sim in sims],
        reward_traces=reward_traces,
        queue_traces=queue_traces,
        phase_traces=phase_traces,
        horizon_s=horizon_s,
        seed=seed,
        network_departures=network_departures,
        ignored_actions=[sim.state.ignored_actions for sim in sims],
    )


def write_trace_csv(out: TextIO, result: EpisodeResult, intersection: int = 0) -> None:
    """Export `t,phase,reward,q_lane0,...` for one intersection of an episode."""
    queues = result.queue_traces[intersection]
    if queues.size == 0:
        raise ConfigError("trace_export: episode was run without queue traces")
    lanes = queues.shape[1]
    header = "t,phase,reward," + ",".join(f"q_lane{j}" for j in range(lanes))
    out.write(header + "\n")
    for t in range(result.horizon_s):
        row = [
            str(t),
            str(int(result.phase_traces[intersection][t])),
            repr(float(result.reward_traces[intersection][t])),
        ]
        row += [str(int(q)) for q in queues[t]]
        out.write(",".join(row) + "\n")
