"""Discrete-time point-queue intersection engine.

Model: a vehicle entering a lane needs the free-flow traversal time to reach
the stop line, then stacks in a vertical (capacity-unbounded) FIFO queue.
Green lanes discharge through a fractional saturation-flow credit (one
vehicle per `saturation_headway_s` of green).  Every step is one second:

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
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Protocol, Sequence, TextIO

import numpy as np

from .core import ConfigError, IntersectionConfig, LaneId, NetworkConfig, Vehicle

log = logging.getLogger(__name__)

KEEP = 0
CHANGE = 1


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

    def pending_count(self) -> int:
        return self.entered_count() - self.departed_count()

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
    free_flow: deque  # of (vehicle_id, ready_step), ready-ordered
    queue: deque      # of (vehicle_id, ready_step), FIFO
    credit: Fraction  # fractional discharge credit, exact
    ready_sum: int = 0  # sum of ready steps over queued vehicles, for O(1) waiting


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
    intersection_index: int
    occupancy: Callable[[int], np.ndarray]  # cells_per_lane -> occupancy vector


class Controller(Protocol):
    """Per-intersection signal controller."""

    def decide(self, ctx: ControlContext) -> int:
        """Return 1 to advance to the next phase, 0 to keep the current one."""
        ...

    def after_step(self, ctx: ControlContext, action: int, outcome: StepOutcome,
                   sim: "IntersectionSim") -> None:
        """Optional hook, called once per step after the action executed."""


class BaseController:
    """Default no-op hook so concrete controllers only implement decide()."""

    def decide(self, ctx: ControlContext) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def after_step(self, ctx: ControlContext, action: int, outcome: StepOutcome,
                   sim: "IntersectionSim") -> None:
        return None


class AlwaysKeepController(BaseController):
    """Never changes phase; useful for traces and degenerate baselines."""

    def decide(self, ctx: ControlContext) -> int:
        return KEEP


class IntersectionSim:
    """Owns the dynamic state of one intersection and advances it by 1 s steps.

    A sim instance belongs to exactly one episode runner; distinct episodes
    must build distinct instances.
    """

    def __init__(self, config: IntersectionConfig, *,
                 vehicle_spacing_m: float = 7.5) -> None:
        config.validate()
        self.config = config
        self.vehicle_spacing_m = vehicle_spacing_m
        # ceil so a vehicle is never ready before physically reaching the line;
        # exact for the default 300 m / 10 m/s geometry.
        self._ff_steps = math.ceil(config.free_flow_time_s - 1e-9)
        self._credit_inc = Fraction(1) / Fraction(config.saturation_headway_s)
        self._credit_cap = max(Fraction(1), self._credit_inc)
        self._green_indices = [set(config.green_lane_indices(k)) for k in range(config.phase_count)]
        self.log = TravelLog(config.road_length_m, config.free_flow_speed_mps)
        self._arrivals: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.state = SimState(
            clock_s=0,
            lanes=[_LaneState(deque(), deque(), Fraction(0)) for _ in config.lanes],
            current_phase_index=0,
            pending_phase_index=None,
            transition_countdown_s=0,
            green_elapsed_s=0,
            ignored_actions=0,
        )

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

    def load_demand(self, vehicles: Iterable[Vehicle]) -> None:
        """Schedule single-intersection demand (the first route hop of each vehicle)."""
        for veh in vehicles:
            self.schedule_arrival(veh.id, veh.route[0], veh.entry_time_s)

    # -- observation ---------------------------------------------------------

    def vehicle_counts(self) -> np.ndarray:
        return np.array(
            [len(l.free_flow) + len(l.queue) for l in self.state.lanes], dtype=np.int64
        )

    def queue_lengths(self) -> np.ndarray:
        return np.array([len(l.queue) for l in self.state.lanes], dtype=np.int64)

    def waiting_steps(self) -> np.ndarray:
        """Per lane, summed waiting-so-far (in steps) of the queued vehicles."""
        now = self.state.clock_s
        return np.array(
            [now * len(l.queue) - l.ready_sum for l in self.state.lanes],
            dtype=np.int64,
        )

    def observe(self) -> Observation:
        return Observation(self.vehicle_counts(), self.state.current_phase_index)

    def occupancy_vector(self, cells_per_lane: int) -> np.ndarray:
        """Coarse per-lane occupancy grid, cell 0 at the lane entrance.

        Queued vehicles sit at one vehicle-length spacing behind the stop
        line; free-flow vehicles sit at speed * time-since-entry from the
        entrance.
        """
        if cells_per_lane < 1:
            raise ConfigError("occupancy_cells: cells_per_lane must be >= 1")
        cfg = self.config
        width = cfg.road_length_m / cells_per_lane
        now = self.state.clock_s
        grid = np.zeros(cfg.lane_count * cells_per_lane, dtype=np.int64)

        def cell_of(position_from_entry: float) -> int:
            c = int(position_from_entry // width)
            return min(max(c, 0), cells_per_lane - 1)

        for j, lane in enumerate(self.state.lanes):
            base = j * cells_per_lane
            for vid, ready in lane.free_flow:
                entry = ready - self._ff_steps
                pos = min(cfg.free_flow_speed_mps * (now - entry), cfg.road_length_m)
                grid[base + cell_of(pos)] += 1
            for rank, (_vid, _ready) in enumerate(lane.queue):
                pos = cfg.road_length_m - rank * self.vehicle_spacing_m
                grid[base + cell_of(pos)] += 1
        return grid

    def _green_mask_if_kept(self) -> np.ndarray:
        mask = np.zeros(self.config.lane_count, dtype=bool)
        if self.state.transition_countdown_s == 0:
            for j in self._green_indices[self.state.current_phase_index]:
                mask[j] = True
        return mask

    def control_context(self, intersection_index: int = 0) -> ControlContext:
        st = self.state
        return ControlContext(
            observation=self.observe(),
            queue_lengths=self.queue_lengths(),
            waiting_steps=self.waiting_steps(),
            green_mask=self._green_mask_if_kept(),
            elapsed_green_s=st.green_elapsed_s,
            in_transition=st.transition_countdown_s > 0,
            min_green_met=st.green_elapsed_s >= self.config.min_green_s,
            clock_s=st.clock_s,
            intersection_index=intersection_index,
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
        green_set = self._green_indices[st.current_phase_index] if green_now else set()

        # (b) arrivals
        for vid, lane_idx in self._arrivals.pop(t, ()):  # insertion order = load order
            ready = t + self._ff_steps
            st.lanes[lane_idx].free_flow.append((vid, ready))
            self.log.record_entry(vid, t, ready)

        # (c) queue join: free-flow time elapsed, move to the stop line
        for lane in st.lanes:
            ff = lane.free_flow
            while ff and ff[0][1] <= t:
                entry = ff.popleft()
                lane.queue.append(entry)
                lane.ready_sum += entry[1]

        # (d) discharge
        departures: list[int] = []
        for j, lane in enumerate(st.lanes):
            if j in green_set:
                lane.credit = min(lane.credit + self._credit_inc, self._credit_cap)
                while lane.credit >= 1 and lane.queue:
                    vid, ready = lane.queue.popleft()
                    lane.ready_sum -= ready
                    self.log.record_departure(vid, t)
                    departures.append(vid)
                    lane.credit -= 1
            else:
                lane.credit = Fraction(0)

        # (e) reward and measures, post-movement
        queues = self.queue_lengths()
        counts = self.vehicle_counts()
        waiting = self.waiting_steps() + queues  # queued vehicles have waited through this step
        with np.errstate(divide="ignore", invalid="ignore"):
            stopped = np.where(counts > 0, queues / np.maximum(counts, 1), 0.0)
        green_mask = np.zeros(cfg.lane_count, dtype=bool)
        for j in green_set:
            green_mask[j] = True
        reward = float(-int(queues.sum()))  # int negation avoids -0.0

        # (f) clock
        st.clock_s = t + 1
        if st.transition_countdown_s == 0:
            st.green_elapsed_s += 1

        return StepOutcome(
            observation=self.observe(),
            reward=reward,
            departures=departures,
            clock_s=t,
            measures=LaneMeasures(queues, counts, waiting, stopped, green_mask),
        )

    def vehicles_on_lanes(self) -> int:
        return int(self.vehicle_counts().sum())

    def pending_arrivals(self) -> int:
        return sum(len(v) for v in self._arrivals.values())


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
    controllers: Sequence[Controller],
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
            ctx = sim.control_context(i)
            action = controllers[i].decide(ctx)
            outcome = sim.step(action)
            controllers[i].after_step(ctx, action, outcome, sim)
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
