"""Discrete-time point-queue intersection engine.

Model: a vehicle entering a lane needs the free-flow traversal time to reach
the stop line, then stacks in a vertical (capacity-unbounded) FIFO queue.
Green lanes discharge through a saturation-flow credit (one vehicle per
`saturation_headway_s` of green), kept in integer ticks of the headway's
exact rational value.  Every step is one second:

    (a) phase logic       apply the keep/change action, run yellow+all-red
    (b) arrivals          due vehicles enter the free-flow segment
    (c) queue join        the vehicles that entered one free-flow time ago queue up
    (d) discharge         green lanes release head-of-queue vehicles
    (e) reward            R = -sum of queue lengths, post-movement; the view
                          computes it when read
    (f) clock advance

With this ordering the waiting-event accounting is exact: a vehicle that
reaches the stop line at step r and departs at step d appears in exactly
d - r post-movement queue snapshots, so summed queue lengths equal summed
per-vehicle delays with no rounding.  The same count gives the episode
traces: lane j's queue after step t is the number of its vehicles that
reached the stop line at a step <= t minus those that crossed it at a step
<= t, so `run_episode` builds the queue, reward and phase traces once, at
the end of the episode, from the stop-line and departure steps and the
phase switches the sims record.

The lanes are the only per-vehicle ledger a step writes: each keeps its
vehicles' ids, stop-line steps and departure steps in order.  The
`TravelLog` of an intersection is built from them on each read of
`IntersectionSim.log`, and `run_episode` reads each log once, at the end.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, IntersectionConfig, NetworkConfig, Vehicle, exit_approach

log = logging.getLogger(__name__)

KEEP = 0
CHANGE = 1

VEHICLE_SPACING_M = 7.5  # queued vehicles stand this far apart behind the stop line


class SimulationError(RuntimeError):
    """Internal inconsistency detected while stepping the simulator."""


@dataclass
class StepView:
    """One step's state as controllers see it, built once at the end of each
    step (and once by the constructor, before the first).

    The same object reaches ``after_step`` for the step just run and
    ``decide`` for the step about to run: nothing changes in between.  The
    lane measures are tuples of Python ints and the arrays are read-only;
    ``occupancy`` reads the live state, so it is valid until the next step.
    Not a frozen dataclass: one is built per intersection-step, and a frozen
    one costs several times as much to build.
    """

    phase_index: int              # active phase; the outgoing one mid-transition
    counts: tuple[int, ...]       # v_j, all vehicles on the lane, ordered by lane index
    queues: tuple[int, ...]       # q_j, vehicles stopped at the line
    ready_sums: tuple[int, ...]   # summed stop-line arrival steps of queued vehicles
    green_mask: np.ndarray        # c_j of the step just run, and of the next if it keeps;
                                  # the simulator's shared read-only array
    departures: list[int]         # vehicle ids that crossed the stop line in the step
    clock_s: int                  # the next step to run = the number of steps run
    elapsed_green_s: int
    in_transition: bool
    min_green_met: bool
    occupancy: Callable[[int], np.ndarray]  # cells_per_lane -> occupancy vector

    @property
    def reward(self) -> float:
        """-sum(q_j), always <= 0 and 0.0 before the first step; computed on
        read, since only an agent with the ``queue`` reward reads it, once
        per step.  Not cached, like the two below: a ``cached_property``
        takes a lock on its first read, which costs several times the sum.
        The int sum is negated before the conversion, so no -0.0 appears."""
        return float(-sum(self.queues))

    @property
    def stopped_fraction(self) -> np.ndarray:
        """q_j / v_j as a read-only float array, 0 where the lane is empty;
        computed on read, since only the ``delay`` reward, alone or
        weighted, reads it, once per step."""
        return _read_only(np.array(self.queues) / np.maximum(self.counts, 1))

    @property
    def waiting_steps(self) -> tuple[int, ...]:
        """Summed waiting-so-far of each lane's queued vehicles, computed on
        read: only the ``waiting`` reward or state reads it.  A vehicle
        queued since step r has waited through steps r .. clock_s - 1."""
        return tuple([self.clock_s * q - s for q, s in zip(self.queues, self.ready_sums)])


@dataclass(slots=True)
class _VehicleRecord:
    entry_s: int
    ready_s: int
    depart_s: int | None = None


class TravelLog:
    """Per-vehicle entry / ready / departure steps for one intersection.

    The step does not write it: `IntersectionSim.log` builds it from the
    lanes, the sim's ledger, when read.  `records` is a plain dict whose
    records may be changed in place afterwards; the vehicles of one lane
    come in stop-line order.
    """

    def __init__(self, road_length_m: float, free_flow_speed_mps: float) -> None:
        self.road_length_m = road_length_m
        self.free_flow_speed_mps = free_flow_speed_mps
        self.records: dict[int, _VehicleRecord] = {}

    @property
    def free_flow_time_s(self) -> float:
        return self.road_length_m / self.free_flow_speed_mps


@dataclass
class _LaneState:
    """One lane as Newell's cumulative arrival/departure curves, and the
    intersection's per-vehicle ledger for the lane.

    Every vehicle shares the lane's free-flow time and vehicles enter in step
    order, so entry order is stop-line order.  Vehicles before `departed`
    have crossed the stop line, at the steps in `depart_steps`; those before
    `ready` have reached it, and the rest are still on the free-flow segment.
    """

    vehicle_ids: list[int] = field(default_factory=list)
    ready_steps: list[int] = field(default_factory=list)
    depart_steps: list[int] = field(default_factory=list)
    departed: int = 0
    ready: int = 0
    credit: int = 0     # discharge credit in ticks of the rational headway, while green


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


class BaseController:
    """Per-intersection signal controller; concrete ones implement decide()."""

    def decide(self, view: StepView) -> int:  # pragma: no cover - abstract
        """Return 1 to advance to the next phase, 0 to keep the current one."""
        raise NotImplementedError

    def after_step(self, view: StepView) -> None:
        """Hook called once per step with the view the step returned; a no-op here."""
        return None


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class _CellTables:
    """Occupancy cells of one intersection's lanes at one `cells_per_lane`.

    ``age_cell[a]`` is the cell of a free-flow vehicle ``a`` steps after
    entry; ``queued_rows[q]`` counts queue ranks ``0 .. q-1`` per cell, rank
    ``r`` standing ``r * VEHICLE_SPACING_M`` behind the stop line.  A cell is
    ``position // (L / cells)``, clipped to the lane.
    """

    def __init__(self, config: IntersectionConfig, ff_steps: int, cells: int) -> None:
        self.length = config.road_length_m
        self.width = config.road_length_m / cells
        self.cells = cells
        speed = config.free_flow_speed_mps
        self.age_cell = [self.cell(min(speed * age, self.length)) for age in range(ff_steps + 1)]
        self.queued_rows: list[tuple[int, ...]] = [(0,) * cells]

    def cell(self, position: float) -> int:
        return min(max(int(position // self.width), 0), self.cells - 1)

    def grow(self, queued: int) -> None:
        """Extend `queued_rows` through a queue of `queued` vehicles."""
        rows = self.queued_rows
        row = list(rows[-1])
        for rank in range(len(rows) - 1, queued):
            row[self.cell(self.length - rank * VEHICLE_SPACING_M)] += 1
            rows.append(tuple(row))


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
        self._green_lanes = [config.green_lane_indices(k) for k in range(config.phase_count)]
        self._green_masks = [_read_only(np.array([j in green for j in range(config.lane_count)]))
                             for green in self._green_lanes]
        self._red_mask = _read_only(np.zeros(config.lane_count, dtype=bool))
        self._cell_tables: dict[int, _CellTables] = {}  # cells_per_lane -> tables
        # (vehicle id, lane index) lists keyed by entry step, then by stop-line step
        self._arrivals: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._joins: dict[int, list[tuple[int, int]]] = {}
        # per-lane measures, updated at entries, joins and departures only
        self._counts, self._queues, self._ready_sums = ([0] * config.lane_count for _ in range(3))
        # (first step, phase) of each stretch of the active phase, for the phase trace
        self._phase_starts: list[tuple[int, int]] = [(0, 0)]
        self.state = SimState(
            clock_s=0,
            lanes=[_LaneState() for _ in config.lanes],
            current_phase_index=0,
            pending_phase_index=None,
            transition_countdown_s=0,
            green_elapsed_s=0,
            ignored_actions=0,
        )
        self._view = self._build_view(self._green_masks[0], [])

    # -- demand loading ------------------------------------------------------

    @staticmethod
    def entry_step(entry_time_s: float) -> int:
        """First whole second at or after the requested entry time."""
        return math.ceil(entry_time_s - 1e-9)

    def _schedule(self, vehicle_id: int, lane_idx: int, step: int) -> None:
        """File a vehicle to enter lane `lane_idx` at `step`, which must not
        have been simulated: `step` pops only the step it runs."""
        if step < self.state.clock_s:
            raise SimulationError(
                f"vehicle {vehicle_id}: entry step {step} is already simulated "
                f"(clock_s={self.state.clock_s})"
            )
        self._arrivals[step].append((vehicle_id, lane_idx))

    # -- step view -----------------------------------------------------------

    def _build_view(self, green_mask: np.ndarray, departures: list[int]) -> StepView:
        """The view of the current state: a tuple snapshot of each lane measure."""
        st = self.state
        return StepView(
            st.current_phase_index, tuple(self._counts), tuple(self._queues),
            tuple(self._ready_sums), green_mask, departures, st.clock_s, st.green_elapsed_s,
            st.transition_countdown_s > 0, st.green_elapsed_s >= self.config.min_green_s,
            self.occupancy_vector,
        )

    def occupancy_vector(self, cells_per_lane: int) -> np.ndarray:
        """Coarse per-lane occupancy grid, cell 0 at the lane entrance.

        Queued vehicles sit at one vehicle-length spacing behind the stop
        line; free-flow vehicles sit at speed * time-since-entry from the
        entrance.  Both positions depend on one small integer, so two tables
        per `cells_per_lane`, built on first use, hold every cell: the cell
        of a free-flow vehicle by its age in steps, and the per-cell counts
        of a queue by its length, grown to the longest queue seen.  A lane
        then costs one queue-table read plus one age-table read per vehicle
        still in free flow.
        """
        if cells_per_lane < 1:
            raise ConfigError("occupancy_cells: cells_per_lane must be >= 1")
        tables = self._cell_tables.get(cells_per_lane)
        if tables is None:
            tables = _CellTables(self.config, self._ff_steps, cells_per_lane)
            self._cell_tables[cells_per_lane] = tables
        age_cell, queued_rows = tables.age_cell, tables.queued_rows
        # a vehicle ready at step r entered at r - ff, so it is age_base - r
        # steps old; step() leaves every free-flow vehicle 1 .. ff steps old
        age_base = self.state.clock_s + self._ff_steps
        out: list[int] = []
        for lane in self.state.lanes:
            queued = lane.ready - lane.departed
            if queued >= len(queued_rows):
                tables.grow(queued)
            base = len(out)
            out += queued_rows[queued]
            for ready in lane.ready_steps[lane.ready:]:
                out[base + age_cell[age_base - ready]] += 1
        return np.array(out, dtype=np.int64)

    def control_context(self) -> StepView:
        """The view the last step returned, or the pre-step view before the first."""
        return self._view

    @property
    def log(self) -> TravelLog:
        """A new travel log, built from the lanes on each read.

        Entry = stop-line step - free-flow steps.  The records come lane by
        lane, each lane's in stop-line order, so they are in lane order
        rather than entry order.  `run_episode` reads each log once, at the
        end of the episode.
        """
        log = TravelLog(self.config.road_length_m, self.config.free_flow_speed_mps)
        records, ff = log.records, self._ff_steps
        for lane in self.state.lanes:
            # the departure steps run out first: the rest are still on the lane
            for vid, ready, depart in zip_longest(lane.vehicle_ids, lane.ready_steps,
                                                  lane.depart_steps):
                if vid in records:
                    raise SimulationError(f"vehicle {vid} entered twice")
                records[vid] = _VehicleRecord(ready - ff, ready, depart)
        return log

    # -- dynamics ------------------------------------------------------------

    def step(self, action: int) -> StepView:
        """Advance the world by one second under the given keep/change action."""
        if action not in (KEEP, CHANGE):
            raise SimulationError(f"action must be 0 or 1, got {action!r}")
        cfg, st = self.config, self.state
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
                self._phase_starts.append((t, st.current_phase_index))
        elif action == CHANGE:
            if st.green_elapsed_s >= cfg.min_green_s:
                nxt = (st.current_phase_index + 1) % cfg.phase_count
                if cfg.transition_time_s == 0:
                    st.current_phase_index = nxt
                    st.green_elapsed_s = 0
                    self._phase_starts.append((t, nxt))
                else:
                    st.pending_phase_index = nxt
                    st.transition_countdown_s = cfg.transition_time_s
            else:
                st.ignored_actions += 1
                log.debug("t=%d: change request ignored before min green", t)

        green_now = st.transition_countdown_s == 0
        green = self._green_lanes[st.current_phase_index] if green_now else ()
        lanes, counts, queues, ready_sums = st.lanes, self._counts, self._queues, self._ready_sums

        # (b) arrivals, kept to join the queue at their stop-line step
        if arrivals := self._arrivals.pop(t, None):
            ready = t + self._ff_steps
            for vid, j in arrivals:  # insertion order = load order
                lanes[j].vehicle_ids.append(vid)
                lanes[j].ready_steps.append(ready)
                counts[j] += 1
            self._joins[ready] = arrivals

        # (c) queue join: entry order is stop-line order on every lane
        for _, j in self._joins.pop(t, ()):
            lanes[j].ready += 1
            queues[j] += 1
            ready_sums[j] += t

        # (d) discharge on green lanes; one not green in the last step starts at 0 credit
        mask = self._green_masks[st.current_phase_index] if green_now else self._red_mask
        last = self._view.green_mask  # that of the last step, or phase 0's before the first
        departures: list[int] = []
        cost, gain, cap = self._tick_cost, self._tick_gain, self._tick_cap
        for j in green:
            lane = lanes[j]
            if mask is not last and not last[j]:
                credit = gain
            else:
                credit = lane.credit + gain
                if credit > cap:
                    credit = cap
            if queues[j] and credit >= cost:
                head, at_line = lane.departed, lane.ready
                while credit >= cost and head < at_line:
                    vid = lane.vehicle_ids[head]
                    ready_sums[j] -= lane.ready_steps[head]
                    lane.depart_steps.append(t)
                    departures.append(vid)
                    head += 1
                    credit -= cost
                queues[j] -= head - lane.departed
                counts[j] -= head - lane.departed
                lane.departed = head
            lane.credit = credit

        # (f) clock, then (e) reward and the view, post-movement
        st.clock_s = t + 1
        if green_now:
            st.green_elapsed_s += 1
        self._view = self._build_view(mask, departures)
        return self._view

    def _traces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reward, phase and queue traces of every step run, as the views
        reported them, rebuilt from the recorded events.

        Lane j's queue after step t is the difference of its cumulative
        curves: vehicles with a stop-line step <= t minus those with a
        departure step <= t, the running sum of per-step joins minus
        departures.  A vehicle still in free flow has a stop-line step past
        the last one run.  Mid-transition the phase trace keeps the outgoing
        phase.
        """
        horizon = self.state.clock_s
        queues = np.empty((horizon, self.config.lane_count), dtype=np.int64)
        for j, lane in enumerate(self.state.lanes):
            np.subtract(np.bincount(lane.ready_steps, minlength=horizon)[:horizon],
                        np.bincount(lane.depart_steps, minlength=horizon), out=queues[:, j])
        np.cumsum(queues, axis=0, out=queues)
        starts, phase_indices = zip(*self._phase_starts)
        phases = np.repeat(np.array(phase_indices, dtype=np.int64), np.diff(starts + (horizon,)))
        # negate the int sums before converting, so no -0.0 appears
        return (-queues.sum(axis=1)).astype(float), phases, queues


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
    """Fail fast before simulation on a vehicle id that two vehicles share
    (the episode routes and logs vehicles by id), or on a route that
    references a missing lane, does not follow a network link from one hop
    to the next, or enters an intersection twice (each intersection logs a
    vehicle once).

    Each distinct route object is checked once, at the first vehicle that
    carries it; ``demand`` keeps every route alive, so its ``id`` is a safe key.
    """
    seen: set[int] = set()
    for veh in demand:
        if veh.id in seen:
            raise ConfigError(f"demand: vehicle id {veh.id} is used by more than one vehicle")
        seen.add(veh.id)
    links = network.links
    checked: set[int] = set()
    for veh in demand:
        route = veh.route
        if id(route) in checked:
            continue
        checked.add(id(route))
        for lane in route:
            if not network.has_lane(lane):
                raise ConfigError(
                    f"demand_route: vehicle {veh.id} references missing lane {lane}"
                )
        for prev, lane in zip(route, route[1:]):
            out = exit_approach(prev.approach, prev.movement)
            if links.get((prev.intersection, out)) != (lane.intersection, lane.approach):
                raise ConfigError(
                    f"demand_route: vehicle {veh.id} cannot reach {lane} from {prev}: no "
                    f"link from the {out.value} exit of intersection {prev.intersection} "
                    f"to that approach"
                )
        if len({lane.intersection for lane in route}) < len(route):
            raise ConfigError(f"demand_route: vehicle {veh.id} enters an intersection twice")


def link_time_too_short(link_travel_time_s: float, horizon_s: int) -> bool:
    """Whether a next hop can land on a step already simulated.

    A next hop is scheduled at departure step + link time; it must land on a
    later step, or the intersection may already have simulated it.  How much
    of a tiny link time rounding absorbs does not grow steadily with the
    departure step (a 1.000001e-9 s link is lost at steps 16 to 31 but not
    at 32 to 59), so every step of the horizon is tested, unless the link
    takes a whole second.  Only multi-hop routes cross a link, so only they make a true
    answer an error.
    """
    if link_travel_time_s >= 1.0:
        return False
    return any(IntersectionSim.entry_step(t + link_travel_time_s) <= t
               for t in range(horizon_s))


def run_episode(
    network: NetworkConfig,
    controllers: Sequence[BaseController],
    demand: Sequence[Vehicle],
    horizon_s: int,
    seed: int = 0,
) -> EpisodeResult:
    """Step every intersection once per second for `horizon_s` seconds.

    Vehicles departing an intersection re-enter the next intersection of
    their route after the network link travel time.  The travel logs and
    the reward, phase and queue traces are built once, at the end of the
    episode, from the lanes and phase switches each sim recorded.  Fully
    deterministic for a given (network, controllers, demand, seed).
    """
    if horizon_s <= 0:
        raise ConfigError("horizon: horizon_s must be positive")
    n = network.intersection_count
    if len(controllers) != n:
        raise ConfigError(f"controllers: expected {n} controllers, got {len(controllers)}")
    validate_demand(network, demand)
    if (link_time_too_short(network.link_travel_time_s, horizon_s)
            and any(len(veh.route) > 1 for veh in demand)):
        raise ConfigError(
            f"network_link: link_travel_time_s={network.link_travel_time_s} puts a "
            f"vehicle's next hop in the step it departs, which is already simulated; "
            f"multi-hop routes need a positive link time"
        )

    sims = [IntersectionSim(cfg) for cfg in network.intersections]
    # each distinct route object as (sim, lane index) hops, resolved once;
    # ``demand`` keeps every route alive, so its ``id`` is a safe key
    hops_of_route: dict[int, tuple[tuple[IntersectionSim, int], ...]] = {}
    hops: dict[int, tuple[tuple[IntersectionSim, int], ...]] = {}
    route_pos: dict[int, int] = {}
    for veh in demand:
        route_hops = hops_of_route.get(id(veh.route))
        if route_hops is None:
            route_hops = hops_of_route[id(veh.route)] = tuple(
                (sims[lane.intersection], sims[lane.intersection].config.lane_index(lane))
                for lane in veh.route
            )
        hops[veh.id] = route_hops
        route_pos[veh.id] = 0
        sim, j = route_hops[0]
        sim._schedule(veh.id, j, IntersectionSim.entry_step(veh.entry_time_s))

    # the entry step of a next hop, by the step its vehicle departs
    hop_steps = [IntersectionSim.entry_step(t + network.link_travel_time_s)
                 for t in range(horizon_s)]
    bound = [(sim.step, sim.control_context, ctrl.decide, ctrl.after_step)
             for sim, ctrl in zip(sims, controllers)]
    network_departures = 0
    for hop_step in hop_steps:
        for step, control_context, decide, after_step in bound:
            view = step(decide(control_context()))
            after_step(view)
            for vid in view.departures:
                pos = route_pos[vid] + 1
                route_hops = hops[vid]
                if pos < len(route_hops):
                    route_pos[vid] = pos
                    sim, j = route_hops[pos]
                    sim._schedule(vid, j, hop_step)
                else:
                    network_departures += 1

    rewards, phases, queues = zip(*(sim._traces() for sim in sims))
    return EpisodeResult(
        travel_logs=[sim.log for sim in sims],
        reward_traces=list(rewards), queue_traces=list(queues), phase_traces=list(phases),
        horizon_s=horizon_s,
        seed=seed,
        network_departures=network_departures,
        ignored_actions=[sim.state.ignored_actions for sim in sims],
    )
