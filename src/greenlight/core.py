"""Domain vocabulary for signalized intersections and grid networks.

Everything here is immutable after construction and safe to share between
threads.  Validation is total: a config either passes every invariant or
raises :class:`ConfigError` naming the first violated invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property


class ConfigError(ValueError):
    """A configuration violates a structural invariant."""


class Approach(str, enum.Enum):
    """Entering direction of a lane, named after the compass side it comes from."""

    W = "W"
    E = "E"
    N = "N"
    S = "S"


class Movement(str, enum.Enum):
    """Turning movement served by a lane."""

    L = "L"
    T = "T"
    R = "R"


# Exit side of the intersection for a vehicle entering on `approach` and
# performing `movement` (right-hand traffic).
_EXIT_APPROACH: dict[tuple[Approach, Movement], Approach] = {
    (Approach.W, Movement.T): Approach.E,
    (Approach.W, Movement.L): Approach.N,
    (Approach.W, Movement.R): Approach.S,
    (Approach.E, Movement.T): Approach.W,
    (Approach.E, Movement.L): Approach.S,
    (Approach.E, Movement.R): Approach.N,
    (Approach.N, Movement.T): Approach.S,
    (Approach.N, Movement.L): Approach.E,
    (Approach.N, Movement.R): Approach.W,
    (Approach.S, Movement.T): Approach.N,
    (Approach.S, Movement.L): Approach.W,
    (Approach.S, Movement.R): Approach.E,
}


def exit_approach(approach: Approach, movement: Movement) -> Approach:
    """Side of the intersection a vehicle leaves through."""
    return _EXIT_APPROACH[(approach, movement)]


@dataclass(frozen=True)
class LaneId:
    """One approaching lane: (intersection index, entering direction, movement)."""

    intersection: int
    approach: Approach
    movement: Movement

    @property
    def label(self) -> str:
        return f"{self.approach.value}{self.movement.value}"

    def __str__(self) -> str:  # "0:WT"
        return f"{self.intersection}:{self.label}"


@dataclass(frozen=True)
class PhaseDefinition:
    """A signal phase: the set of lanes that receive green together.

    The conventional two-movement naming ("WT-ET") is just a label; any
    non-conflicting lane set is allowed.
    """

    green_lanes: frozenset[LaneId]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.green_lanes:
            raise ConfigError("phase_green_lanes_nonempty: phase has no green lanes")
        if not self.label:
            auto = "-".join(sorted(lane.label for lane in self.green_lanes))
            object.__setattr__(self, "label", auto)


@dataclass(frozen=True)
class IntersectionConfig:
    """Static geometry and signal timing constants for one intersection.

    lanes define the observation ordering: lane index j in every vector
    (counts, queues, occupancy) follows the order of `lanes`.
    """

    lanes: tuple[LaneId, ...]
    phases: tuple[PhaseDefinition, ...]
    road_length_m: float = 300.0
    free_flow_speed_mps: float = 10.0
    saturation_headway_s: float = 2.0
    yellow_s: int = 3
    all_red_s: int = 2
    min_green_s: int = 5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every invariant; raise ConfigError naming the first violation."""
        if len(self.phases) < 2:
            raise ConfigError("phase_count: need at least 2 phases")
        if self.road_length_m <= 0:
            raise ConfigError("road_length: must be positive")
        if self.free_flow_speed_mps <= 0:
            raise ConfigError("free_flow_speed: must be positive")
        if self.saturation_headway_s <= 0:
            raise ConfigError("saturation_headway: must be positive")
        if self.yellow_s < 0 or self.all_red_s < 0:
            raise ConfigError("transition_time: yellow and all-red must be >= 0")
        if self.min_green_s < 1:
            raise ConfigError("min_green: must be >= 1 second")
        if len(set(self.lanes)) != len(self.lanes):
            raise ConfigError("lane_uniqueness: duplicate lane ids")
        lane_set = set(self.lanes)
        for phase in self.phases:
            for lane in phase.green_lanes:
                if lane not in lane_set:
                    raise ConfigError(
                        f"phase_lane_membership: {lane} in phase {phase.label!r} "
                        "is not a lane of this intersection"
                    )
        served = set().union(*(p.green_lanes for p in self.phases))
        for lane in self.lanes:
            if lane not in served:
                raise ConfigError(
                    f"lane_coverage: lane {lane} is never green and can never discharge"
                )

    @property
    def phase_count(self) -> int:
        return len(self.phases)

    @property
    def lane_count(self) -> int:
        return len(self.lanes)

    @property
    def free_flow_time_s(self) -> float:
        return self.road_length_m / self.free_flow_speed_mps

    @property
    def transition_time_s(self) -> int:
        return self.yellow_s + self.all_red_s

    @cached_property
    def _lane_indices(self) -> dict[tuple[int, Approach, Movement], int]:
        # keyed by the id's fields: a plain tuple hashes and compares in C,
        # a LaneId through its generated Python methods
        return {(l.intersection, l.approach, l.movement): j for j, l in enumerate(self.lanes)}

    def lane_index(self, lane: LaneId) -> int | None:
        """Index j of `lane` in every per-lane vector; None if it is not here."""
        return self._lane_indices.get((lane.intersection, lane.approach, lane.movement))

    def green_lane_indices(self, phase_index: int) -> tuple[int, ...]:
        phase = self.phases[phase_index]
        return tuple(j for j, lane in enumerate(self.lanes) if lane in phase.green_lanes)


@dataclass(frozen=True)
class Vehicle:
    """One demand entry: entry time plus the per-intersection lane route."""

    id: int
    entry_time_s: float
    route: tuple[LaneId, ...]

    def __post_init__(self) -> None:
        if not self.route:
            raise ConfigError("vehicle_route: route must be non-empty")
        if self.entry_time_s < 0:
            raise ConfigError("vehicle_entry_time: must be >= 0")


@dataclass(frozen=True)
class NetworkConfig:
    """A set of intersections plus directed links between grid neighbours.

    `links` maps (intersection index, exit approach) to the downstream
    (intersection index, entry approach).  Vehicles follow their own routes;
    links determine connectivity for route synthesis and validation.
    """

    intersections: tuple[IntersectionConfig, ...]
    links: dict[tuple[int, Approach], tuple[int, Approach]] = field(default_factory=dict)
    link_travel_time_s: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.intersections)
        if n == 0:
            raise ConfigError("network_intersections: need at least one intersection")
        for (src, _), (dst, _) in self.links.items():
            if not (0 <= src < n) or not (0 <= dst < n):
                raise ConfigError(f"network_links: link {src}->{dst} references a missing intersection")
            if src == dst:
                raise ConfigError(f"network_links: self-loop link at intersection {src}")
        if self.link_travel_time_s < 0:
            raise ConfigError("network_link_travel_time: must be >= 0")

    @property
    def intersection_count(self) -> int:
        return len(self.intersections)

    def has_lane(self, lane: LaneId) -> bool:
        if not (0 <= lane.intersection < len(self.intersections)):
            return False
        return self.intersections[lane.intersection].lane_index(lane) is not None


def build_standard_intersection(
    phase_count: int,
    *,
    road_length_m: float = 300.0,
    free_flow_speed_mps: float = 10.0,
    saturation_headway_s: float = 2.0,
    yellow_s: int = 3,
    all_red_s: int = 2,
    min_green_s: int = 5,
) -> IntersectionConfig:
    """Four-way intersection with 300 m approaches and standard timing.

    phase_count=2 gives through phases only (WT-ET, NT-ST); phase_count=4
    adds protected left phases (WL-EL, NL-SL) and the matching left lanes.
    """
    if phase_count not in (2, 4):
        raise ConfigError(f"phase_count: unsupported phase count {phase_count} (expected 2 or 4)")

    def lane(approach: Approach, movement: Movement) -> LaneId:
        return LaneId(0, approach, movement)

    through = [lane(a, Movement.T) for a in (Approach.W, Approach.E, Approach.N, Approach.S)]
    lanes: list[LaneId] = list(through)
    phases = [
        PhaseDefinition(frozenset({through[0], through[1]}), "WT-ET"),
        PhaseDefinition(frozenset({through[2], through[3]}), "NT-ST"),
    ]
    if phase_count == 4:
        lefts = [lane(a, Movement.L) for a in (Approach.W, Approach.E, Approach.N, Approach.S)]
        lanes += lefts
        phases += [
            PhaseDefinition(frozenset({lefts[0], lefts[1]}), "WL-EL"),
            PhaseDefinition(frozenset({lefts[2], lefts[3]}), "NL-SL"),
        ]
    return IntersectionConfig(
        lanes=tuple(lanes),
        phases=tuple(phases),
        road_length_m=road_length_m,
        free_flow_speed_mps=free_flow_speed_mps,
        saturation_headway_s=saturation_headway_s,
        yellow_s=yellow_s,
        all_red_s=all_red_s,
        min_green_s=min_green_s,
    )


def _reindex(base: IntersectionConfig, index: int) -> IntersectionConfig:
    """Copy of `base` with every lane id re-homed to intersection `index`."""
    mapping = {
        lane: LaneId(index, lane.approach, lane.movement) for lane in base.lanes
    }
    lanes = tuple(mapping[lane] for lane in base.lanes)
    phases = tuple(
        PhaseDefinition(frozenset(mapping[lane] for lane in p.green_lanes), p.label)
        for p in base.phases
    )
    return replace(base, lanes=lanes, phases=phases)


def single_intersection_network(config: IntersectionConfig) -> NetworkConfig:
    return NetworkConfig(intersections=(_reindex(config, 0),))


def build_grid_network(rows: int, cols: int, base: IntersectionConfig) -> NetworkConfig:
    """rows x cols grid of copies of `base`, linked between neighbours.

    Intersection (r, c) has index r*cols + c.  Rows grow southward, so the
    south exit of (r, c) feeds the north entry of (r+1, c), and the east
    exit feeds the west entry of (r, c+1).
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid_shape: rows and cols must be >= 1")

    def idx(r: int, c: int) -> int:
        return r * cols + c

    intersections = tuple(_reindex(base, idx(r, c)) for r in range(rows) for c in range(cols))
    links: dict[tuple[int, Approach], tuple[int, Approach]] = {}
    for r in range(rows):
        for c in range(cols):
            here = idx(r, c)
            if c + 1 < cols:
                east = idx(r, c + 1)
                links[(here, Approach.E)] = (east, Approach.W)
                links[(east, Approach.W)] = (here, Approach.E)
            if r + 1 < rows:
                south = idx(r + 1, c)
                links[(here, Approach.S)] = (south, Approach.N)
                links[(south, Approach.N)] = (here, Approach.S)
    return NetworkConfig(
        intersections=intersections,
        links=links,
        link_travel_time_s=base.road_length_m / base.free_flow_speed_mps,
    )
