"""Demand synthesis and the demand-file reader.

Arrival profiles are piecewise-constant rates per lane.  Two processes:
``deterministic`` spaces vehicles exactly 3600/rate seconds apart (offset 0
at each window start), matching the uniform-arrivals assumption of the
timing theory; ``poisson`` draws exponential inter-arrival gaps from a
seeded generator, one independent substream per lane.

The on-disk format is a CSV with header
``vehicle_id,entry_time_s,intersection,approach,movement`` and, for routes
crossing several intersections, additional ``intersection,approach,movement``
triples appended to the row.  `load_demand_csv` only parses it; the rules on
vehicle ids, lanes and routes are `sim.validate_demand`'s, which checks the
vehicles against a network.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    Approach,
    ConfigError,
    LaneId,
    Movement,
    NetworkConfig,
    Vehicle,
    exit_approach,
)

DEMAND_HEADER = ["vehicle_id", "entry_time_s", "intersection", "approach", "movement"]


class ArrivalProcess(str, Enum):
    DETERMINISTIC = "deterministic"
    POISSON = "poisson"


@dataclass(frozen=True)
class RateWindow:
    start_s: float
    end_s: float
    rate_vph: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigError("demand_window: end must exceed start")
        if self.rate_vph < 0:
            raise ConfigError("demand_rate: rates must be >= 0")


@dataclass(frozen=True)
class DemandSpec:
    """Per-lane piecewise-constant arrival schedule over [0, horizon_s)."""

    lane_windows: dict[LaneId, tuple[RateWindow, ...]]
    horizon_s: float
    process: ArrivalProcess = ArrivalProcess.DETERMINISTIC
    seed: int = 0

    def __post_init__(self) -> None:
        for lane, windows in self.lane_windows.items():
            spans = sorted(windows, key=lambda w: w.start_s)
            cursor = 0.0
            for w in spans:
                if abs(w.start_s - cursor) > 1e-9:
                    raise ConfigError(
                        f"demand_windows: lane {lane} windows must tile "
                        f"[0, {self.horizon_s}] without gaps or overlap"
                    )
                cursor = w.end_s
            if abs(cursor - self.horizon_s) > 1e-9:
                raise ConfigError(
                    f"demand_windows: lane {lane} windows end at {cursor}, "
                    f"not the horizon {self.horizon_s}"
                )


def _window_arrivals_deterministic(window: RateWindow) -> list[float]:
    if window.rate_vph == 0:
        return []
    gap = 3600.0 / window.rate_vph
    times = []
    t = window.start_s  # offset 0: first vehicle at the window start
    while t < window.end_s - 1e-9:
        times.append(t)
        t += gap
    return times

def _window_arrivals_poisson(window: RateWindow, rng: np.random.Generator) -> list[float]:
    if window.rate_vph == 0:
        return []
    mean_gap = 3600.0 / window.rate_vph
    times = []
    t = window.start_s + rng.exponential(mean_gap)
    while t < window.end_s:
        times.append(t)
        t += rng.exponential(mean_gap)
    return times


def realize(spec: DemandSpec, route_for_lane=None) -> list[Vehicle]:
    """Materialize a spec into id-stamped vehicles sorted by entry time.

    ``route_for_lane(lane)`` maps an entry lane to the full route; default is
    the single-hop route [lane].  It is called once per lane that has
    vehicles, and every vehicle entering on that lane shares the one tuple.
    """
    seq = np.random.SeedSequence(spec.seed)
    lanes = sorted(spec.lane_windows, key=lambda l: (l.intersection, l.approach, l.movement))
    streams = seq.spawn(len(lanes))
    entries: list[tuple[float, LaneId, tuple[LaneId, ...]]] = []
    for lane, stream in zip(lanes, streams):
        rng = np.random.default_rng(stream)
        times = []
        for window in sorted(spec.lane_windows[lane], key=lambda w: w.start_s):
            if spec.process is ArrivalProcess.DETERMINISTIC:
                times += _window_arrivals_deterministic(window)
            else:
                times += _window_arrivals_poisson(window, rng)
        if times:
            route = tuple(route_for_lane(lane)) if route_for_lane is not None else (lane,)
            entries.extend((t, lane, route) for t in times)
    entries.sort(key=lambda e: (e[0], e[1].intersection, e[1].approach, e[1].movement))
    return [Vehicle(id=vid, entry_time_s=t, route=route)
            for vid, (t, _, route) in enumerate(entries)]


def uniform_spec(rate_vph: "float | dict[LaneId, float]", lanes: Sequence[LaneId],
                 horizon_s: float, process: ArrivalProcess = ArrivalProcess.DETERMINISTIC,
                 seed: int = 0) -> DemandSpec:
    """Constant-rate spec; rate may be scalar or per-lane."""
    windows = {}
    for lane in lanes:
        rate = rate_vph[lane] if isinstance(rate_vph, dict) else rate_vph
        windows[lane] = (RateWindow(0.0, horizon_s, rate),)
    return DemandSpec(windows, horizon_s, ArrivalProcess(process), seed)


def generate_uniform(rate_vph, lanes: Sequence[LaneId], horizon_s: float,
                     process: ArrivalProcess = ArrivalProcess.DETERMINISTIC,
                     seed: int = 0, route_for_lane=None) -> list[Vehicle]:
    """Uniform demand on the given lanes (one vehicle per 3600/rate seconds)."""
    return realize(uniform_spec(rate_vph, lanes, horizon_s, process, seed),
                   route_for_lane)


def peak_spans(peak_windows: Sequence[tuple[float, float]], horizon_s: float,
               key: str = "demand_peak") -> list[tuple[float, float]]:
    """The peak windows in start order; a ConfigError prefixed with `key` if
    one is empty or leaves [0, horizon_s], or two overlap."""
    spans = sorted(peak_windows)
    for s, e in spans:
        if e <= s:
            raise ConfigError(f"{key}: peak window [{s}, {e}] must end after it starts")
        if s < 0 or e > horizon_s:
            raise ConfigError(f"{key}: peak window [{s}, {e}] outside the horizon "
                              f"[0, {horizon_s}]")
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ConfigError(f"{key}: peak windows overlap")
    return spans


def peaked_spec(base_vph: float, peak_vph: float,
                peak_windows: Sequence[tuple[float, float]],
                lanes: Sequence[LaneId], horizon_s: float,
                process: ArrivalProcess = ArrivalProcess.DETERMINISTIC,
                seed: int = 0,
                peak_lanes: Sequence[LaneId] | None = None,
                key: str = "demand_peak") -> DemandSpec:
    """Base-rate demand with elevated-rate windows (on all or selected lanes);
    `peak_spans` checks the windows, under `key`."""
    spans = peak_spans(peak_windows, horizon_s, key)
    peak_set = set(peak_lanes) if peak_lanes is not None else set(lanes)
    lane_windows = {}
    for lane in lanes:
        if lane not in peak_set:
            lane_windows[lane] = (RateWindow(0.0, horizon_s, base_vph),)
            continue
        windows = []
        cursor = 0.0
        for s, e in spans:
            if s > cursor:
                windows.append(RateWindow(cursor, s, base_vph))
            windows.append(RateWindow(s, e, peak_vph))
            cursor = e
        if cursor < horizon_s:
            windows.append(RateWindow(cursor, horizon_s, base_vph))
        lane_windows[lane] = tuple(windows)
    return DemandSpec(lane_windows, horizon_s, ArrivalProcess(process), seed)


# ---------------------------------------------------------------------------
# grid routing


def straight_route(network: NetworkConfig, entry_lane: LaneId) -> tuple[LaneId, ...]:
    """Follow through-movements across the grid until the network edge."""
    route = [entry_lane]
    lane = entry_lane
    while True:
        out = exit_approach(lane.approach, lane.movement)
        link = network.links.get((lane.intersection, out))
        if link is None:
            return tuple(route)
        next_intersection, entry = link
        lane = LaneId(next_intersection, entry, Movement.T)
        if not network.has_lane(lane):
            raise ConfigError(
                f"demand_route: straight route needs missing lane {lane}"
            )
        route.append(lane)


# ---------------------------------------------------------------------------
# demand files


def load_demand_csv(path) -> list[Vehicle]:
    """The vehicles of a demand file, sorted by entry time then id; a
    malformed line raises a ConfigError that names it."""
    vehicles = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}:1: demand file is empty (missing header)")
        if [h.strip() for h in header[:5]] != DEMAND_HEADER:
            raise ConfigError(
                f"{path}:1: expected header {','.join(DEMAND_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 5 or (len(row) - 2) % 3 != 0:
                raise ConfigError(
                    f"{path}:{lineno}: expected id, entry time, and "
                    f"(intersection, approach, movement) triples"
                )
            try:
                vid = int(row[0])
                entry = float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if entry < 0:
                raise ConfigError(f"{path}:{lineno}: entry time must be >= 0")
            hops = []
            for i in range(2, len(row), 3):
                try:
                    hops.append(LaneId(
                        int(row[i]), Approach(row[i + 1].strip()),
                        Movement(row[i + 2].strip()),
                    ))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
            vehicles.append(Vehicle(id=vid, entry_time_s=entry, route=tuple(hops)))
    vehicles.sort(key=lambda v: (v.entry_time_s, v.id))
    return vehicles
