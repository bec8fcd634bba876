"""Non-learning signal controllers: fixed-time, queue-actuated, and volume-based.

Three baselines share the keep/change action interface of the simulator:

* ``FixedTimeController`` — equal fixed green per phase.
* ``SotlController`` — self-organizing thresholds on queue lengths.
* ``WebsterController`` — periodically re-times cycle length and green
  splits from online flow estimates, using the classical capacity-based
  cycle formula C = K*t_L / (1 - V_c * h / 3600).

The pure timing/decision functions are module-level so they can be tested
(and reused) without controller state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, IntersectionConfig
from .sim import KEEP, CHANGE, BaseController, ControlContext, StepOutcome


class OversaturatedError(RuntimeError):
    """Demand exceeds capacity; no feasible timing plan at the given bounds."""


@dataclass(frozen=True)
class WebsterParams:
    """Tuning constants for the volume-based timing plan."""

    loss_time_per_phase_s: float = 5.0          # t_L, defaults to yellow + all-red
    saturation_headway_s: float = 2.0           # h
    cycle_bounds_s: tuple[float, float] = (20.0, 180.0)
    green_bounds_s: tuple[float, float] = (5.0, 90.0)
    measurement_window_s: int = 300             # volume estimation / replan period

    def __post_init__(self) -> None:
        c_min, c_max = self.cycle_bounds_s
        g_min, g_max = self.green_bounds_s
        if not (0 < c_min <= c_max):
            raise ConfigError("webster_cycle_bounds: need 0 < C_min <= C_max")
        if not (0 <= g_min < g_max):
            raise ConfigError("webster_green_bounds: need 0 <= g_min < g_max")
        if self.loss_time_per_phase_s < 0 or self.saturation_headway_s <= 0:
            raise ConfigError("webster_params: t_L >= 0 and h > 0 required")
        if self.measurement_window_s < 2:
            raise ConfigError("webster_window: measurement window must be >= 2 s")


@dataclass
class FlowEstimate:
    """Per-lane arrival rates reconstructed from count histories."""

    f_in_per_lane: np.ndarray       # vehicles/second
    in_samples: np.ndarray          # red-step samples behind each f_in

    def f_in_valid(self) -> np.ndarray:
        return self.in_samples >= 1


# ---------------------------------------------------------------------------
# pure decision / timing functions


def fixed_time_decide(elapsed_green_s: float, phase_duration_s: float) -> int:
    """Change exactly when the fixed allotment is used up."""
    if elapsed_green_s < 0:
        raise ConfigError("fixed_time: elapsed green must be >= 0")
    return CHANGE if elapsed_green_s >= phase_duration_s else KEEP


def sotl_decide(
    green_lane_queues: Sequence[float],
    red_lane_queues: Sequence[float],
    elapsed_green_s: float,
    theta_red: float,
    theta_green: float,
    min_green_s: float,
) -> int:
    """Queue-threshold actuation.

    Switch iff the green phase has run at least ``min_green_s``, some red
    lane has built a queue above ``theta_red``, and the green lanes have
    (almost) emptied below ``theta_green``.
    """
    if theta_red < 0 or theta_green < 0:
        raise ConfigError("sotl: thresholds must be >= 0")
    if elapsed_green_s < min_green_s:
        return KEEP
    red_max = max(red_lane_queues, default=0)
    green_sum = sum(green_lane_queues)
    return CHANGE if (red_max > theta_red and green_sum < theta_green) else KEEP


def webster_cycle_length(critical_volume_sum_vph: float, params: WebsterParams,
                         phase_count: int) -> float:
    """Desired cycle C = K*t_L / (1 - V_c*h/3600), clamped to the cycle bounds.

    A non-positive denominator means demand at or beyond saturation flow; the
    longest allowed cycle is returned rather than raising, so callers always
    get a usable plan.
    """
    if critical_volume_sum_vph < 0:
        raise ConfigError("webster: critical volume must be >= 0")
    c_min, c_max = params.cycle_bounds_s
    denom = 1.0 - critical_volume_sum_vph * params.saturation_headway_s / 3600.0
    if denom <= 0:
        return c_max
    raw = phase_count * params.loss_time_per_phase_s / denom
    return min(max(raw, c_min), c_max)


def webster_phase_splits(
    critical_volume_per_phase: Sequence[float],
    cycle_s: float,
    params: WebsterParams,
    *,
    enforce_capacity: bool = False,
) -> list[float]:
    """Split the effective green G = C - K*t_L proportionally to phase volumes.

    Phases clamped at a green bound drop out and the slack is re-spread over
    the rest by volume; the final rounding residual lands on the
    largest-volume phase so the splits sum to G exactly.  Raises
    OversaturatedError when the bounds make an exact-sum split impossible,
    or — with ``enforce_capacity`` — when a phase would get less green than
    its volume/saturation flow ratio demands (min-green clamps can starve a
    loaded phase even at a feasible cycle; controllers then fall back to the
    longest cycle).
    """
    volumes = np.asarray(critical_volume_per_phase, dtype=float)
    if np.any(volumes < 0):
        raise ConfigError("webster: phase volumes must be >= 0")
    k = len(volumes)
    if k < 1:
        raise ConfigError("webster: need at least one phase volume")
    g_min, g_max = params.green_bounds_s
    total_green = cycle_s - k * params.loss_time_per_phase_s
    if not (k * g_min <= total_green <= k * g_max):
        raise OversaturatedError(
            f"green time {total_green:.1f}s cannot be split into {k} phases "
            f"within bounds [{g_min}, {g_max}]"
        )

    splits = np.empty(k)
    clamped = np.zeros(k, dtype=bool)
    target = np.full(k, np.nan)
    # waterfill: clamp violators, redistribute among the free phases, repeat
    for _ in range(k + 1):
        free = ~clamped
        remaining = total_green - target[clamped].sum() if clamped.any() else total_green
        vol_free = volumes[free]
        if vol_free.sum() > 0:
            share = remaining * vol_free / vol_free.sum()
        else:
            share = np.full(free.sum(), remaining / max(free.sum(), 1))
        splits[free] = share
        splits[clamped] = target[clamped]
        low = free & (splits < g_min)
        high = free & (splits > g_max)
        if not (low.any() or high.any()):
            break
        target[low] = g_min
        target[high] = g_max
        clamped |= low | high
    else:  # pragma: no cover - loop always terminates within k rounds
        raise OversaturatedError("split redistribution failed to settle")

    if clamped.all() and abs(splits.sum() - total_green) > 1e-9:
        raise OversaturatedError("all phases clamped; exact green sum impossible")

    # exact-sum residual onto the largest-volume phase
    residual = total_green - splits.sum()
    winner = int(np.argmax(volumes))
    if not (g_min - 1e-9 <= splits[winner] + residual <= g_max + 1e-9):
        raise OversaturatedError("residual assignment violates green bounds")
    splits[winner] += residual

    if enforce_capacity:
        # each phase's green share must cover its flow ratio
        u_sat_vph = 3600.0 / params.saturation_headway_s
        for i in range(k):
            if splits[i] / cycle_s < volumes[i] / u_sat_vph - 1e-9:
                raise OversaturatedError(
                    f"phase {i} green share {splits[i] / cycle_s:.3f} below "
                    f"flow ratio {volumes[i] / u_sat_vph:.3f}"
                )
    return [float(g) for g in splits]


def discharge_capacity_vph(green_s: float, cycle_s: float, headway_s: float) -> float:
    """Vehicles/hour a lane can actually release under a (green, cycle) plan.

    The simulator accrues discharge credit 1/h per green second, capped at
    one banked vehicle, and zeroes it on red, so a green stretch of g
    seconds releases floor(g/h) vehicles — not g/h.  Short greens therefore
    lose up to one vehicle per cycle relative to the fluid g/h rate, which
    matters when flow ratios are computed from the continuous formula.
    """
    if cycle_s <= 0 or headway_s <= 0:
        raise ConfigError("discharge_capacity: cycle and headway must be positive")
    green_steps = math.ceil(green_s - 1e-9)  # change fires at first whole second >= g
    return math.floor(green_steps / headway_s + 1e-9) * 3600.0 / cycle_s


def estimate_flows(counts: np.ndarray, green_masks: np.ndarray) -> FlowEstimate:
    """Reconstruct per-lane arrival rates from count history.

    ``counts[s]`` is the post-step vehicle count vector of step ``s`` and
    ``green_masks[s]`` the discharge mask that applied during step ``s``.
    A step where a lane was red contributes an arrival sample
    ``counts[s] - counts[s-1]``: nothing left, so the difference is pure
    inflow.
    """
    counts = np.asarray(counts, dtype=float)
    green_masks = np.asarray(green_masks, dtype=bool)
    if counts.ndim != 2 or counts.shape != green_masks.shape:
        raise ConfigError("estimate_flows: counts and masks must share (T, M) shape")
    if counts.shape[0] < 2:
        raise ConfigError("estimate_flows: need at least two observations")
    red = ~green_masks[1:]
    in_sum = np.where(red, counts[1:] - counts[:-1], 0.0).sum(axis=0)
    in_n = red.sum(axis=0)
    f_in = np.divide(in_sum, in_n, out=np.zeros(counts.shape[1]), where=in_n >= 1)
    return FlowEstimate(f_in_per_lane=f_in, in_samples=in_n)


def critical_volumes_vph(config: IntersectionConfig, f_in_per_lane: np.ndarray) -> list[float]:
    """Per phase, the heaviest estimated lane volume it serves (ties by index)."""
    out = []
    for k in range(config.phase_count):
        served = config.green_lane_indices(k)
        out.append(max(float(f_in_per_lane[j]) * 3600.0 for j in served))
    return out


# ---------------------------------------------------------------------------
# stateful controllers


class FixedTimeController(BaseController):
    """Equal fixed green per phase (default 30 s)."""

    def __init__(self, phase_duration_s: float = 30.0) -> None:
        if phase_duration_s <= 0:
            raise ConfigError("fixed_time: phase duration must be positive")
        self.phase_duration_s = phase_duration_s

    def decide(self, ctx: ControlContext) -> int:
        if ctx.in_transition:
            return KEEP
        return fixed_time_decide(ctx.elapsed_green_s, self.phase_duration_s)


class SotlController(BaseController):
    """Self-organizing queue-threshold actuation."""

    def __init__(self, config: IntersectionConfig, *, theta_red: float = 4.0,
                 theta_green: float = 2.0) -> None:
        self.config = config
        self.theta_red = theta_red
        self.theta_green = theta_green

    def decide(self, ctx: ControlContext) -> int:
        if ctx.in_transition:
            return KEEP
        # outside a transition the mask is the current phase's green
        queues, green = ctx.queue_lengths, ctx.green_mask
        return sotl_decide(
            queues[green].tolist(), queues[~green].tolist(), ctx.elapsed_green_s,
            self.theta_red, self.theta_green, self.config.min_green_s,
        )


@dataclass
class _TimingPlan:
    cycle_s: float
    splits_s: list[float]
    source: str  # "fallback" | "estimated" | "extended" | "saturated"


class WebsterController(BaseController):
    """Volume-based timing, re-planned from flow estimates every window.

    Runs a fixed-time warm-up until the first measurement window completes,
    then re-times cycle length and splits from the estimated critical lane
    volumes.  Oversaturated estimates fall back to the longest-cycle plan.
    """

    def __init__(self, config: IntersectionConfig, params: WebsterParams | None = None,
                 *, warmup_phase_s: float = 30.0) -> None:
        self.config = config
        self.params = params if params is not None else WebsterParams(
            loss_time_per_phase_s=float(config.transition_time_s),
            saturation_headway_s=config.saturation_headway_s,
        )
        self.warmup_phase_s = warmup_phase_s
        self.plan = _TimingPlan(0.0, [warmup_phase_s] * config.phase_count, "fallback")
        # the post-step counts and masks of the last window + 1 steps, kept by
        # reference: the simulator hands out fresh read-only arrays each step
        history = self.params.measurement_window_s + 1
        self._counts: deque[np.ndarray] = deque([np.zeros(config.lane_count)], maxlen=history)
        self._masks: deque[np.ndarray] = deque([np.zeros(config.lane_count, dtype=bool)],
                                               maxlen=history)
        self.replan_log: list[tuple[int, _TimingPlan]] = []

    def _saturated_plan(self) -> _TimingPlan:
        c_max = self.params.cycle_bounds_s[1]
        k = self.config.phase_count
        g = (c_max - k * self.params.loss_time_per_phase_s) / k
        return _TimingPlan(c_max, [g] * k, "saturated")

    def _replan(self, clock_s: int) -> None:
        est = estimate_flows(np.stack(self._counts), np.stack(self._masks))
        if not est.f_in_valid().all():
            return  # keep the current plan until every lane has red samples
        volumes = critical_volumes_vph(self.config, est.f_in_per_lane)
        cycle = webster_cycle_length(sum(volumes), self.params, self.config.phase_count)
        self.plan = self._feasible_plan(volumes, cycle)
        self.replan_log.append((clock_s, self.plan))

    def _feasible_plan(self, volumes: list[float], cycle_s: float) -> _TimingPlan:
        """Shortest cycle >= the formula value whose splits carry the volumes.

        The continuous capacity check g/C >= V/u_sat can pass while the
        integer-second discharge (floor(g/h) per green) still falls short,
        so candidate cycles are also vetted against the discrete capacity;
        the cycle is stretched a second at a time until both hold, or the
        saturated fallback is used.
        """
        c_max = self.params.cycle_bounds_s[1]
        h = self.params.saturation_headway_s
        candidates = [cycle_s]
        candidates += [float(c) for c in range(math.ceil(cycle_s), int(c_max) + 1)
                       if float(c) > cycle_s]
        for cand in candidates:
            try:
                splits = webster_phase_splits(volumes, cand, self.params,
                                              enforce_capacity=True)
            except OversaturatedError:
                continue
            if all(discharge_capacity_vph(g, cand, h) >= v - 1e-9
                   for g, v in zip(splits, volumes)):
                source = "estimated" if cand == cycle_s else "extended"
                return _TimingPlan(cand, splits, source)
        return self._saturated_plan()

    def decide(self, ctx: ControlContext) -> int:
        if ctx.clock_s > 0 and ctx.clock_s % self.params.measurement_window_s == 0:
            self._replan(ctx.clock_s)
        if ctx.in_transition:
            return KEEP
        allotted = self.plan.splits_s[ctx.observation.phase_index]
        return fixed_time_decide(ctx.elapsed_green_s, allotted)

    def after_step(self, outcome: StepOutcome) -> None:
        self._counts.append(outcome.measures.counts)
        self._masks.append(outcome.measures.green_mask)
