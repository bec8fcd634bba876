"""Episode metrics, the travel-time/queue identity, and convergence detection.

The headline quantities per finished episode:

* D_i   — per-vehicle delay: departure minus stop-line-ready time (steps).
* W     — total waiting events: one vehicle waiting one step; equals the
          negated sum of step rewards.
* T-bar — average travel time: mean delay plus the free-flow time l/mu.
* q-bar — mean summed queue length over the active span tau.

With the point-queue step rules these satisfy T-bar = tau*q-bar/N + l/mu
*exactly*; check_identity verifies it in rational arithmetic so any residual
is a real bookkeeping bug, not float noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ConfigError
from .sim import TravelLog


@dataclass
class EpisodeMetrics:
    """Travel/queue statistics of one episode, per intersection or pooled."""

    avg_travel_time_s: float        # mean delay + l/mu over departed vehicles
    avg_delay_s: float
    throughput: int                 # vehicles that crossed the stop line
    avg_queue: float                # W / tau
    total_waiting_events: int       # W, from per-vehicle delays
    trace_waiting_events: int       # negated reward-trace sum (all vehicles)
    tau_s: int                      # last departure - first entry
    vehicles: int                   # N, the departed count used in averages
    entered: int
    pending: int                    # censored: still on a lane at episode end
    censored_avg_travel_time_s: float
    free_flow_time_s: float
    empty: bool = False


def censored_avg_travel_time(log: TravelLog, horizon_s: int) -> float | None:
    """Mean travel time charging pending vehicles their waiting so far.

    Vehicles still queued at the horizon count horizon - ready_time of
    waiting; this keeps starving policies from looking good by never serving
    a lane.  None when nothing entered.
    """
    entered = log.entered_count()
    if entered == 0:
        return None
    waiting = log.censored_waiting(horizon_s)
    return waiting / entered + log.free_flow_time_s


def compute_metrics(log: TravelLog, reward_trace: Sequence[float] | np.ndarray,
                    ) -> EpisodeMetrics:
    """Summarize one intersection's episode from its travel log and reward trace."""
    return pooled_metrics([log], [reward_trace])


def pooled_metrics(logs: Sequence[TravelLog],
                   reward_traces: Sequence[Sequence[float] | np.ndarray]) -> EpisodeMetrics:
    """Network-level metrics: each vehicle counted once per hop it entered.

    Delays, trace waiting, censored waiting and counts are integer totals
    over all logs; tau runs from the earliest entry to the latest departure.
    The free-flow time is that of the first log with entries.
    """
    entered = sum(log.entered_count() for log in logs)
    delays = [d for log in logs for d in log.delays()]
    departed = len(delays)
    total_w = int(sum(delays))
    trace_w = sum(int(round(-float(np.asarray(trace, dtype=float).sum())))
                  for trace in reward_traces)
    censored_w = sum(log.censored_waiting(len(trace))
                     for log, trace in zip(logs, reward_traces))
    firsts = [t for t in (log.first_entry() for log in logs) if t is not None]
    lasts = [t for t in (log.last_departure() for log in logs) if t is not None]
    tau = max(lasts) - min(firsts) if lasts else 0
    lmu = next((log.free_flow_time_s for log in logs if log.entered_count()),
               logs[0].free_flow_time_s)
    avg_delay = total_w / departed if departed else float("nan")
    return EpisodeMetrics(
        avg_travel_time_s=avg_delay + lmu,
        avg_delay_s=avg_delay,
        throughput=departed,
        avg_queue=trace_w / tau if tau > 0 else 0.0,
        total_waiting_events=total_w,
        trace_waiting_events=trace_w,
        tau_s=tau,
        vehicles=departed,
        entered=entered,
        pending=entered - departed,
        censored_avg_travel_time_s=censored_w / entered + lmu if entered else float("nan"),
        free_flow_time_s=lmu,
        empty=entered == 0,
    )


def check_identity(metrics: EpisodeMetrics) -> Fraction:
    """Residual |T-bar - (tau*q-bar/N + l/mu)| in exact rational arithmetic.

    tau*q-bar recovers the reward-trace waiting total, so the residual is 0
    precisely when trace-counted waiting equals per-vehicle delay waiting —
    the episode must be fully drained (pending = 0) for that to hold.
    """
    if metrics.empty or metrics.vehicles == 0:
        raise ConfigError("check_identity: needs at least one departed vehicle")
    lmu = Fraction(metrics.free_flow_time_s)  # floats are exact rationals
    lhs = Fraction(metrics.total_waiting_events, metrics.vehicles) + lmu
    rhs = Fraction(metrics.trace_waiting_events, metrics.vehicles) + lmu
    return abs(lhs - rhs)


@dataclass
class ConvergenceReport:
    converged_at: int | None     # episodes elapsed when first stable, else None
    window: int
    rel_tolerance: float


def detect_convergence(curve: Sequence[float], window: int = 10,
                       rel_tolerance: float = 0.05) -> ConvergenceReport:
    """Earliest episode count whose trailing window is stable.

    A window is stable when max - min <= rel_tolerance * window mean.  The
    returned count is the number of episodes consumed (a constant curve
    converges after exactly `window` episodes); None if never stable.
    """
    if window < 2:
        raise ConfigError("convergence: window must be >= 2")
    if rel_tolerance < 0:
        raise ConfigError("convergence: tolerance must be >= 0")
    values = [float(v) for v in curve]
    for end in range(window, len(values) + 1):
        tail = values[end - window:end]
        mean = sum(tail) / window
        if max(tail) - min(tail) <= rel_tolerance * abs(mean):
            return ConvergenceReport(end, window, rel_tolerance)
    return ConvergenceReport(None, window, rel_tolerance)
