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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

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


class LogTotals(NamedTuple):
    """One log's integer counts and waiting totals."""

    entered: int
    departed: int
    waiting: int                    # depart - ready over departed vehicles
    censored_waiting: int           # plus end - ready over vehicles still on a lane
    first_entry: float              # inf when nothing entered
    last_departure: float           # -inf when nothing departed


def log_totals(log: TravelLog, end_s: int) -> LogTotals:
    """Totals of `log` in one pass over its records, censored at `end_s`.

    A vehicle still on a lane at `end_s` adds end_s - ready to the censored
    waiting, or nothing when it has not reached the stop line by then.
    """
    departed = waiting = censored = 0
    first, last = math.inf, -math.inf
    for r in log.records.values():
        ready, depart = r.ready_s, r.depart_s
        if depart is None:
            if end_s > ready:
                censored += end_s - ready
        else:
            departed += 1
            waiting += depart - ready
            if depart > ready:
                censored += depart - ready
            if depart > last:
                last = depart
        if r.entry_s < first:
            first = r.entry_s
    return LogTotals(len(log.records), departed, waiting, censored, first, last)


def censored_avg_travel_time(log: TravelLog, horizon_s: int) -> float | None:
    """Mean travel time charging pending vehicles their waiting so far.

    Vehicles still queued at the horizon count horizon - ready_time of
    waiting; this keeps starving policies from looking good by never serving
    a lane.  None when nothing entered.
    """
    totals = log_totals(log, horizon_s)
    if totals.entered == 0:
        return None
    return totals.censored_waiting / totals.entered + log.free_flow_time_s


def compute_metrics(log: TravelLog, reward_trace: Sequence[float] | np.ndarray,
                    ) -> EpisodeMetrics:
    """Summarize one intersection's episode from its travel log and reward trace."""
    return pooled_metrics([log], [reward_trace])


def pooled_metrics(logs: Sequence[TravelLog],
                   reward_traces: Sequence[Sequence[float] | np.ndarray]) -> EpisodeMetrics:
    """Network-level metrics: each vehicle counted once per hop it entered.

    Delays, trace waiting, censored waiting and counts are integer totals
    over all logs, from one `log_totals` pass over each log's records; tau
    runs from the earliest entry to the latest departure.  A log's censored
    waiting runs to the length of its trace.  The free-flow time is that of
    the first log with entries.
    """
    entered = departed = total_w = trace_w = censored_w = 0
    first, last = math.inf, -math.inf
    for log, trace in zip(logs, reward_traces, strict=True):
        trace_w += int(round(-float(np.asarray(trace, dtype=float).sum())))
        totals = log_totals(log, len(trace))
        entered += totals.entered
        departed += totals.departed
        total_w += totals.waiting
        censored_w += totals.censored_waiting
        first = min(first, totals.first_entry)
        last = max(last, totals.last_departure)
    tau = last - first if departed else 0
    lmu = next((log.free_flow_time_s for log in logs if log.records),
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
    # l/mu is added to both sides and cancels: the residual is |W - tau*q-bar|/N
    return Fraction(abs(metrics.total_waiting_events - metrics.trace_waiting_events),
                    metrics.vehicles)


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
