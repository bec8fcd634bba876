"""Episode metrics and the exact travel-time/queue identity."""

from fractions import Fraction

import numpy as np
import pytest

from greenlight.core import ConfigError
from greenlight.metrics import (
    censored_avg_travel_time,
    check_identity,
    compute_metrics,
    detect_convergence,
)
from greenlight.sim import TravelLog, _VehicleRecord


def drained_log() -> TravelLog:
    log = TravelLog(300.0, 10.0)
    log.records[0] = _VehicleRecord(0, 30, 35)  # waited 5
    log.records[1] = _VehicleRecord(2, 32, 40)  # waited 8
    return log


def matching_trace(total_waiting: int, horizon: int = 50) -> np.ndarray:
    trace = np.zeros(horizon)
    trace[:total_waiting] = -1.0
    return trace


def test_compute_metrics_hand_values():
    m = compute_metrics(drained_log(), matching_trace(13))
    assert m.throughput == 2
    assert m.total_waiting_events == 13
    assert m.trace_waiting_events == 13
    assert m.avg_delay_s == pytest.approx(6.5)
    assert m.avg_travel_time_s == pytest.approx(36.5)
    assert m.tau_s == 40
    assert m.avg_queue == pytest.approx(13.0 / 40.0)
    assert m.pending == 0
    assert not m.empty


def test_identity_zero_residual_when_drained():
    m = compute_metrics(drained_log(), matching_trace(13))
    assert check_identity(m) == Fraction(0)


def test_identity_exposes_trace_mismatch():
    # a pending vehicle appears in the queue trace but not in the delays
    log = drained_log()
    log.records[2] = _VehicleRecord(10, 40)  # never departs
    m = compute_metrics(log, matching_trace(13 + 7))
    assert m.pending == 1
    residual = check_identity(m)
    assert residual == Fraction(7, 2)


def test_identity_requires_departures():
    log = TravelLog(300.0, 10.0)
    m = compute_metrics(log, np.zeros(10))
    assert m.empty
    with pytest.raises(ConfigError):
        check_identity(m)


def test_trace_rounding_tolerates_float_noise():
    trace = matching_trace(13).astype(float)
    trace[0] += 1e-12
    m = compute_metrics(drained_log(), trace)
    assert m.trace_waiting_events == 13


def test_censored_travel_time_charges_pending_vehicles():
    log = drained_log()
    assert censored_avg_travel_time(log, 50) == pytest.approx(13 / 2 + 30.0)
    log.records[2] = _VehicleRecord(12, 42)  # still waiting at the horizon
    # waited (50 - 42) = 8 so far: (13 + 8)/3 + 30
    assert censored_avg_travel_time(log, 50) == pytest.approx(21.0 / 3.0 + 30.0)


def test_censored_travel_time_empty_is_none():
    assert censored_avg_travel_time(TravelLog(300.0, 10.0), 100) is None


def test_censored_vehicle_not_yet_ready_contributes_nothing():
    log = TravelLog(300.0, 10.0)
    log.records[0] = _VehicleRecord(95, 125)  # ready after the horizon
    assert censored_avg_travel_time(log, 100) == pytest.approx(30.0)


# -- convergence -------------------------------------------------------------


def test_convergence_on_settling_curve():
    curve = [100.0, 60.0, 41.0, 40.0, 40.5, 39.8, 40.1]
    report = detect_convergence(curve, window=4, rel_tolerance=0.05)
    # first stable trailing window is [41, 40, 40.5, 39.8]: spread 1.2 vs
    # 0.05 * 40.325 = 2.016, reached after six episodes
    assert report.converged_at == 6


def test_convergence_constant_curve_needs_exactly_window_episodes():
    report = detect_convergence([5.0] * 10, window=4, rel_tolerance=0.05)
    assert report.converged_at == 4


def test_convergence_never_reached():
    curve = [100.0, 50.0, 100.0, 50.0, 100.0, 50.0]
    report = detect_convergence(curve, window=3, rel_tolerance=0.05)
    assert report.converged_at is None


def test_convergence_short_curve_is_none():
    assert detect_convergence([1.0, 1.0], window=5).converged_at is None


def test_convergence_zero_mean_needs_zero_spread():
    assert detect_convergence([0.0, 0.0, 0.0], window=2).converged_at == 2
    assert detect_convergence([0.0, 1.0, -1.0], window=2).converged_at is None


def test_convergence_parameter_validation():
    with pytest.raises(ConfigError):
        detect_convergence([1.0], window=1)
    with pytest.raises(ConfigError):
        detect_convergence([1.0, 1.0], window=2, rel_tolerance=-0.1)


def test_convergence_reports_first_stable_window_end():
    # the scan runs over window ends in order, so an early stable stretch
    # wins even if the curve detaches later
    curve = [10.0, 10.0, 10.0, 50.0, 90.0]
    assert detect_convergence(curve, window=3, rel_tolerance=0.05).converged_at == 3
