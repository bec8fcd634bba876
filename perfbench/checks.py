"""Output checks for the benchmark, written apart from the simulator.

Every function here takes plain data (ints, lists, dicts, numpy arrays) and
returns a list of error strings, empty when the output is correct, so the
tests can corrupt an output and watch the matching check fail.  Nothing
here calls into ``greenlight.sim``: the departure replay, the waiting sums
and the vehicle walk are recomputed from the recorded traces alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

FD_EPS = 1e-5  # central-difference step
FD_TOL = 1e-4  # largest relative error between the two gradients

# vid -> (entry step, ready step, departure step or None), in log order
LogTable = dict[int, tuple[int, int, "int | None"]]


def log_table(log) -> LogTable:
    """The one place that reads a travel log's per-vehicle layout."""
    return {vid: (r.entry_s, r.ready_s, r.depart_s) for vid, r in log.records.items()}


def entry_step(time_s: float) -> int:
    """First whole second at or after a requested entry time."""
    return math.ceil(time_s - 1e-9)


def digest(parts: Iterable) -> str:
    """sha256 over the repr of plain values and the bytes of arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# exact accounting


def check_accounting(reward_trace: np.ndarray, table: LogTable, horizon: int,
                     where: str) -> list[str]:
    """Minus the reward sum equals the waiting summed from the travel log.

    A vehicle ready at step r and gone at step d sits in d - r post-movement
    queue snapshots; one still queued at the horizon is charged up to it.
    """
    total = -float(np.sum(reward_trace))
    if total != int(total):
        return [f"{where}: reward sum {total} is not a whole number of vehicle-steps"]
    waiting = 0
    for _entry, ready, depart in table.values():
        if ready < horizon:
            waiting += (horizon if depart is None else depart) - ready
    if int(total) != waiting:
        return [f"{where}: reward trace charges {int(total)} vehicle-steps, "
                f"travel log waiting sums to {waiting}"]
    return []


def check_conservation(routes: dict[int, tuple[tuple[int, str], ...]],
                       entry_steps: dict[int, int], tables: Sequence[LogTable],
                       ff_steps: Sequence[int], link_time_s: float, horizon: int,
                       network_departures: int) -> tuple[list[str], dict[str, int]]:
    """Walk every vehicle along its route through the per-intersection logs.

    ``routes[vid]`` lists (intersection, lane label) hops.  A vehicle that
    entered before the horizon must have finished, be on a lane (logged
    without a departure) or be in a link (departed, next entry due at or after
    the horizon).  Logs may hold no record the walk does not account for.
    """
    errors: list[str] = []
    counts = {"finished": 0, "on_lane": 0, "in_link": 0, "entered": 0}
    seen = [set() for _ in tables]
    for vid, route in routes.items():
        due = entry_steps[vid]
        if due >= horizon:
            continue
        counts["entered"] += 1
        for hop, (node, _label) in enumerate(route):
            rec = tables[node].get(vid)
            if rec is None:
                errors.append(f"vehicle {vid}: due at intersection {node} at step {due}, "
                              "never logged there")
                break
            seen[node].add(vid)
            entry, ready, depart = rec
            if entry != due or ready != entry + ff_steps[node]:
                errors.append(f"vehicle {vid} at intersection {node}: entry {entry}, "
                              f"ready {ready}; expected entry {due}, ready {due + ff_steps[node]}")
                break
            if depart is None:
                counts["on_lane"] += 1
                break
            if depart < ready or depart >= horizon:
                errors.append(f"vehicle {vid} at intersection {node}: departs at {depart}, "
                              f"ready {ready}, horizon {horizon}")
                break
            if hop == len(route) - 1:
                counts["finished"] += 1
                break
            due = entry_step(depart + link_time_s)
            if due >= horizon:
                counts["in_link"] += 1
                break
    for node, table in enumerate(tables):
        extra = set(table) - seen[node]
        if extra:
            errors.append(f"intersection {node}: {len(extra)} logged vehicles no route "
                          f"accounts for (e.g. {min(extra)})")
    if counts["finished"] != network_departures:
        errors.append(f"{counts['finished']} vehicles finished their route, "
                      f"episode reports network_departures={network_departures}")
    return errors, counts


# ---------------------------------------------------------------------------
# independent fixed-time replay


def replay_departures(phase_trace: Sequence[int], lane_queues: dict[str, list[tuple[int, int]]],
                      green_by_phase: Sequence[frozenset[str]], transition_s: int,
                      headway_s: float) -> dict[int, "int | None"]:
    """Recompute departure steps from ready steps and the phase trace.

    ``lane_queues[label]`` holds (vid, ready step) in log order; FIFO order
    is ready order, ties kept in log order.  Green is read off the trace:
    the ``transition_s`` steps before each phase switch are yellow/all-red.
    A green second adds 1/h vehicles of credit, capped at max(1, 1/h); a
    red second clears it; each whole unit releases the queue head.  The
    credit is kept in integer ticks of the rational headway p/q: a vehicle
    costs p ticks and a green second earns q.
    """
    p, q = Fraction(headway_s).limit_denominator(10**6).as_integer_ratio()
    cap = max(p, q)
    horizon = len(phase_trace)
    red = np.zeros(horizon, dtype=bool)
    previous = 0
    for t, phase in enumerate(phase_trace):
        if phase != previous:
            red[max(0, t - transition_s):t] = True
        previous = phase
    out: dict[int, int | None] = {}
    for label, vehicles in lane_queues.items():
        order = sorted(vehicles, key=lambda v: v[1])  # stable: ties keep log order
        head = 0
        credit = 0
        for t in range(horizon):
            if red[t] or label not in green_by_phase[phase_trace[t]]:
                credit = 0
                continue
            credit = min(credit + q, cap)
            while credit >= p and head < len(order) and order[head][1] <= t:
                out[order[head][0]] = t
                head += 1
                credit -= p
        for vid, _ready in order[head:]:
            out[vid] = None
    return out


def check_replay(phase_trace: Sequence[int], table: LogTable, lanes: dict[int, str],
                 green_by_phase: Sequence[frozenset[str]], transition_s: int,
                 headway_s: float, where: str) -> list[str]:
    """The replayed departure step of every vehicle equals the logged one."""
    queues: dict[str, list[tuple[int, int]]] = {}
    for vid, (_entry, ready, _depart) in table.items():
        queues.setdefault(lanes[vid], []).append((vid, ready))
    replayed = replay_departures(phase_trace, queues, green_by_phase, transition_s, headway_s)
    wrong = [vid for vid, rec in table.items() if replayed[vid] != rec[2]]
    if wrong:
        vid = wrong[0]
        return [f"{where}: replay disagrees on {len(wrong)} departures "
                f"(vehicle {vid}: logged {table[vid][2]}, replayed {replayed[vid]})"]
    return []


# ---------------------------------------------------------------------------
# learning


def check_learn_steps(learn_steps: int, decisions: int, episodes: int, batch_size: int,
                      where: str) -> list[str]:
    """Each decision after an episode's first stores one transition, and
    updates start once the memory holds a batch."""
    expected = decisions - episodes - (batch_size - 1)
    if learn_steps != expected:
        return [f"{where}: {learn_steps} learn steps, expected {decisions} decisions - "
                f"{episodes} episodes - ({batch_size} - 1) = {expected}"]
    return []


def check_finite(values: Iterable[float], what: str) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{what}: {len(bad)} non-finite values (e.g. {bad[0]})"] if bad else []


def fd_gradient_check(loss_and_grads: Callable[[], tuple[float, Sequence[np.ndarray]]],
                      params: Sequence[np.ndarray], coords: Sequence[tuple[int, int]]
                      ) -> tuple[list[str], float]:
    """Central differences against the analytic gradient on chosen coordinates.

    The loss is piecewise quadratic in each parameter, so away from a relu
    kink the analytic gradient is affine in the step and g(+FD_EPS) + g(-FD_EPS)
    equals 2 g(0) up to rounding.  A coordinate where that fails has a kink
    inside [-FD_EPS, FD_EPS]; it is skipped, and more than a tenth skipped fails.
    The error is relative to max(|numeric|, |analytic|, 1e-3 * max|g|).
    """
    _, g0 = loss_and_grads()
    g0 = [np.array(g, dtype=float) for g in g0]
    floor = 1e-3 * max(float(np.max(np.abs(g))) for g in g0 if g.size)
    worst, skipped, errors = 0.0, 0, []
    for pi, fi in coords:
        flat = params[pi].reshape(-1)
        if not np.shares_memory(flat, params[pi]):
            raise ValueError("parameters must be contiguous live arrays")
        saved = flat[fi]
        flat[fi] = saved + FD_EPS
        loss_plus, g_plus = loss_and_grads()
        flat[fi] = saved - FD_EPS
        loss_minus, g_minus = loss_and_grads()
        flat[fi] = saved
        analytic = float(g0[pi].reshape(-1)[fi])
        a_plus = float(np.asarray(g_plus[pi]).reshape(-1)[fi])
        a_minus = float(np.asarray(g_minus[pi]).reshape(-1)[fi])
        scale = max(abs(analytic), abs(a_plus), abs(a_minus), floor)
        if abs(a_plus + a_minus - 2.0 * analytic) > 1e-7 * scale:
            skipped += 1
            continue
        numeric = (loss_plus - loss_minus) / (2.0 * FD_EPS)
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor)
        if err >= FD_TOL:
            errors.append(f"gradient entry ({pi}, {fi}): analytic {analytic!r}, "
                          f"central difference {numeric!r}, relative error {err:.2e}")
        worst = max(worst, err)
    if skipped * 10 > len(coords):
        errors.append(f"gradient check skipped {skipped} of {len(coords)} coordinates as kinks")
    return errors, worst


# ---------------------------------------------------------------------------
# result files


def check_results_csv(text: str, expected_keys: set[tuple[str, int, int]]) -> list[str]:
    """One row per (controller, seed, episode), every numeric value finite."""
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = [(r["controller"], int(r["seed"]), int(r["episode"])) for r in rows]
    errors = []
    if sorted(keys) != sorted(expected_keys):
        errors.append(f"results.csv has {len(keys)} rows, expected {len(expected_keys)} "
                      "distinct (variant, seed, episode) rows")
    for r in rows:
        values = [r["avg_travel_time_s"], r["avg_queue"], r["throughput"]]
        values += [r["converged_at"]] if r["converged_at"] else []
        errors += check_finite((float(v) for v in values),
                               f"results.csv row {r['controller']},{r['seed']},{r['episode']}")
    return errors


def check_curve_csv(text: str, decisions_per_episode: int, episodes: int,
                    where: str) -> list[str]:
    """`steps` is the cumulative decision count; travel time and loss finite."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != episodes:
        return [f"{where}: {len(rows)} curve rows, expected {episodes}"]
    errors = []
    for i, r in enumerate(rows):
        if int(r["steps"]) != (i + 1) * decisions_per_episode:
            errors.append(f"{where}: episode {i} steps {r['steps']}, expected "
                          f"{(i + 1) * decisions_per_episode}")
        errors += check_finite([float(r["avg_travel_time_s"]), float(r["mean_loss"])],
                               f"{where} episode {i}")
    return errors
