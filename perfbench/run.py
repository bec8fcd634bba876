"""Run one benchmark workload against the greenlight sources of this checkout.

    python3 perfbench/run.py --workload grid-classic --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times the set-up several times, then repeats the
workload's round until ``--seconds`` of rounds are measured, and prints the
end-to-end metrics, times in reference seconds (see hostspeed.py), after
the host rate and the speed factor.  With ``--trace 1`` it wraps the package's
public functions (see tracer.py) for one round in two, until ``--seconds``
of traced and untraced rounds are measured, and prints the per-layer
metrics per traced round.  Either way the first round's outputs are checked
in full and every later round must reproduce their digest.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, one thread, whatever the caller set

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 15
MAX_ERRORS_SHOWN = 20

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_greenlight():
    """Import greenlight afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "greenlight" or n.startswith("greenlight.")]:
        del sys.modules[name]
    gl = importlib.import_module("greenlight")
    if not os.path.abspath(gl.__file__).startswith(os.path.join(SRC, "greenlight") + os.sep):
        raise ImportError(f"greenlight imported from {gl.__file__}, not from {SRC}")
    return gl


def measure_setup(workload_cls, seed: int, out_dir: str,
                  speed: hostspeed.HostSpeed) -> tuple[object, list[float]]:
    """Import, configure, build and simulate one second, SETUP_REPS times.

    Third-party imports are paid by the first repetition only, which the
    median leaves out; greenlight's own modules are imported every time.
    Each repetition sits between two calibration slices and is returned in
    reference seconds by their speed (see hostspeed.py).
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        gl = import_greenlight()
        workload_cls(gl, seed, out_dir).setup()
        elapsed = time.perf_counter() - start
        speed.sample(1)
        times.append(elapsed * speed.factor(-2))
    return gl, times


def check_first(workload, rnd) -> tuple[str, list[str], int]:
    """Check a round's outputs in full, then drop them; returns its digest."""
    digest = workload.digest(rnd)
    errors = workload.check(rnd)
    rnd.outputs = {}
    return digest, errors, rnd.episodes if errors else 0


def run_rounds(workload, seconds: float, reference: str | None = None,
               around=None, between=None) -> tuple[list, list[str], int]:
    """Repeat rounds until about ``seconds`` of them are measured.

    Without a reference digest the first round is checked in full and its
    digest becomes the reference, so at least two rounds run.  Every other
    round must reproduce the reference digest.  ``around`` is started and
    stopped around each round; ``between`` runs after each round, untimed.
    """
    rounds, errors, failed = [], [], 0
    elapsed, least = 0.0, 2 if reference is None else 1
    while len(rounds) < least or elapsed + rounds[-1].wall_s / 2 < seconds:
        gc.collect()
        if around is not None:
            around.start()
        rnd = workload.run()
        if around is not None:
            around.stop()
        elapsed += rnd.wall_s
        if reference is None:
            reference, errors, failed = check_first(workload, rnd)
        elif workload.digest(rnd) != reference:
            errors.append(f"round {len(rounds)} output digest differs from the first round's")
            failed += rnd.episodes
        rnd.outputs = {}
        rounds.append(rnd)
        if between is not None:
            between()
    return rounds, errors, failed


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def untraced(workload_cls, seed: int, seconds: float, out_dir: str):
    """End-to-end metrics; the rate is in reference seconds (see hostspeed.py)."""
    speed = hostspeed.HostSpeed()
    speed.sample()
    gl, setup_times = measure_setup(workload_cls, seed, out_dir, speed)
    workload = workload_cls(gl, seed, out_dir, speed.clock)
    tracing.rebind(gl, gl.sim.run_episode, speed.before(gl.sim.run_episode))
    marks = [len(speed.slices)]  # slices[marks[k]:marks[k + 1]] ran during and after round k

    def between() -> None:
        speed.sample()
        marks.append(len(speed.slices))

    rounds, errors, failed = run_rounds(workload, seconds, between=between)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_rate = statistics.median(rate(r.steps, r.wall_s) for r in rounds)
    reference_rate = statistics.median(rate(r.steps, r.wall_s) / speed.factor(a, b)
                                       for r, a, b in zip(rounds, marks, marks[1:]))
    factor = host_rate / reference_rate
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "intersection_steps_per_s": (reference_rate, "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    info = {"round_s": [round(r.wall_s, 3) for r in rounds],
            "setup_reps_s": [round(t, 4) for t in setup_times],
            "host_speed_factor": round(factor, 4), "slices": len(speed.slices),
            "host intersection_steps_per_s": round(host_rate, 3)}
    return metrics, rounds, errors, failed, info


def traced(workload_cls, seed: int, seconds: float, out_dir: str):
    """Per-layer metrics from traced rounds, alternated with untraced ones
    so that the tracing overhead compares rounds run under like load."""
    gl = import_greenlight()
    workload = workload_cls(gl, seed, out_dir)
    gc.collect()
    baseline = workload.run()
    reference, errors, failed = check_first(workload, baseline)
    tracer = tracing.Tracer()
    rounds, plain_rounds = [], [baseline]
    elapsed = 0.0
    while not rounds or elapsed + rounds[-1].wall_s < seconds:
        restore = tracing.install(gl, tracer)
        traced_round, traced_errors, traced_failed = run_rounds(workload, 0.0, reference, tracer)
        restore()
        plain_round, plain_errors, plain_failed = run_rounds(workload, 0.0, reference)
        rounds += traced_round
        plain_rounds += plain_round
        elapsed += traced_round[0].wall_s + plain_round[0].wall_s
        errors += traced_errors + plain_errors
        failed += traced_failed + plain_failed
    n = len(rounds)
    unaccounted = sum(tracer.self_s.values()) + tracer.outside_s - tracer.wall_s
    metrics: dict[str, tuple[float, str]] = {}
    for span in sorted({s for s, _m, _a in tracing.SPANS}):
        metrics[f"{span}.calls"] = (tracer.calls[span] / n, "count")
        metrics[f"{span}.self_s"] = (tracer.self_s[span] / n, "s")
    counts = tracer.counts
    for name in ("sim.change_requests", "sim.ignored_actions", "sim.network_departures",
                 "demand.vehicles"):
        metrics[name] = (counts[name] / n, "count")
    requests = counts["sim.change_requests"]
    metrics["sim.honoured_change_ratio"] = (
        rate(requests - counts["sim.ignored_actions"], requests), "ratio")
    metrics["neural.forward_calls_per_learn_step"] = (
        rate(counts["neural.forward_calls_in_learn_steps"], counts["agent.learn_steps_done"]),
        "count")
    metrics["agent.train.decisions_per_s"] = (
        statistics.median(rate(r.train_decisions, r.train_s) for r in plain_rounds), "1/s")
    metrics["deploy.steps_per_s"] = (
        statistics.median(rate(r.deploy_steps, r.deploy_s) for r in plain_rounds), "1/s")
    traced_round_s = statistics.median(r.wall_s for r in rounds)
    plain_round_s = statistics.median(r.wall_s for r in plain_rounds)
    metrics["trace.round_s"] = (traced_round_s, "s")
    metrics["trace.outside_s"] = (tracer.outside_s / n, "s")
    metrics["trace.overhead_ratio"] = (traced_round_s / plain_round_s - 1.0, "ratio")
    dump = {"rounds": n, "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(counts), "outside_s": tracer.outside_s, "wall_s": tracer.wall_s,
            "untraced_round_s": plain_round_s}
    with open(os.path.join(OUT, f"trace-{workload_cls.name}.json"), "w") as fh:
        json.dump(dump, fh, indent=1, sort_keys=True)
    if abs(unaccounted) > 1e-6:
        errors.append(f"span self times plus outside time miss the wall time by {unaccounted} s")
    info = {"round_s": [round(r.wall_s, 3) for r in rounds],
            "untraced_round_s": [round(r.wall_s, 3) for r in plain_rounds]}
    return metrics, plain_rounds + rounds, errors, failed, info


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "greenlight", "__init__.py")):
        print(f"error: no greenlight sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload_cls = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(OUT, exist_ok=True)
    measure = traced if args.trace else untraced
    metrics, rounds, errors, failed, info = measure(workload_cls, args.seed, args.seconds, out_dir)
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"CHECK FAILED: {error}")
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"CHECK FAILED: ... and {len(errors) - MAX_ERRORS_SHOWN} more")
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.episodes for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
