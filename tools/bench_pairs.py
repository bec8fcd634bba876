"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seed 101 --out BENCH_7.json

``--parent`` and ``--change`` are two checkouts of the repository, for
example made with ``git worktree add`` or ``git archive REV | tar -x -C DIR``.
Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones; pairs cycle
through the workloads, so drift on a shared host reaches every workload and
both sides alike.  The workloads, the end-to-end metrics with their better
direction, and the run length come from the change's ``BENCHMARK.json``;
``--workloads NAME ...`` runs only the named ones, for example to re-check
one workload without a full set.
A gain needs at least ten pairs to be told from noise, so fewer are refused.

The output JSON records the conditions that change what is measured: the
Python and numpy versions, ``os.cpu_count()`` and ``PYTHONDONTWRITEBYTECODE``
(when it is set, no bytecode cache is written, so every ``setup_s``
repetition compiles greenlight's sources again).  It holds every run's
final JSON line (or its exit code and last output lines when it printed
none) and, per workload and end-to-end metric, each side's median,
quartiles and quartile distance, the change/parent ratio of the medians,
and how many pairs the change won, lost and tied.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

MIN_PAIRS = 10


def load_benchmark(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line, or why there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"exit_code": proc.returncode, "wall_s": round(time.perf_counter() - start, 1)}
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
        run["output_tail"] = (lines + proc.stderr.strip().splitlines())[-10:]
    return run


def conditions() -> dict:
    """What besides the code changes the runs: interpreter, numpy, cores, bytecode cache."""
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a side's runs."""
    if len(values) < 2:
        median = values[0] if values else None
        return {"n": len(values), "median": median, "q1": median, "q3": median, "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def metric_value(run: dict, name: str) -> float | None:
    result = run["result"]
    if result is None or not result.get("correct"):
        return None
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' spreads, the ratio of medians and the pair tally."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [v for v in (metric_value(p[side], name) for p in pairs) if v is not None]
                 for side in ("parent", "change")}
        wins = losses = ties = 0
        for p in pairs:
            a, b = metric_value(p["parent"], name), metric_value(p["change"], name)
            if a is None or b is None:
                continue
            if a == b:
                ties += 1
            elif (b > a) == higher:
                wins += 1
            else:
                losses += 1
        parent, change = spread(sides["parent"]), spread(sides["change"])
        ratio = (change["median"] / parent["median"]
                 if parent["median"] and change["median"] is not None else None)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": parent, "change": change, "change_over_parent": ratio,
                     "change_wins": wins, "change_losses": losses, "ties": ties}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="workloads to run (default: every one in BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be >= {MIN_PAIRS}")

    bench = load_benchmark(args.change)
    chosen = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = sorted(set(args.workloads) - set(chosen))
        if unknown:
            parser.error(f"unknown workloads {', '.join(unknown)}; "
                         f"BENCHMARK.json has {', '.join(chosen)}")
        chosen = [w for w in chosen if w in args.workloads]
    seconds = bench["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs: dict[str, list[dict]] = {w: [] for w in chosen}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in chosen:
            pair: dict = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, seconds)
                rate = metric_value(pair[side], "intersection_steps_per_s")
                print(f"pair {i} {workload} {side}: exit {pair[side]['exit_code']}, "
                      f"intersection_steps_per_s {rate}", file=sys.stderr, flush=True)
            pairs[workload].append(pair)

    report = {
        "command": bench["command"] + ["--seed", str(args.seed), "--seconds", str(seconds),
                                       "--trace", "0"],
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "conditions": conditions(),
        "workloads": {w: {"summary": summarise(pairs[w], bench["end_to_end"]),
                          "runs": pairs[w]} for w in chosen},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for w in chosen:
        for name, s in report["workloads"][w]["summary"].items():
            print(f"{w} {name}: parent {s['parent']['median']} change {s['change']['median']} "
                  f"ratio {s['change_over_parent']} wins {s['change_wins']}/{args.pairs}")
    failed = any(p[side]["exit_code"] != 0 for w in chosen for p in pairs[w]
                 for side in ("parent", "change"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
