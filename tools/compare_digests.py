"""Check that a change leaves every benchmark workload's outputs bit-identical.

    python3 tools/compare_digests.py --parent ../parent --change . --seeds 101 201

``--parent`` and ``--change`` are two checkouts of the repository.  For each
seed and each workload named in the change's ``BENCHMARK.json``, one round of
the workload runs in a fresh subprocess against each checkout's own
``perfbench/`` and ``src/``, single-threaded as ``perfbench/run.py`` runs it.
The round's outputs are digested and checked in full, as the benchmark does
with its first round.  The script prints one line per workload and seed with
both digests and both check-error counts, and exits 1 when a digest differs,
a check fails or a round could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import load_benchmark  # noqa: E402

ROUND_FLAG = "--one-round"


def one_round(checkout: str, workload: str, seed: int) -> dict:
    """Run one round of ``workload`` from ``checkout`` in this process;
    its digest and the number of check errors."""
    sys.path[:0] = [os.path.join(checkout, "perfbench"), os.path.join(checkout, "src")]
    import greenlight
    import workloads

    src = os.path.join(checkout, "src", "greenlight")
    if not os.path.abspath(greenlight.__file__).startswith(src + os.sep):
        raise ImportError(f"greenlight imported from {greenlight.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as out_dir:
        job = workloads.WORKLOADS[workload](greenlight, seed, out_dir)
        rnd = job.run()
        return {"digest": job.digest(rnd), "errors": len(job.check(rnd))}


def run_in_subprocess(checkout: str, workload: str, seed: int) -> dict:
    """One round in a fresh interpreter; its result, or why there is none."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), ROUND_FLAG,
           os.path.abspath(checkout), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = (lines + proc.stderr.strip().splitlines())[-1:]
    return {"failed": f"exit {proc.returncode}: {tail[0] if tail else 'no output'}"}


def compare(parent: dict, change: dict) -> list[str]:
    """Problems in one workload and seed: a round that did not run, check
    errors on either side, or differing digests."""
    problems = [f"{side} round failed ({result['failed']})"
                for side, result in (("parent", parent), ("change", change))
                if "failed" in result]
    if problems:
        return problems
    problems = [f"{side} has {result['errors']} check errors"
                for side, result in (("parent", parent), ("change", change))
                if result["errors"]]
    if parent["digest"] != change["digest"]:
        problems.append("digests differ")
    return problems


def describe(result: dict) -> str:
    if "failed" in result:
        return "failed"
    return f"{result['digest']} ({result['errors']} check errors)"


def main(argv: list[str]) -> int:
    if argv[:1] == [ROUND_FLAG]:
        checkout, workload, seed = argv[1], argv[2], int(argv[3])
        print(json.dumps(one_round(checkout, workload, seed)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    names = [w["name"] for w in load_benchmark(args.change)["workloads"]]
    failed = False
    for seed in args.seeds:
        for workload in names:
            parent = run_in_subprocess(args.parent, workload, seed)
            change = run_in_subprocess(args.change, workload, seed)
            problems = compare(parent, change)
            failed |= bool(problems)
            verdict = "MISMATCH: " + "; ".join(problems) if problems else "identical"
            print(f"{workload} seed {seed}: parent {describe(parent)}, "
                  f"change {describe(change)}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
