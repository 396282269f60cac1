"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --seeds 1-10 [--workload oracle-audit ...]
                            [--seconds 10] [--out results.json]

Runs ``bench/run.py --trace 0`` once per seed and workload, one after the
other, and prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  It does the same for the worker's own import time alone, to show
what the extra import probes add to ``setup_s``.  The JSON written to --out
holds every run's output line, its import samples and wall time, plus the
environment block: python, numpy and scipy versions, nproc and the thread
settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from run import HERE, ROOT, THREAD_PIN, WORKLOADS


def environment_block() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": THREAD_PIN, "machine": platform.machine()}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = args.seconds or declared["run_seconds"]
    record = {"environment": environment_block(), "seconds": seconds,
              "runs": {}, "summary": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            runs[-1].update(json.loads(lines[-2]))
            runs[-1]["wall_s"] = time.perf_counter() - start
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        record["runs"][workload] = runs
        summary = record["summary"][workload] = {}
        series = [(m["name"], m["bound"],
                   [r["metrics"][m["name"]]["value"] for r in runs])
                  for m in declared["end_to_end"]]
        series.append(("worker_import_s", None,
                       [r["import_samples_s"][0] for r in runs]))
        for name, bound, values in series:
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med,
                             "bound": bound}
            print(f"{workload:16s} {name:15s} median {med:10.4g} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {(q3 - q1) / med:6.3f}"
                  f" (bound {bound})")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:16s} failed shares {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in runs)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
