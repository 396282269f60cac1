"""Benchmark entry point.

    python3 bench/run.py --workload factor-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  Runs the workload in one fresh process
with BLAS pinned to one thread, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics
BENCHMARK.json declares: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  The line before it holds the rounds run,
their operation times, and every import time that went into ``setup_s``.
Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("factor-sweep", "oracle-audit", "drive-evolution")
THREAD_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def environment() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "twomode", "__init__.py")):
        print(f"error: no twomode package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = declared["per_layer"] if args.trace else declared["end_to_end"]

    env = environment()
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", work],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60 + 3 * args.seconds)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    values = {"setup_s": result["setup_s"],
              "ops_per_s": result["ops_per_s"],
              "op_p50_ms": result["op_p50_ms"],
              "peak_rss_mb": result["peak_rss_mb"],
              **result.get("per_layer", {})}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": result["rounds"],
                      "round_s": result["round_s"],
                      "import_samples_s": result["import_samples_s"]}))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
