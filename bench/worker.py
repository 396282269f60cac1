"""One workload in a fresh process: import twomode (timed), draw the round,
repeat it in whole rounds, at least MIN_ROUNDS, until the timed operations
have taken the requested seconds, check every output outside the timed
calls, and print one JSON line.

``setup_s`` is the median of this process's own import time and of
IMPORT_PROBES import-only processes started between operations, spread
evenly over the timed pass.  With --trace 1 the worker then runs one more
round with the tracer installed and reports the per-layer figures of that
round, as named in BENCHMARK.json, plus the tracing overhead.  Started by
run.py, which pins BLAS to one thread and puts src/ on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

_t0 = time.perf_counter()
import twomode          # noqa: E402
import twomode.cli      # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import workloads        # noqa: E402
from tracer import Tracer   # noqa: E402

MAX_PROBLEMS = 20
IMPORT_PROBES = 6
MIN_ROUNDS = 3         # repeats behind each operation's mean latency
PROBE = ("import time; t = time.perf_counter(); import twomode, twomode.cli; "
         "print(time.perf_counter() - t)")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ImportProbes:
    """Import times of fresh processes, one due at each of IMPORT_PROBES
    evenly spaced points of the timed pass's operation time."""

    def __init__(self, seconds):
        self.samples = [IMPORT_S]
        self.due = [seconds * (k + 0.5) / IMPORT_PROBES
                    for k in range(IMPORT_PROBES)]

    def poll(self, busy_s):
        if self.due and busy_s >= self.due[0]:
            self.due.pop(0)
            self.samples.append(self._probe())

    def finish(self):
        while self.due:
            self.poll(self.due[0])

    @staticmethod
    def _probe():
        out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        return float(out.stdout.strip().splitlines()[-1])


class Pass:
    """Latencies, failures and check results of the rounds run so far."""

    def __init__(self):
        self.latencies: list[list[float]] = []   # per operation, per round
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per operation, the pickled output that last passed its check: a
        # later round that returns the same bytes gets the same verdict
        self.passed: dict[object, bytes] = {}

    def run_round(self, ops, tracer=None, probes=None):
        outputs = []
        busy = 0.0
        before = sum(self.round_s)
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            error = raw = None
            start = time.perf_counter()
            try:
                raw = op.call()
            except Exception as exc:   # judged below, per operation
                error = exc
            elapsed = time.perf_counter() - start
            busy += elapsed
            if tracer is None:
                if index == len(self.latencies):
                    self.latencies.append([])
                self.latencies[index].append(elapsed)
            outputs.append((op, raw, error))
            if probes is not None:
                probes.poll(before + busy)
        self.round_s.append(busy)
        return outputs

    def judge(self, outputs):
        for op, raw, error in outputs:
            self.attempted += 1
            if op.expected_error is not None:
                if not isinstance(error, op.expected_error):
                    self.failed += 1
                    if error is not None:
                        self._note(f"{op.kind} {op.label}: raised {error!r}, "
                                   f"not {op.expected_error.__name__}")
                continue
            if error is not None:
                self.failed += 1
                self._note(f"{op.kind} {op.label}: raised {error!r}")
                continue
            try:
                out = op.collect(raw)
                key = pickle.dumps(out)
                problems = [] if self.passed.get(op) == key else op.check(out)
                if not problems:
                    self.passed[op] = key
            except Exception as exc:   # unreadable or malformed output
                problems = [f"output not checkable: {exc!r}"]
            for problem in problems:
                self._note(f"{op.kind} {op.label}: {problem}")

    def _note(self, message):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)
            print(message, file=sys.stderr)


def per_layer(tracer: Tracer, names, overhead_s, untraced_s):
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "trace.overhead_pct":
            values[name] = 100.0 * overhead_s / untraced_s
        elif name in ("oracle.fock_step_us", "oracle.s2_step_us"):
            fn = ("oracle.brute_force_propagator" if "fock" in name
                  else "oracle.brute_force_smatrix")
            steps = tracer.value(fn + ".steps")
            values[name] = 1e6 * tracer.total_s.get(fn, 0.0) / steps \
                if steps else 0.0
        else:
            values[name] = tracer.value(name)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](twomode, args.seed, args.workdir)
    run = Pass()
    probes = ImportProbes(args.seconds)
    # whole rounds, at least MIN_ROUNDS, until the timed operations have
    # taken --seconds
    while len(run.round_s) < MIN_ROUNDS or sum(run.round_s) < args.seconds:
        run.judge(run.run_round(ops, probes=probes))
    probes.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each operation's latency is the mean of its repeats, one per round,
    # which spread it over the whole run and its changing machine load;
    # len(typical) / sum(typical) is then operations per busy second
    typical = [statistics.fmean(reps) for reps in run.latencies]
    result = {
        "import_samples_s": probes.samples,
        "setup_s": statistics.median(probes.samples),
        "rounds": len(run.round_s),
        "round_s": list(run.round_s),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        tracer = Tracer(twomode)
        with tracer:
            outputs = run.run_round(ops, tracer)
        run.judge(outputs)
        untraced = statistics.median(run.round_s[:-1])
        overhead = run.round_s[-1] - untraced
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        result["per_layer"] = per_layer(tracer, names, overhead, untraced)
        tracer.write(os.path.join(os.path.dirname(args.workdir),
                                  f"trace-{args.workload}-seed{args.seed}"),
                     {"workload": args.workload, "seed": args.seed,
                      "round_s": run.round_s[-1],
                      "untraced_round_s": untraced})
    result.update(attempted=run.attempted, failed=run.failed,
                  problems=run.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
