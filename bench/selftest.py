"""Checker self-test: every workload's checker must accept the program's
true output and reject a deliberately wrong one.

    python3 bench/selftest.py

Wrong outputs tried: Gamma with its sign flipped (in factors.csv, and
through ``verify --corrupt factor-sign``), S perturbed by 1e-6 (in
smatrix.csv and in a printed block), a chart flag one sample late, a
propagator with a wrong global phase (also in a round after a correct
one), and a missing TruncationError.  Prints one line per case and exits
1 if any case goes the wrong way.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from run import THREAD_PIN  # noqa: E402

os.environ.update(THREAD_PIN)

import cmath            # noqa: E402

import twomode          # noqa: E402
import twomode.cli      # noqa: E402
import workloads as wl  # noqa: E402
from worker import Pass     # noqa: E402

SEED = 0


def rewrite_csv(text, edit):
    """Apply edit(row_index, values) -> values to every data row."""
    lines = text.strip().splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        values = [float(x) for x in line.split(",")]
        out.append(",".join(f"{v:.17g}" for v in edit(i, values)))
    return "\n".join(out) + "\n"


def flip_gamma(i, v):
    return v[:5] + [-v[5], -v[6]] + v[7:]


def bump_s11(i, v):
    return v[:1] + [v[1] + 1e-6] + v[2:] if i == 50 else v


def late_flag(first_invalid):
    def edit(i, v):
        return v[:7] + [1.0] if i == first_invalid else v
    return edit


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    results = []

    def expect(name, problems, accept):
        ok = (not problems) == accept
        results.append(ok)
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")

    try:
        ops = wl.factor_sweep(twomode, SEED, os.path.join(work, "fs"))
        for op in (ops[1], ops[-2]):   # LinearPhase, ConstantPhase past pole
            out = op.collect(op.call())
            expect(f"factor-sweep {op.label} true output", op.check(out), True)
            expect(f"factor-sweep {op.label} Gamma sign flipped",
                   op.check({**out, "factors_csv": rewrite_csv(
                       out["factors_csv"], flip_gamma)}), False)
            expect(f"factor-sweep {op.label} S perturbed by 1e-6",
                   op.check({**out, "smatrix_csv": rewrite_csv(
                       out["smatrix_csv"], bump_s11)}), False)
        rows = out["factors_csv"].strip().splitlines()[1:]
        first_invalid = next(i for i, r in enumerate(rows)
                             if r.endswith(",0"))
        expect(f"factor-sweep {op.label} chart flag one sample late",
               op.check({**out, "factors_csv": rewrite_csv(
                   out["factors_csv"], late_flag(first_invalid))}), False)

        audit = wl.oracle_audit(twomode, SEED, os.path.join(work, "oa"))[1]
        out = audit.collect(audit.call())
        expect(f"oracle-audit {audit.label} true output", audit.check(out),
               True)
        closed = list(out["closed"])
        closed[1] = closed[1] + 1e-6
        expect(f"oracle-audit {audit.label} printed S perturbed by 1e-6",
               audit.check({**out, "closed": closed}), False)
        flipped = wl.Audit(twomode, audit.spec, audit.t_end,
                           os.path.join(work, "oa-flip"), corrupt=True)
        expect(f"oracle-audit {audit.label} Gamma sign flipped in verify",
               flipped.check(flipped.collect(flipped.call())), False)

        ops = wl.drive_evolution(twomode, SEED, os.path.join(work, "de"))
        assemble = next(op for op in ops if op.kind == "assemble")
        raw = assemble.call()
        out = assemble.collect(raw)
        expect(f"drive-evolution assemble {assemble.label} true output",
               assemble.check(out), True)
        expect(f"drive-evolution assemble {assemble.label} global phase "
               "off by 1e-4", assemble.check(
                   [u * cmath.exp(1e-4j) for u in out]), False)
        # the run's judge skips the check of an output identical to one
        # that passed; a changed output in a later round is checked again
        run = Pass()
        run.judge([(assemble, raw, None), (assemble, raw, None)])
        expect(f"drive-evolution assemble {assemble.label} true output in "
               "two rounds", run.problems, True)
        run.judge([(assemble, [u * cmath.exp(1e-4j) for u in raw], None)])
        expect(f"drive-evolution assemble {assemble.label} global phase "
               "off by 1e-4 in a later round", run.problems, False)
        strong = next(op for op in ops if op.kind == "strong-drive")
        for label, error, ok in (
                ("raises TruncationError",
                 twomode.fock.TruncationError("tail"), True),
                ("returns without TruncationError", None, False),
                ("raises ValueError", ValueError("other"), False)):
            run = Pass()
            run.judge([(strong, None, error)])
            expect(f"drive-evolution strong drive {label}",
                   ["counted failed"] if run.failed else [], ok)
            # a missing TruncationError is the known fault and leaves the
            # run correct; any other exception makes it incorrect
            expect(f"drive-evolution strong drive {label}, run correctness",
                   run.problems, not isinstance(error, ValueError))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
