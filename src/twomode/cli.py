"""Command line front end.

Subcommands:
  factors   numeric factor coefficients on a time grid -> factors.csv
  smatrix   2x2 coefficient propagator on a grid       -> smatrix.csv
  evolve    drive amplitudes and global phase          -> evolve.json
  coherent  closed coherent-state evolution + checks   -> coherent.csv
  verify    oracle cross-checks                        -> verify.json

Each subcommand declares only the options its handler reads; any other is
an argument error.  Exit codes: 0 success, 1 an argument or input error or
a failed verification, 2 a chart singularity in the factors table (which
is still written).  CSV numbers carry 17 significant digits so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .evolution import (assemble_U, c_coefficients, coherent_evolution_closed,
                        coherent_spec, ladder_eigenvalue_checks)
from .fock import TruncationError, coherent_state, interior_mask, make_space
from .oracle import (brute_force_propagator, brute_force_smatrix,
                     state_fidelities)
from .riccati import solve_riccati_numeric
from .scenario import (CASES, ConstantDrive, CosineDrive, RotatingDrive,
                       TabulatedScenario)
from .smatrix import (_sampled, smatrix_from_factors, smatrix_numeric_grid,
                      unitarity_defects)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Floats as %.17g (round-trip exact), anything else as str; every row
    of a table holds the types of its first row, so one format string,
    built from that row, writes them all."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%.17g" if isinstance(v, float) else "%s"
                            for v in rows[0]) + "\n"
            fh.writelines(line % tuple(row) for row in rows)


def _json_number(value):
    """value, or None for a non-finite float, which standard JSON cannot
    hold (the CSV writes nan)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: str, payload: dict) -> None:
    """Standard JSON only: a non-finite float left in payload is an
    error, not a bare NaN."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_table(args, name: str, case: str, header: list[str],
                 rows: list[list], **extra) -> None:
    """<name>.csv and/or <name>.json in the output directory, as the run's
    format asks; the JSON holds case, columns, rows (a non-finite value
    as null) and any extra keys."""
    if args.format in ("csv", "both"):
        _write_csv(os.path.join(args.out, name + ".csv"), header, rows)
    if args.format in ("json", "both"):
        rows = [[_json_number(v) for v in row] for row in rows]
        _write_json(os.path.join(args.out, name + ".json"),
                    {"case": case, "columns": header, "rows": rows, **extra})


# ---------------------------------------------------------------------------
# scenario files

class _Section(dict):
    """An INI section's keys; the parser pops those it reads."""

    def __init__(self, proxy):
        super().__init__(proxy)
        self.name = proxy.name

    def check(self):
        if self:
            raise ValueError(f"unknown keys {sorted(self)} in [{self.name}]")


def _sec_float(sec, key, default=inspect.Parameter.empty):
    if key not in sec and default is inspect.Parameter.empty:
        raise ValueError(f"scenario section [{sec.name}] missing key {key!r}")
    if key not in sec:
        return default
    text = sec.pop(key)
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ValueError(
        f"[{sec.name}] {key} must be a finite number, not {text!r}")


# the kinds a drive section accepts; their keys are constructor parameters
_COMPLEX_KINDS = {
    "constant": lambda re=0.0, im=0.0: ConstantDrive(complex(re, im)),
    "rotating": RotatingDrive}
_REAL_KINDS = {
    "constant": lambda value=0.0: ConstantDrive(complex(value, 0.0)),
    "cosine": CosineDrive}
_DRIVE_KINDS = {"F1": _COMPLEX_KINDS, "F2": _COMPLEX_KINDS, "B": _REAL_KINDS}


@functools.cache
def _parameters(constructor) -> tuple:
    """(name, default, is complex) of each parameter an INI section sets;
    keyword-only parameters are the drives.  scenario.py postpones
    annotations, so they arrive as strings."""
    params = inspect.signature(constructor).parameters.values()
    return tuple((p.name, p.default, p.annotation in (complex, "complex"))
                 for p in params if p.kind is p.POSITIONAL_OR_KEYWORD)


def _arguments(constructor, sec, aliases) -> dict:
    """Constructor arguments read from an INI section.  A parameter's key is
    its name or alias and its default the constructor's; a complex one reads
    <key>_re and <key>_im, each 0 by default.  Other keys are an error."""
    args = {}
    for name, default, is_complex in _parameters(constructor):
        key = aliases.get(name, name)
        if is_complex:
            args[name] = complex(_sec_float(sec, key + "_re", 0.0),
                                 _sec_float(sec, key + "_im", 0.0))
        else:
            args[name] = _sec_float(sec, key, default)
    sec.check()
    return args


def _drive(sec):
    kind = sec.pop("kind", "constant")
    if kind not in _DRIVE_KINDS[sec.name]:
        raise ValueError(f"unsupported drive kind {kind!r} in [{sec.name}]")
    drive = _DRIVE_KINDS[sec.name][kind]
    return drive(**_arguments(drive, sec, getattr(drive, "ini_aliases", {})))


def parse_scenario(path: str):
    """Read an INI scenario file: one section named by the case tag plus
    optional [F1], [F2], [B] drive sections."""
    # no value is a template, so '%' is read as itself
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed scenario file {path}: {exc}") from None
    if not read:
        raise ValueError(f"cannot read scenario file {path}")
    tags = [s for s in cp.sections() if s in CASES]
    if len(tags) != 1:
        raise ValueError(f"scenario file must contain exactly one case "
                         f"section from {tuple(CASES)}, found {tags}")
    tag = tags[0]
    unknown = [s for s in cp.sections() if s != tag and s not in _DRIVE_KINDS]
    if unknown:
        raise ValueError(f"unknown sections {unknown} beside [{tag}]; drive "
                         "sections are [F1], [F2] and [B]")
    sec = _Section(cp[tag])
    drives = {name.lower(): _drive(_Section(cp[name]))
              for name in _DRIVE_KINDS if cp.has_section(name)}

    cls = CASES[tag]
    if cls is TabulatedScenario:
        data = sec.pop("data", None)
        sec.check()
        if not data:
            raise ValueError("[Tabulated] needs a 'data' key pointing at a "
                             "sample CSV")
        if not os.path.isabs(data):
            data = os.path.join(os.path.dirname(os.path.abspath(path)), data)
        tab = TabulatedScenario.from_csv(data)
        return replace(tab, **drives) if drives else tab
    constructor = cls.ini_constructor()
    return constructor(**_arguments(constructor, sec, cls.ini_aliases),
                       **drives)


# ---------------------------------------------------------------------------
# subcommands

def cmd_factors(args, scenario) -> int:
    grid = np.linspace(0.0, args.t_end, args.grid)
    factors = solve_riccati_numeric(scenario, args.t_end, args.tol, grid)
    coeffs = np.column_stack([factors.lam, factors.omega, factors.gamma])
    # the documented table, which factor-sweep checks: nan from the pole on
    end = math.inf if factors.singular_time is None else factors.singular_time
    past = grid >= end
    coeffs[past] = np.nan
    # Lambda, Omega and Gamma read as floats are re_Lambda, ... im_Gamma
    values = np.column_stack([grid, coeffs.view(float)]).tolist()
    rows = [row + [int(ok)] for row, ok in zip(values, factors.valid & ~past)]
    header = ["t", "re_Lambda", "im_Lambda", "re_Omega", "im_Omega",
              "re_Gamma", "im_Gamma", "chart_valid"]
    _write_table(args, "factors", scenario.case, header, rows,
                 singular_time=factors.singular_time)
    if factors.singular_time is not None:
        print(f"chart singularity at t = {factors.singular_time:.6g}; "
              "later samples flagged invalid", file=sys.stderr)
        return 2
    return 0


def cmd_smatrix(args, scenario) -> int:
    grid = np.linspace(0.0, args.t_end, args.grid)
    mats = smatrix_numeric_grid(scenario, grid, args.tol).mat
    # each row of S11 ... S22 read as floats is re_S11, im_S11, ... im_S22
    rows = np.column_stack([grid, mats.reshape(-1, 4).view(float),
                            unitarity_defects(mats)]).tolist()
    header = ["t", "re_S11", "im_S11", "re_S12", "im_S12",
              "re_S21", "im_S21", "re_S22", "im_S22", "unitarity_defect"]
    _write_table(args, "smatrix", scenario.case, header, rows)
    return 0


def cmd_evolve(args, scenario) -> int:
    try:
        c0 = coherent_spec(scenario).c_initial
    except ValueError:
        c0 = (0j, 0j)
    grid = np.linspace(0.0, args.t_end, args.grid)
    amps = c_coefficients(scenario, c0, grid, args.tol)
    samples = [{"t": t, "c1": [c1.real, c1.imag], "c2": [c2.real, c2.imag],
                "phase": [phase.real, phase.imag], "norm2": norm2}
               for t, c1, c2, phase, norm2 in zip(
                   grid.tolist(), amps.c1.tolist(), amps.c2.tolist(),
                   amps.global_phase.tolist(), amps.norm2.tolist())]
    _write_json(os.path.join(args.out, "evolve.json"), {
        "case": scenario.case,
        "c0": [c0[0].real, c0[0].imag, c0[1].real, c0[1].imag],
        "t_end": args.t_end,
        "samples": samples})
    return 0


def cmd_coherent(args, scenario) -> int:
    state = coherent_spec(scenario)
    space = make_space(args.nmax)
    grid = np.linspace(0.0, args.t_end, args.grid)
    amps = coherent_evolution_closed(scenario, state, grid)
    _, residuals = ladder_eigenvalue_checks(space, state, amps.c1, amps.c2)
    rows = np.column_stack([grid, amps.c1.real, amps.c1.imag, amps.c2.real,
                            amps.c2.imag, amps.norm2, residuals]).tolist()
    header = ["t", "re_c1", "im_c1", "re_c2", "im_c2", "norm2",
              "eigen_residual"]
    _write_table(args, "coherent", scenario.case, header, rows)
    return 0


def cmd_verify(args, scenario) -> int:
    t = args.t_end
    checks = []
    start = time.perf_counter()
    # a one-step oracle on the smallest space makes the one-time imports
    # the checks would make lazily (the Fock oracle's kernel, whatever a
    # coefficient sample inside [0, t] loads), so no check's time holds them
    brute_force_propagator(make_space(1), scenario, t, 1)
    now = time.perf_counter()
    setup_seconds, start = now - start, now

    def record(name, passed, value, tolerance):
        # a check's seconds run from the previous record to this one
        nonlocal start
        now = time.perf_counter()
        checks.append({"name": name, "passed": bool(passed),
                       "value": value, "tolerance": tolerance,
                       "seconds": now - start})
        start = now

    # oracle self-convergence under step doubling; the reference run is
    # 16x finer so its own error barely perturbs the measured ratio
    n = args.steps
    ref = brute_force_smatrix(scenario, t, 16 * n)
    d1 = float(np.max(np.abs(brute_force_smatrix(scenario, t, n) - ref)))
    d2 = float(np.max(np.abs(brute_force_smatrix(scenario, t, 2 * n) - ref)))
    if d2 < 1e-10:
        # constant-coefficient scenarios are stepped exactly at any size, so
        # both deviations sit at accumulated roundoff (~n_steps * eps) and
        # their ratio is meaningless noise
        ratio = float("nan")
        conv_ok = d1 < 1e-9
    else:
        ratio = d1 / d2
        conv_ok = 3.5 <= ratio <= 4.5
    record("oracle_convergence", conv_ok, ratio, "[3.5, 4.5]")

    defect = float(unitarity_defects(ref))
    record("oracle_unitarity", defect < 1e-9, defect, 1e-9)

    # the check grid ends at t: the factors' S serves both checks
    grid = np.linspace(0.0, t, min(args.grid, 9))
    factors = solve_riccati_numeric(scenario, t, args.tol, grid)
    mats = _sampled(factors.s_dense(grid), grid, args.tol).mat
    dev = float(np.max(np.abs(mats[-1] - ref)))
    record("smatrix_vs_oracle", dev < 1e-6, dev, 1e-6)

    if args.corrupt == "factor-sign":
        factors = replace(factors, gamma=-factors.gamma)
    # a pole is a point on the chart: S is rebuilt at every sample off one
    regular = factors.valid
    rebuilt = smatrix_from_factors(factors, grid[regular]).mat
    worst = float(np.max(np.abs(rebuilt - mats[regular])))
    record("factor_reconstruction", worst < 1e-7, worst, 1e-7)

    space = make_space(args.nmax)
    # restrict test states to complete total-occupation shells; amplitude
    # left in the cut shells hits blocks the truncation has mutilated and
    # the comparison would measure that artifact, not the factorization
    keep = interior_mask(space, 2)
    states = []
    for c1, c2 in ((0.3, 0.0), (0.0, 0.4), (0.25 + 0.2j, -0.3j)):
        psi = coherent_state(space, c1, c2) * keep
        states.append(psi / np.linalg.norm(psi))
    states = np.stack(states, axis=1)
    u_fact = assemble_U(space, scenario, t, args.tol)
    ref = brute_force_propagator(space, scenario, t, args.steps, states)
    fid = float(np.min(state_fidelities(u_fact @ states, ref)))
    record("operator_fidelity", fid >= 1.0 - 1e-6, fid, "1 - 1e-6")

    passed = all(c["passed"] for c in checks)
    _write_json(os.path.join(args.out, "verify.json"), {
        "case": scenario.case,
        "passed": passed,
        "setup_seconds": setup_seconds,
        "checks": [{**c, "value": _json_number(c["value"])} for c in checks]})
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']}: {c['value']} (tol {c['tolerance']})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """An argument error raises ValueError, so main reports it as exit 1
    like any other bad input; the subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def _ranged(convert, ok, message, **settings) -> dict:
    """An option's argparse settings, with a type that converts the text
    and refuses, with message, a value that ok rejects."""
    def parse(text):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__      # "invalid int value: ..."
    return dict(type=parse, **settings)


# each option once; a subcommand declares the options its handler reads
_OPTIONS = {
    "--scenario": dict(required=True, help="path to an INI scenario file"),
    "--t-end": _ranged(float, lambda v: v > 0.0 and math.isfinite(v),
                       "t-end must be positive and finite", default=1.0),
    "--grid": _ranged(int, lambda v: v >= 2,
                      "grid must have at least 2 points", default=101,
                      help="number of sample times including t=0"),
    "--tol": _ranged(float, lambda v: 0.0 < v <= 1e-2,
                     "tol must lie in (0, 1e-2]", default=1e-10),
    "--nmax": _ranged(int, lambda v: v >= 1, "nmax must be at least 1",
                      default=8,
                      help="per-mode Fock cutoff for operator checks"),
    "--steps": _ranged(int, lambda v: v >= 1, "steps must be positive",
                       default=1024, help="brute-force oracle steps"),
    "--out": dict(default=".", help="output directory"),
    "--format": dict(choices=("csv", "json", "both"), default="csv"),
    "--corrupt": dict(choices=("factor-sign",),
                      help="deliberately corrupt a factor (negative control)"),
}
_SHARED = ("--scenario", "--t-end", "--grid", "--out")
_COMMANDS = {
    "factors": (cmd_factors, "factor coefficients on a grid",
                ("--tol", "--format")),
    "smatrix": (cmd_smatrix, "coefficient propagator on a grid",
                ("--tol", "--format")),
    "evolve": (cmd_evolve, "drive amplitudes and global phase", ("--tol",)),
    "coherent": (cmd_coherent,
                 "closed coherent evolution with eigenvalue checks",
                 ("--nmax", "--format")),
    "verify": (cmd_verify, "cross-check against brute-force oracles",
               ("--tol", "--nmax", "--steps", "--corrupt")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="twomode",
                 description="factorized evolution of two coupled driven modes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, text, own) in _COMMANDS.items():
        parser = sub.add_parser(name, help=text)
        for option in (*_SHARED, *own):
            parser.add_argument(option, **_OPTIONS[option])
        parser.set_defaults(handler=handler)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        scenario = parse_scenario(args.scenario)
        os.makedirs(args.out, exist_ok=True)
        return args.handler(args, scenario)
    except (ValueError, OSError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
