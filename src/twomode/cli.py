"""Command line front end.

Subcommands:
  factors   numeric factor coefficients on a time grid -> factors.csv
  smatrix   2x2 coefficient propagator on a grid       -> smatrix.csv
  evolve    drive amplitudes and global phase          -> evolve.json
  coherent  closed coherent-state evolution + checks   -> coherent.csv
  verify    oracle cross-checks                        -> verify.json

Exit codes: 0 success, 1 error or failed verification, 2 chart singularity
(partial output is still written).  CSV numbers carry 17 significant digits
so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (assemble_U, c_coefficients, coherent_evolution_closed,
                        coherent_spec, ladder_eigenvalue_check)
from .fock import coherent_state, interior_mask, make_space
from .oracle import (brute_force_propagator, brute_force_smatrix,
                     compare_operators)
from .riccati import ChartSingularity, solve_riccati_numeric
from .scenario import (AllConstantScenario, ConstantDrive,
                       ConstantPhaseScenario, CosineDrive,
                       FresnelNormScenario, GeneralPhaseScenario,
                       IsotropicConstantScenario, LinearPhaseScenario,
                       LogRhoScenario, QuadraticPhaseScenario,
                       RhoConstantScenario, RotatingDrive, TabulatedScenario)
from .smatrix import smatrix_from_factors, smatrix_numeric, smatrix_numeric_grid


@dataclass(frozen=True)
class RunConfig:
    scenario_path: str
    t_end: float = 1.0
    grid: int = 101
    tol: float = 1e-10
    n_max: int = 8
    steps: int = 1024
    out_dir: str = "."
    fmt: str = "csv"
    corrupt: str | None = None

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-2):
            raise ValueError("tol must lie in (0, 1e-2]")
        if self.grid < 2:
            raise ValueError("grid must have at least 2 points")
        if self.t_end <= 0.0:
            raise ValueError("t-end must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.n_max < 1:
            raise ValueError("nmax must be at least 1")
        if self.fmt not in ("csv", "json", "both"):
            raise ValueError("format must be csv, json or both")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                _fmt(v) if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenario files

def _sec_float(sec, key, default=None):
    if key in sec:
        return float(sec[key])
    if default is None:
        raise ValueError(f"scenario section [{sec.name}] missing key {key!r}")
    return default


def _parse_drive(sec, allow_complex=True):
    kind = sec.get("kind", "constant")
    if kind == "constant":
        if allow_complex:
            return ConstantDrive(complex(_sec_float(sec, "re", 0.0),
                                         _sec_float(sec, "im", 0.0)))
        return ConstantDrive(complex(_sec_float(sec, "value", 0.0), 0.0))
    if kind == "rotating" and allow_complex:
        return RotatingDrive(
            amplitude=complex(_sec_float(sec, "amp_re", 0.0),
                              _sec_float(sec, "amp_im", 0.0)),
            omega=_sec_float(sec, "omega"),
            phase=_sec_float(sec, "phase", 0.0))
    if kind == "cosine" and not allow_complex:
        return CosineDrive(amplitude=_sec_float(sec, "amp"),
                           omega=_sec_float(sec, "omega"),
                           phase=_sec_float(sec, "phase", 0.0))
    raise ValueError(f"unsupported drive kind {kind!r} in [{sec.name}]")


_CASE_SECTIONS = ("ConstantPhase", "LinearPhase", "GeneralPhase",
                  "AllConstant", "IsotropicConstant", "RhoConstant",
                  "LogRho", "QuadraticPhase", "FresnelNorm", "Tabulated")


def parse_scenario(path: str):
    """Read an INI scenario file: one section named by the case tag plus
    optional [F1], [F2], [B] drive sections."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read scenario file {path}")
    tags = [s for s in cp.sections() if s in _CASE_SECTIONS]
    if len(tags) != 1:
        raise ValueError(f"scenario file must contain exactly one case "
                         f"section from {_CASE_SECTIONS}, found {tags}")
    tag = tags[0]
    sec = cp[tag]
    drives = {}
    if cp.has_section("F1"):
        drives["f1"] = _parse_drive(cp["F1"])
    if cp.has_section("F2"):
        drives["f2"] = _parse_drive(cp["F2"])
    if cp.has_section("B"):
        drives["b"] = _parse_drive(cp["B"], allow_complex=False)

    if tag == "ConstantPhase":
        return ConstantPhaseScenario(
            eta0=_sec_float(sec, "eta0"), phi0=_sec_float(sec, "phi0", 0.0),
            w11=_sec_float(sec, "w11", 0.0), w22=_sec_float(sec, "w22", 0.0),
            **drives)
    if tag == "LinearPhase":
        return LinearPhaseScenario(
            eta0=_sec_float(sec, "eta0"), w0=_sec_float(sec, "w0"),
            phi0=_sec_float(sec, "phi0", 0.0),
            w11=_sec_float(sec, "w11", 0.0), w22=_sec_float(sec, "w22", 0.0),
            **drives)
    if tag == "GeneralPhase":
        return GeneralPhaseScenario(
            eta0=_sec_float(sec, "eta0"), w0=_sec_float(sec, "w0"),
            phi0=_sec_float(sec, "phi0", 0.0),
            theta0=_sec_float(sec, "theta0", 1.0),
            nu=_sec_float(sec, "nu", 0.0),
            w11=_sec_float(sec, "w11", 0.0), w22=_sec_float(sec, "w22", 0.0),
            **drives)
    if tag == "AllConstant":
        return AllConstantScenario(
            w11=_sec_float(sec, "w11"), w22=_sec_float(sec, "w22"),
            w12=complex(_sec_float(sec, "w12_re", 0.0),
                        _sec_float(sec, "w12_im", 0.0)),
            **drives)
    if tag == "IsotropicConstant":
        return IsotropicConstantScenario.from_polar(
            rho0=_sec_float(sec, "rho0"),
            theta_alpha0=_sec_float(sec, "theta_alpha0", 0.0),
            theta_beta0=_sec_float(sec, "theta_beta0", 0.0),
            z0=complex(_sec_float(sec, "Z0_re", 0.0),
                       _sec_float(sec, "Z0_im", 0.0)),
            **drives)
    if tag == "RhoConstant":
        return RhoConstantScenario(
            rho0=_sec_float(sec, "rho0"), eta0=_sec_float(sec, "eta0"),
            w0=_sec_float(sec, "w0"),
            theta_alpha0=_sec_float(sec, "theta_alpha0", 0.0),
            theta_beta0=_sec_float(sec, "theta_beta0", 0.0),
            z0=complex(_sec_float(sec, "Z0_re", 0.0),
                       _sec_float(sec, "Z0_im", 0.0)),
            **drives)
    if tag == "LogRho":
        return LogRhoScenario(
            t0=_sec_float(sec, "t0"), eta0=_sec_float(sec, "eta0"),
            w0=_sec_float(sec, "w0"),
            theta_alpha0=_sec_float(sec, "theta_alpha0", 0.0),
            theta_beta0=_sec_float(sec, "theta_beta0", 0.0),
            z0=complex(_sec_float(sec, "Z0_re", 0.0),
                       _sec_float(sec, "Z0_im", 0.0)),
            **drives)
    if tag == "QuadraticPhase":
        return QuadraticPhaseScenario(
            eta0=_sec_float(sec, "eta0"), theta0=_sec_float(sec, "theta0"),
            **drives)
    if tag == "FresnelNorm":
        # key mapping: eta0 scales the coupling norm, theta0 and phi0 carry
        # the two phase offsets
        return FresnelNormScenario(
            w12_0=_sec_float(sec, "eta0"), nu=_sec_float(sec, "nu"),
            theta_v0=_sec_float(sec, "theta0", 0.0),
            theta_u0=_sec_float(sec, "phi0", 0.0),
            **drives)
    if tag == "Tabulated":
        data = sec.get("data")
        if not data:
            raise ValueError("[Tabulated] needs a 'data' key pointing at a "
                             "sample CSV")
        if not os.path.isabs(data):
            data = os.path.join(os.path.dirname(os.path.abspath(path)), data)
        tab = TabulatedScenario.from_csv(data)
        return replace(tab, **drives) if drives else tab
    raise AssertionError(tag)


# ---------------------------------------------------------------------------
# subcommands

def cmd_factors(cfg: RunConfig) -> int:
    scenario = parse_scenario(cfg.scenario_path)
    grid = np.linspace(0.0, cfg.t_end, cfg.grid)
    factors = solve_riccati_numeric(scenario, cfg.t_end, cfg.tol, grid)
    rows = []
    for i, t in enumerate(grid):
        ok = bool(factors.valid[i])
        lam, om, gam = factors.lam[i], factors.omega[i], factors.gamma[i]
        rows.append([float(t), float(lam.real), float(lam.imag),
                     float(om.real), float(om.imag),
                     float(gam.real), float(gam.imag), int(ok)])
    header = ["t", "re_Lambda", "im_Lambda", "re_Omega", "im_Omega",
              "re_Gamma", "im_Gamma", "chart_valid"]
    if cfg.fmt in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "factors.csv"), header, rows)
    if cfg.fmt in ("json", "both"):
        _write_json(os.path.join(cfg.out_dir, "factors.json"), {
            "case": scenario.case,
            "singular_time": factors.singular_time,
            "columns": header,
            "rows": rows})
    if factors.singular_time is not None:
        print(f"chart singularity at t = {factors.singular_time:.6g}; "
              "later samples flagged invalid", file=sys.stderr)
        return 2
    return 0


def cmd_smatrix(cfg: RunConfig) -> int:
    scenario = parse_scenario(cfg.scenario_path)
    grid = np.linspace(0.0, cfg.t_end, cfg.grid)
    mats = smatrix_numeric_grid(scenario, grid, cfg.tol)
    rows = []
    for sm in mats:
        m = sm.mat
        rows.append([sm.t,
                     float(m[0, 0].real), float(m[0, 0].imag),
                     float(m[0, 1].real), float(m[0, 1].imag),
                     float(m[1, 0].real), float(m[1, 0].imag),
                     float(m[1, 1].real), float(m[1, 1].imag),
                     sm.unitarity_defect])
    header = ["t", "re_S11", "im_S11", "re_S12", "im_S12",
              "re_S21", "im_S21", "re_S22", "im_S22", "unitarity_defect"]
    if cfg.fmt in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "smatrix.csv"), header, rows)
    if cfg.fmt in ("json", "both"):
        _write_json(os.path.join(cfg.out_dir, "smatrix.json"), {
            "case": scenario.case, "columns": header, "rows": rows})
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    scenario = parse_scenario(cfg.scenario_path)
    try:
        c0 = coherent_spec(scenario).c_initial
    except ValueError:
        c0 = (0j, 0j)
    grid = np.linspace(0.0, cfg.t_end, cfg.grid)
    samples = [{"t": amps.t,
                "c1": [amps.c1.real, amps.c1.imag],
                "c2": [amps.c2.real, amps.c2.imag],
                "phase": [amps.global_phase.real, amps.global_phase.imag],
                "norm2": amps.norm2}
               for amps in c_coefficients(scenario, c0, grid, cfg.tol)]
    _write_json(os.path.join(cfg.out_dir, "evolve.json"), {
        "case": scenario.case,
        "c0": [c0[0].real, c0[0].imag, c0[1].real, c0[1].imag],
        "t_end": cfg.t_end,
        "samples": samples})
    return 0


def cmd_coherent(cfg: RunConfig) -> int:
    scenario = parse_scenario(cfg.scenario_path)
    state = coherent_spec(scenario)
    space = make_space(cfg.n_max)
    grid = np.linspace(0.0, cfg.t_end, cfg.grid)
    rows = []
    for t in grid:
        amps = coherent_evolution_closed(scenario, state, float(t))
        check = ladder_eigenvalue_check(space, state, amps)
        rows.append([float(t), amps.c1.real, amps.c1.imag,
                     amps.c2.real, amps.c2.imag, amps.norm2,
                     check.residual])
    header = ["t", "re_c1", "im_c1", "re_c2", "im_c2", "norm2",
              "eigen_residual"]
    if cfg.fmt in ("csv", "both"):
        _write_csv(os.path.join(cfg.out_dir, "coherent.csv"), header, rows)
    if cfg.fmt in ("json", "both"):
        _write_json(os.path.join(cfg.out_dir, "coherent.json"), {
            "case": scenario.case, "columns": header, "rows": rows})
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    scenario = parse_scenario(cfg.scenario_path)
    t = cfg.t_end
    checks = []
    exit_code = 0

    def record(name, passed, value, tolerance):
        checks.append({"name": name, "passed": bool(passed),
                       "value": value, "tolerance": tolerance})

    # oracle self-convergence under step doubling; the reference run is
    # 16x finer so its own error barely perturbs the measured ratio
    n = cfg.steps
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

    defect = float(np.max(np.abs(ref.conj().T @ ref - np.eye(2))))
    record("oracle_unitarity", defect < 1e-9, defect, 1e-9)

    sm = smatrix_numeric(scenario, t, cfg.tol)
    dev = float(np.max(np.abs(sm.mat - ref)))
    record("smatrix_vs_oracle", dev < 1e-6, dev, 1e-6)

    grid = np.linspace(0.0, t, min(cfg.grid, 9))
    factors = solve_riccati_numeric(scenario, t, cfg.tol, grid)
    if cfg.corrupt == "factor-sign":
        original = factors._eval
        factors = replace(factors, gamma=-factors.gamma,
                          _eval=lambda s: _flip_gamma(original(s)))
    if factors.singular_time is not None:
        record("factor_chart", False, factors.singular_time, "regular chart")
        exit_code = 2
    else:
        mats = smatrix_numeric_grid(scenario, grid, cfg.tol)
        worst = 0.0
        for i, tt in enumerate(grid):
            rec = smatrix_from_factors(factors, float(tt))
            worst = max(worst, float(np.max(np.abs(rec.mat - mats[i].mat))))
        record("factor_reconstruction", worst < 1e-7, worst, 1e-7)

    space = make_space(cfg.n_max)
    u_fact = assemble_U(space, scenario, t, cfg.tol)
    u_ref = brute_force_propagator(space, scenario, t, cfg.steps)
    # restrict test states to complete total-occupation shells; amplitude
    # left in the cut shells hits blocks the truncation has mutilated and
    # the comparison would measure that artifact, not the factorization
    keep = interior_mask(space, 2)
    states = []
    for c1, c2 in ((0.3, 0.0), (0.0, 0.4), (0.25 + 0.2j, -0.3j)):
        psi = coherent_state(space, c1, c2) * keep
        states.append(psi / np.linalg.norm(psi))
    rep = compare_operators(u_fact, u_ref, states, space=space)
    fid = float(np.min(rep.fidelities))
    record("operator_fidelity", fid >= 1.0 - 1e-6, fid, "1 - 1e-6")

    passed = all(c["passed"] for c in checks)
    _write_json(os.path.join(cfg.out_dir, "verify.json"), {
        "case": scenario.case,
        "passed": passed,
        "checks": checks})
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']}: {c['value']} (tol {c['tolerance']})")
    if exit_code:
        return exit_code
    return 0 if passed else 1


def _flip_gamma(triple):
    lam, omega, gamma = triple
    return lam, omega, -gamma


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True,
                        help="path to an INI scenario file")
    common.add_argument("--t-end", type=float, default=1.0)
    common.add_argument("--grid", type=int, default=101,
                        help="number of sample times including t=0")
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--nmax", type=int, default=8,
                        help="per-mode Fock cutoff for operator checks")
    common.add_argument("--steps", type=int, default=1024,
                        help="brute-force oracle steps")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json", "both"),
                        default="csv")

    ap = argparse.ArgumentParser(
        prog="twomode",
        description="factorized evolution of two coupled driven modes")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("factors", parents=[common],
                   help="factor coefficients on a grid")
    sub.add_parser("smatrix", parents=[common],
                   help="coefficient propagator on a grid")
    sub.add_parser("evolve", parents=[common],
                   help="drive amplitudes and global phase")
    sub.add_parser("coherent", parents=[common],
                   help="closed coherent evolution with eigenvalue checks")
    vp = sub.add_parser("verify", parents=[common],
                        help="cross-check against brute-force oracles")
    vp.add_argument("--corrupt", choices=("factor-sign",),
                    help="deliberately corrupt a factor (negative control)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(scenario_path=args.scenario, t_end=args.t_end,
                        grid=args.grid, tol=args.tol, n_max=args.nmax,
                        steps=args.steps, out_dir=args.out, fmt=args.format,
                        corrupt=getattr(args, "corrupt", None))
        os.makedirs(cfg.out_dir, exist_ok=True)
        handler = {"factors": cmd_factors, "smatrix": cmd_smatrix,
                   "evolve": cmd_evolve, "coherent": cmd_coherent,
                   "verify": cmd_verify}[args.command]
        return handler(cfg)
    except ChartSingularity as exc:
        print(f"chart singularity: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
