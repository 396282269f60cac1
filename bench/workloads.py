"""The three workloads: seeded inputs, the operations run on them, and the
checks each operation's output must pass.

A workload is a list of operations, one round, drawn once from the seed
and repeated for the whole run.  Each operation has three parts:

* ``call()``, the timed part: calls into twomode only, looked up through
  the package modules at call time so that the tracer sees every call;
* ``collect(raw)``, untimed: turns the result into plain data (reads, then
  removes, the files the CLI wrote);
* ``check(output)``, untimed: returns the list of problems found by
  comparing against ``reference.py`` or properties the method must have.

An operation with ``expected_error`` set succeeds only when the call
raises that error; any other outcome counts it as failed.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import reference as ref

FACTOR_GRID = 101
EVOLVE_GRID = 17
COHERENT_GRID = 41
N_MAX = 8
ORACLE_STEPS = 4096
S_TOL = 1e-7          # S from any route against the reference integration
CLOSED_TOL = 1e-8     # printed closed blocks against the reference
ORACLE_TOL = 1e-6     # 4096-step midpoint product against the reference
PROPERTY_TOL = 1e-9   # unitarity, det S = e^{-i alpha}, |c|^2 conservation
POLE_GAP = 1e-6       # grid samples this close to a pole are not judged
STATE_TOL = 1e-6      # U|z> against e^{-i theta}|c(t)>
STRONG_DRIVES = (6.0, 10.0)   # constant F1 giving |c1| of about 6 and 10
DRAWS = 2             # draws of each scenario kind per round

PRINTED = ("ConstantPhase", "LinearPhase", "GeneralPhase", "AllConstant",
           "IsotropicConstant", "RhoConstant", "LogRho")
ALTERNATIVE = ("LinearPhase", "AllConstant", "LogRho", "QuadraticPhase",
               "FresnelNorm")
MIXING = ("IsotropicConstant", "RhoConstant", "LogRho")
VERIFY_CHECKS = ["oracle_convergence", "oracle_unitarity",
                 "smatrix_vs_oracle", "factor_reconstruction",
                 "operator_fidelity"]


class Operation:
    expected_error = None

    def __init__(self, kind, label, tm, spec=None, t_end=None, workdir=None):
        self.kind = kind
        self.label = label
        self.tm = tm
        self.spec = spec
        self.t_end = t_end
        self.out = workdir
        self.ini = spec.write(workdir) if workdir else None
        self._ref = None

    def collect(self, raw):
        return raw

    def reference(self):
        if self._ref is None:
            self._ref = self.make_reference()
        return self._ref


# ---------------------------------------------------------------------------
# inputs: a scenario is a case tag, its INI keys and optional drives

class Spec:
    """One scenario, written both as an INI file for the CLI and as the
    package's scenario object for the library calls and the references."""

    def __init__(self, tm, case, keys, drives=None, table=None):
        self.case = case
        self.keys = keys
        self.drives = drives or {}
        self.table = table   # path of the tabulated CSV
        self.scenario = _build_scenario(tm, self)

    def ini(self, directory) -> str:
        lines = [f"[{self.case}]"]
        if self.case == "Tabulated":
            lines.append(f"data = {os.path.relpath(self.table, directory)}")
        lines += [f"{k} = {v!r}" for k, v in self.keys.items()]
        for sec, drive in self.drives.items():
            lines += ["", f"[{sec}]"] + [f"{k} = {v!r}" if k != "kind"
                                         else f"kind = {v}"
                                         for k, v in drive.items()]
        return "\n".join(lines) + "\n"

    def write(self, directory) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "scenario.ini")
        with open(path, "w") as fh:
            fh.write(self.ini(directory))
        return path

    @property
    def z0(self) -> complex:
        return complex(self.keys.get("Z0_re", 0.0), self.keys.get("Z0_im", 0.0))

    def c_initial(self):
        """Initial amplitudes the CLI uses: z0 times the conjugated dressed
        mode for the mixing families, zero otherwise."""
        if self.case not in MIXING:
            return np.zeros(2, dtype=complex)
        k = self.keys
        r0 = math.atan(k["t0"]) if self.case == "LogRho" else k["rho0"]
        alpha0 = math.cos(r0) * cmath.exp(1j * k.get("theta_alpha0", 0.0))
        beta0 = math.sin(r0) * cmath.exp(1j * k.get("theta_beta0", 0.0))
        return self.z0 * np.conj(np.array([alpha0, beta0]))


def _build_drive(sc, sec, d):
    if d["kind"] == "rotating":
        return sc.RotatingDrive(complex(d["amp_re"], d["amp_im"]), d["omega"],
                                d["phase"])
    if d["kind"] == "cosine":
        return sc.CosineDrive(d["amp"], d["omega"], d["phase"])
    if sec == "B":
        return sc.ConstantDrive(complex(d["value"], 0.0))
    return sc.ConstantDrive(complex(d["re"], d["im"]))


def _build_scenario(tm, spec):
    sc = tm.scenario
    k = spec.keys
    drives = {sec.lower(): _build_drive(sc, sec, d)
              for sec, d in spec.drives.items()}
    case = spec.case
    if case == "Tabulated":
        # drives are columns of the tabulated file
        return sc.TabulatedScenario.from_csv(spec.table)
    z0 = {"z0": spec.z0} if case in MIXING else {}
    if case == "AllConstant":
        return sc.AllConstantScenario(
            w11=k["w11"], w22=k["w22"], w12=complex(k["w12_re"], k["w12_im"]),
            **drives)
    if case == "IsotropicConstant":
        return sc.IsotropicConstantScenario.from_polar(
            rho0=k["rho0"], theta_alpha0=k["theta_alpha0"],
            theta_beta0=k["theta_beta0"], **z0, **drives)
    if case == "FresnelNorm":
        return sc.FresnelNormScenario(w12_0=k["eta0"], nu=k["nu"],
                                      theta_v0=k["theta0"],
                                      theta_u0=k["phi0"], **drives)
    cls = getattr(sc, case + "Scenario")
    params = {key: val for key, val in k.items()
              if key not in ("Z0_re", "Z0_im")}
    return cls(**params, **z0, **drives)


class Draw:
    """Seeded parameter draws."""

    def __init__(self, seed, salt):
        self.rng = np.random.default_rng([seed, salt])

    def u(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def angle(self):
        return self.u(-math.pi, math.pi)

    def sign(self):
        return 1.0 if self.rng.random() < 0.5 else -1.0

    def z0(self, radius=0.5):
        z = cmath.rect(self.u(0.2, radius), self.angle())
        return {"Z0_re": z.real, "Z0_im": z.imag}

    def drives(self, scale=1.0):
        return {
            "F1": {"kind": "rotating", "amp_re": scale * self.u(-0.1, 0.1),
                   "amp_im": scale * self.u(-0.1, 0.1),
                   "omega": self.u(0.5, 1.5), "phase": self.angle()},
            "F2": {"kind": "constant", "re": scale * self.u(-0.05, 0.05),
                   "im": scale * self.u(-0.05, 0.05)},
            "B": {"kind": "cosine", "amp": self.u(0.05, 0.3),
                  "omega": self.u(0.5, 1.5), "phase": self.angle()}}

    def table(self, path, t_max=3.0, driven=False):
        """Smooth coefficient samples with |w11 - w22| >= 0.48 > 0.44 >=
        2 |w12|, so |S22| stays well away from zero."""
        t = np.linspace(0.0, t_max, 41)
        w11 = self.u(0.7, 0.9) + self.u(0.0, 0.08) * np.sin(
            self.u(0.5, 2.0) * t + self.angle())
        w22 = self.u(0.0, 0.1) + self.u(0.0, 0.04) * np.cos(
            self.u(0.5, 2.0) * t + self.angle())
        w12 = ((self.u(0.1, 0.18) + self.u(0.0, 0.04) * np.sin(
            self.u(0.5, 2.0) * t)) * np.exp(1j * (self.angle()
                                                  + self.u(-1, 1) * t)))
        zero = np.zeros_like(t)
        if driven:
            f1 = self.u(0.03, 0.1) * np.exp(1j * (self.u(0.5, 1.5) * t
                                                  + self.angle()))
            f2 = self.u(-0.05, 0.05) + self.u(-0.05, 0.05) * 1j + zero
            b = self.u(0.05, 0.3) * np.cos(self.u(0.5, 1.5) * t)
        else:
            f1 = f2 = zero.astype(complex)
            b = zero
        cols = {"t": t, "w11": w11, "w22": w22, "re_w12": w12.real,
                "im_w12": w12.imag, "re_F1": f1.real, "im_F1": f1.imag,
                "re_F2": f2.real, "im_F2": f2.imag, "B": b}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(cols)
            for i in range(t.size):
                out.writerow([repr(float(cols[c][i])) for c in cols])
        return path


@contextlib.contextmanager
def _quiet():
    """The CLI's terminal output goes to a buffer the operation discards."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def _cli(tm, *argv):
    with _quiet():
        return tm.cli.main([str(a) for a in argv])


def _take(path):
    """Read an output file and remove it, so that the next round's check
    cannot pass on a file this round failed to write."""
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _unitarity(m) -> float:
    return _dev(m.conj().T @ m, np.eye(m.shape[0]))


def _check_s_block(problems, what, t, mat, s_ref, alpha, tol):
    """Entrywise against the reference, plus unitarity and det S =
    e^{-i alpha}."""
    dev = _dev(mat, s_ref)
    if not dev <= tol:
        problems.append(f"{what} at t={t:.6g}: |S - S_ref| = {dev:.3e} "
                        f"(tol {tol:.0e})")
    if not _unitarity(mat) <= max(tol, PROPERTY_TOL):
        problems.append(f"{what} at t={t:.6g}: not unitary")
    det_dev = abs(np.linalg.det(mat) - cmath.exp(-1j * alpha))
    if not det_dev <= max(tol, PROPERTY_TOL):
        problems.append(f"{what} at t={t:.6g}: det S off e^(-i alpha) by "
                        f"{det_dev:.3e}")


# ---------------------------------------------------------------------------
# factor-sweep

class FactorRequest(Operation):
    """``twomode factors`` and ``twomode smatrix`` on a dense grid, plus the
    library's closed routes on the same grid."""

    def __init__(self, tm, spec, t_end, workdir, label):
        super().__init__("factor-request", label, tm, spec, t_end, workdir)
        self.grid = np.linspace(0.0, t_end, FACTOR_GRID)
        case = spec.case
        self.closed = case != "Tabulated"
        self.ordering = "alternative" if case in ALTERNATIVE else "standard"
        self.printed = case in PRINTED

    def call(self):
        tm, sc = self.tm, self.spec.scenario
        common = ("--scenario", self.ini, "--t-end", repr(self.t_end),
                  "--grid", FACTOR_GRID, "--out", self.out)
        raw = {"factors_rc": _cli(tm, "factors", *common),
               "smatrix_rc": _cli(tm, "smatrix", *common)}
        if self.closed:
            factors = tm.riccati.factors_on_grid(sc, self.grid, self.ordering)
            rebuilt = []
            for t in self.grid:
                try:
                    rebuilt.append(tm.smatrix.smatrix_from_factors(
                        factors, float(t)).mat)
                except tm.riccati.ChartSingularity:
                    rebuilt.append(None)
            raw["lib_factors"] = (factors.lam, factors.omega, factors.gamma,
                                  factors.valid)
            raw["lib_rebuilt"] = rebuilt
        if self.printed:
            raw["lib_closed"] = [tm.smatrix.smatrix_closed(sc, float(t)).mat
                                 for t in self.grid]
        return raw

    def collect(self, raw):
        out = dict(raw)
        out["factors_csv"] = _take(os.path.join(self.out, "factors.csv"))
        out["smatrix_csv"] = _take(os.path.join(self.out, "smatrix.csv"))
        return out

    def make_reference(self):
        s_ref = ref.SReference(self.spec.scenario, self.t_end)
        diag = [self.spec.scenario.diag_integrals(float(t)) for t in self.grid]
        return {"S": [s_ref(float(t)) for t in self.grid],
                "alpha": [a for a, _ in diag], "rho": [r for _, r in diag],
                "pole": s_ref.first_pole()}

    def check(self, out):
        r = self.reference()
        pole = r["pole"]
        problems = []
        want_rc = 0 if pole is None else 2
        if out["factors_rc"] != want_rc:
            problems.append(f"factors exit code {out['factors_rc']}, want "
                            f"{want_rc} (pole {pole})")
        header, rows = _csv_rows(out["factors_csv"])
        if (header[-1] != "chart_valid" or rows.shape[0] != self.grid.size
                or _dev(rows[:, 0], self.grid) > 1e-15):
            return problems + ["factors.csv: wrong columns or time grid"]
        for i, row in enumerate(rows):
            t = row[0]
            if pole is not None and abs(t - pole) < POLE_GAP:
                continue
            valid = row[7] == 1
            if valid != (pole is None or t < pole):
                problems.append(f"factors.csv chart flag {int(row[7])} at "
                                f"t={t:.6g} with pole at {pole}")
                continue
            if valid:
                lam = complex(row[1], row[2])
                mat = ref.gauss_product(lam, complex(row[3], row[4]),
                                        complex(row[5], row[6]),
                                        r["alpha"][i], r["rho"][i], "standard")
                # the numeric chart loses digits as |Lambda| grows near a pole
                tol = S_TOL * (1.0 + abs(lam)) ** 2
                dev = _dev(mat, r["S"][i])
                if not dev <= tol:
                    problems.append(f"factors.csv Gauss product at t={t:.6g}:"
                                    f" |S - S_ref| = {dev:.3e} (tol {tol:.1e})")

        if out["smatrix_rc"] != 0:
            problems.append(f"smatrix exit code {out['smatrix_rc']}")
        header, rows = _csv_rows(out["smatrix_csv"])
        if rows.shape[0] != self.grid.size or _dev(rows[:, 0], self.grid) > 1e-15:
            return problems + ["smatrix.csv: wrong time grid"]
        for i, row in enumerate(rows):
            mat = np.array([[row[1] + 1j * row[2], row[3] + 1j * row[4]],
                            [row[5] + 1j * row[6], row[7] + 1j * row[8]]])
            _check_s_block(problems, "smatrix.csv", row[0], mat, r["S"][i],
                           r["alpha"][i], S_TOL)
            if abs(row[9] - _unitarity(mat)) > 1e-12:
                problems.append(f"smatrix.csv unitarity_defect column wrong "
                                f"at t={row[0]:.6g}")

        if self.closed:
            lam, omega, gamma, valid = out["lib_factors"]
            for i, t in enumerate(self.grid):
                near_pole = pole is not None and abs(t - pole) < POLE_GAP
                if valid[i]:
                    mat = ref.gauss_product(lam[i], omega[i], gamma[i],
                                            r["alpha"][i], r["rho"][i],
                                            self.ordering)
                    dev = _dev(mat, r["S"][i])
                    if not dev <= S_TOL:
                        problems.append(
                            f"factors_on_grid ({self.ordering}) Gauss product"
                            f" at t={t:.6g}: |S - S_ref| = {dev:.3e}")
                elif not near_pole:
                    problems.append(f"factors_on_grid flags t={t:.6g} "
                                    f"invalid away from any pole")
                rebuilt = out["lib_rebuilt"][i]
                if rebuilt is None:
                    if pole is None or t < pole - POLE_GAP:
                        problems.append(f"smatrix_from_factors refused "
                                        f"t={t:.6g} inside the chart")
                else:
                    _check_s_block(problems, "smatrix_from_factors", t,
                                   rebuilt, r["S"][i], r["alpha"][i], S_TOL)
        if self.printed:
            for i, t in enumerate(self.grid):
                _check_s_block(problems, "smatrix_closed", t,
                               out["lib_closed"][i], r["S"][i],
                               r["alpha"][i], CLOSED_TOL)
        return problems


def factor_sweep(tm, seed, workdir):
    """Two draws of each of the ten scenario cases inside their chart, plus
    ConstantPhase and IsotropicConstant (rho0 = pi/4) past their first
    chart pole."""
    d = Draw(seed, 1)
    specs = []

    def add(case, keys, t_end, label=None, table=None):
        specs.append((Spec(tm, case, keys, table=table), t_end,
                      label or case))

    for copy in range(DRAWS):
        eta0 = d.u(0.6, 1.0)
        add("ConstantPhase", {"eta0": eta0, "phi0": d.angle(),
                              "w11": d.u(0, 0.4), "w22": d.u(0, 0.4)},
            d.u(0.6, 0.85) * math.pi / (2 * eta0))
        add("LinearPhase", {"eta0": d.u(0.6, 1.0),
                            "w0": d.sign() * d.u(0.5, 1.5), "phi0": d.angle(),
                            "w11": d.u(0, 0.4), "w22": d.u(0, 0.4)},
            d.u(1.8, 2.2))
        s = d.sign()
        add("GeneralPhase", {"eta0": d.u(0.6, 1.0), "w0": d.u(0.8, 1.5),
                             "phi0": d.angle(), "theta0": s * d.u(0.7, 1.3),
                             "nu": s * d.u(0.0, 0.3), "w11": d.u(0, 0.4),
                             "w22": d.u(0, 0.4)}, d.u(1.8, 2.2))
        w12 = cmath.rect(d.u(0.1, 0.4), d.angle())
        add("AllConstant", {"w11": d.u(0.5, 1.0), "w22": d.u(0.0, 0.2),
                            "w12_re": w12.real, "w12_im": w12.imag},
            d.u(1.8, 2.2))
        add("IsotropicConstant", {"rho0": d.u(0.3, 0.6),
                                  "theta_alpha0": d.angle(),
                                  "theta_beta0": d.angle(), **d.z0()},
            d.u(1.8, 2.2))
        add("RhoConstant", {"rho0": d.u(0.3, 1.2), "eta0": d.u(0.5, 1.0),
                            "w0": d.u(0.5, 1.5), "theta_alpha0": d.angle(),
                            "theta_beta0": d.angle(), **d.z0()},
            d.u(1.8, 2.2))
        add("LogRho", {"t0": d.u(0.5, 1.5), "eta0": d.u(0.5, 1.0),
                       "w0": d.u(0.5, 1.5), "theta_alpha0": d.angle(),
                       "theta_beta0": d.angle(), **d.z0()}, d.u(1.8, 2.2))
        # the alternative chart costs O(grid^2) Kummer-series quadratures,
        # half the round; narrow draws keep that share steady across seeds
        add("QuadraticPhase", {"eta0": d.u(0.65, 0.75),
                               "theta0": d.sign() * d.u(0.43, 0.47)},
            d.u(1.18, 1.22))
        add("FresnelNorm", {"eta0": d.u(0.6, 1.2), "nu": d.u(0.2, 0.5),
                            "theta0": d.angle(), "phi0": d.angle()},
            d.u(1.0, 1.5))
        table = d.table(os.path.join(workdir, f"tabulated{copy}.csv"))
        add("Tabulated", {}, d.u(1.8, 2.2), table=table)
    eta0 = d.u(0.8, 1.2)
    add("ConstantPhase", {"eta0": eta0, "phi0": d.angle(),
                          "w11": d.u(0, 0.4), "w22": d.u(0, 0.4)},
        d.u(1.2, 1.6) * math.pi / (2 * eta0), "ConstantPhase past pole")
    add("IsotropicConstant", {"rho0": math.pi / 4,
                              "theta_alpha0": d.angle(),
                              "theta_beta0": d.angle(), **d.z0()},
        d.u(3.6, 4.4), "IsotropicConstant past pole")
    return [FactorRequest(tm, spec, t_end, os.path.join(workdir, f"op{i:02d}"),
                          label)
            for i, (spec, t_end, label) in enumerate(specs)]


# ---------------------------------------------------------------------------
# oracle-audit

class Audit(Operation):
    """``twomode verify`` at its defaults, then the printed S block against
    a 4096-step ``brute_force_smatrix`` at three times."""

    def __init__(self, tm, spec, t_end, workdir, corrupt=False):
        super().__init__("audit", spec.case, tm, spec, t_end, workdir)
        self.times = [t_end / 3.0, 2.0 * t_end / 3.0, t_end]
        self.corrupt = corrupt   # verify's own negative control: Gamma flipped

    def call(self):
        tm, sc = self.tm, self.spec.scenario
        argv = ["verify", "--scenario", self.ini, "--t-end", repr(self.t_end),
                "--out", self.out]
        if self.corrupt:
            argv += ["--corrupt", "factor-sign"]
        return {"rc": _cli(tm, *argv),
                "closed": [tm.smatrix.smatrix_closed(sc, t).mat
                           for t in self.times],
                "oracle": [tm.oracle.brute_force_smatrix(sc, t, ORACLE_STEPS)
                           for t in self.times]}

    def collect(self, raw):
        return {**raw, "verify": json.loads(
            _take(os.path.join(self.out, "verify.json")))}

    def make_reference(self):
        s_ref = ref.SReference(self.spec.scenario, self.t_end)
        return [(s_ref(t), self.spec.scenario.diag_integrals(t)[0])
                for t in self.times]

    def check(self, out):
        problems = []
        report = out["verify"]
        names = [c["name"] for c in report["checks"]]
        if out["rc"] != 0 or not report["passed"] or names != VERIFY_CHECKS:
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            problems.append(f"verify exit {out['rc']}, checks {names}, "
                            f"failing {failing}")
        for t, (s_ref, alpha), closed, oracle in zip(
                self.times, self.reference(), out["closed"], out["oracle"]):
            _check_s_block(problems, "smatrix_closed", t, closed, s_ref,
                           alpha, CLOSED_TOL)
            _check_s_block(problems, "brute_force_smatrix", t, oracle, s_ref,
                           alpha, ORACLE_TOL)
        return problems


def oracle_audit(tm, seed, workdir):
    """One audit per family with a printed block, each driven or undriven
    by a seeded coin, every horizon inside the regular chart."""
    d = Draw(seed, 2)
    audits = []
    for i, case in enumerate(("ConstantPhase", "LinearPhase", "GeneralPhase",
                              "AllConstant", "RhoConstant")):
        eta0 = d.u(0.6, 1.0)
        w = {"w11": d.u(0, 0.4), "w22": d.u(0, 0.4)}
        t_end = d.u(0.9, 1.3)
        if case == "ConstantPhase":
            keys = {"eta0": eta0, "phi0": d.angle(), **w}
            t_end = min(t_end, 0.8 * math.pi / (2 * eta0))
        elif case == "LinearPhase":
            keys = {"eta0": eta0, "w0": d.sign() * d.u(0.5, 1.5),
                    "phi0": d.angle(), **w}
        elif case == "GeneralPhase":
            s = d.sign()
            keys = {"eta0": eta0, "w0": d.u(0.8, 1.5), "phi0": d.angle(),
                    "theta0": s * d.u(0.7, 1.3), "nu": s * d.u(0.0, 0.3), **w}
        elif case == "AllConstant":
            w12 = cmath.rect(d.u(0.1, 0.4), d.angle())
            keys = {"w11": d.u(0.5, 1.0), "w22": d.u(0.0, 0.2),
                    "w12_re": w12.real, "w12_im": w12.imag}
        else:
            keys = {"rho0": d.u(0.3, 1.2), "eta0": eta0, "w0": d.u(0.5, 1.5),
                    "theta_alpha0": d.angle(), "theta_beta0": d.angle()}
        drives = d.drives() if d.rng.random() < 0.5 else None
        audits.append(Audit(tm, Spec(tm, case, keys, drives), t_end,
                            os.path.join(workdir, f"op{i:02d}")))
    return audits


# ---------------------------------------------------------------------------
# drive-evolution

class EvolveRequest(Operation):
    """``twomode evolve``: drive amplitudes and phase at every grid time."""

    def __init__(self, tm, spec, t_end, workdir, label):
        super().__init__("evolve", label, tm, spec, t_end, workdir)
        self.grid = np.linspace(0.0, t_end, EVOLVE_GRID)

    def call(self):
        return _cli(self.tm, "evolve", "--scenario", self.ini, "--t-end",
                    repr(self.t_end), "--grid", EVOLVE_GRID, "--out", self.out)

    def collect(self, raw):
        return {"rc": raw, "evolve": json.loads(
            _take(os.path.join(self.out, "evolve.json")))}

    def make_reference(self):
        c0 = self.spec.c_initial()
        drive = ref.DriveReference(self.spec.scenario, c0, self.t_end)
        return c0, [drive(float(t)) for t in self.grid]

    def check(self, out):
        c0, want = self.reference()
        report = out["evolve"]
        problems = []
        if out["rc"] != 0:
            problems.append(f"evolve exit code {out['rc']}")
        got_c0 = np.array(report["c0"])
        if _dev(got_c0[0::2] + 1j * got_c0[1::2], c0) > 1e-14:
            problems.append(f"evolve c0 {report['c0']} != {c0}")
        samples = report["samples"]
        if len(samples) != self.grid.size:
            return problems + ["evolve.json: wrong number of samples"]
        undriven = all(not sec.startswith("F") for sec in self.spec.drives) \
            and self.spec.table is None
        for sample, t, (c, theta) in zip(samples, self.grid, want):
            got = np.array([complex(*sample["c1"]), complex(*sample["c2"])])
            phase = complex(*sample["phase"])
            if abs(sample["t"] - t) > 1e-15:
                problems.append("evolve.json: wrong time grid")
                break
            dev = _dev(got, c)
            if not dev <= S_TOL:
                problems.append(f"evolve c(t) at t={t:.6g} off by {dev:.3e}")
            dev = abs(phase - cmath.exp(-1j * theta))
            if not dev <= S_TOL:
                problems.append(f"evolve phase at t={t:.6g} off by {dev:.3e}")
            norm2 = float(np.sum(np.abs(got) ** 2))
            if abs(sample["norm2"] - norm2) > 1e-12:
                problems.append(f"evolve norm2 column wrong at t={t:.6g}")
            if undriven and abs(norm2 - np.sum(np.abs(c0) ** 2)) > PROPERTY_TOL:
                problems.append(f"evolve |c|^2 not conserved at t={t:.6g}")
        return problems


class CoherentRequest(Operation):
    """``twomode coherent`` for an undriven mixing family."""

    def __init__(self, tm, spec, t_end, workdir):
        super().__init__("coherent", spec.case, tm, spec, t_end, workdir)
        self.grid = np.linspace(0.0, t_end, COHERENT_GRID)

    def call(self):
        return _cli(self.tm, "coherent", "--scenario", self.ini, "--t-end",
                    repr(self.t_end), "--grid", COHERENT_GRID, "--nmax", N_MAX,
                    "--out", self.out)

    def collect(self, raw):
        return {"rc": raw,
                "csv": _take(os.path.join(self.out, "coherent.csv"))}

    def make_reference(self):
        s_ref = ref.SReference(self.spec.scenario, self.t_end)
        c0 = self.spec.c_initial()
        return c0, [s_ref(float(t)) @ c0 for t in self.grid]

    def check(self, out):
        c0, want = self.reference()
        problems = []
        if out["rc"] != 0:
            problems.append(f"coherent exit code {out['rc']}")
        _, rows = _csv_rows(out["csv"])
        if rows.shape[0] != self.grid.size or _dev(rows[:, 0], self.grid) > 1e-15:
            return problems + ["coherent.csv: wrong time grid"]
        z2 = abs(self.spec.z0) ** 2
        for row, c in zip(rows, want):
            got = np.array([row[1] + 1j * row[2], row[3] + 1j * row[4]])
            dev = _dev(got, c)
            if not dev <= S_TOL:
                problems.append(f"coherent c(t) at t={row[0]:.6g} off by "
                                f"{dev:.3e}")
            if abs(row[5] - z2) > PROPERTY_TOL:
                problems.append(f"coherent |c|^2 drifts at t={row[0]:.6g}")
            # the state is cut at n_max, so the residual is the cut tail; the
            # package's truncated displacement puts a few percent more weight
            # on the top level than the Poisson amplitudes do
            bound = 2.0 * ref.ladder_residual_bound(N_MAX, c, self.spec.z0)
            if not row[6] <= bound + 1e-12:
                problems.append(f"coherent eigen residual {row[6]:.3e} above "
                                f"the cutoff bound {bound:.3e} at "
                                f"t={row[0]:.6g}")
        return problems


TEST_STATES = ((0.0, 0.0), (0.2, -0.1j), (0.1 + 0.15j, 0.2))


class AssembleRequest(Operation):
    """``assemble_U`` at n_max 8 at every fourth time of the evolve grid."""

    def __init__(self, tm, spec, t_end, label):
        super().__init__("assemble", label, tm, spec, t_end)
        self.times = [float(t) for t in
                      np.linspace(0.0, t_end, EVOLVE_GRID)[4::4]]

    def call(self):
        tm = self.tm
        space = tm.fock.make_space(N_MAX)
        return [tm.evolution.assemble_U(space, self.spec.scenario, t)
                for t in self.times]

    def make_reference(self):
        drives = [ref.DriveReference(self.spec.scenario, z, self.t_end)
                  for z in TEST_STATES]
        states = [ref.coherent_vector(N_MAX, *z) for z in TEST_STATES]
        want = [[cmath.exp(-1j * theta) * ref.coherent_vector(N_MAX, *c)
                 for c, theta in (drive(t) for drive in drives)]
                for t in self.times]
        return states, want

    def check(self, out):
        states, want = self.reference()
        problems = []
        for t, u, targets in zip(self.times, out, want):
            for z, psi, target in zip(TEST_STATES, states, targets):
                overlap = np.vdot(target, u @ psi) / np.vdot(target, target)
                if not abs(overlap - 1.0) <= STATE_TOL:
                    problems.append(
                        f"U|z> != e^(-i theta)|c(t)> for z={z} at t={t:.6g}:"
                        f" overlap {overlap:.9f}")
        return problems


class StrongDriveRequest(Operation):
    """``assemble_U`` with |c1| of about 6 to 10 at n_max 8: nearly all the
    displaced weight lies past the cutoff, so the call must raise
    TruncationError."""

    def __init__(self, tm, amplitude):
        super().__init__("strong-drive", f"|F1| = {amplitude}", tm)
        self.expected_error = tm.fock.TruncationError
        self.scenario = tm.scenario.AllConstantScenario(
            w11=0.4, w22=0.2, w12=0.05,
            f1=tm.scenario.ConstantDrive(complex(amplitude)))

    def call(self):
        space = self.tm.fock.make_space(N_MAX)
        return self.tm.evolution.assemble_U(space, self.scenario, 1.0)

    def check(self, out):
        return []


def drive_evolution(tm, seed, workdir):
    """Two draws of: driven scenarios asked for amplitudes on a grid and for
    propagators at times on that grid (one of them past a chart pole), and
    undriven mixing families asked for their coherent laws.  Then the
    strong-drive requests, whose inputs do not depend on the seed."""
    d = Draw(seed, 3)
    ops = []

    def workdir_of_next():
        return os.path.join(workdir, f"op{len(ops):02d}")

    for copy in range(DRAWS):
        w = {"w11": d.u(0, 0.4), "w22": d.u(0, 0.4)}
        w12 = cmath.rect(d.u(0.1, 0.4), d.angle())
        eta0 = d.u(0.9, 1.1)
        driven = [
            ("LinearPhase", {"eta0": d.u(0.6, 1.0),
                             "w0": d.sign() * d.u(0.5, 1.5),
                             "phi0": d.angle(), **w}, d.drives(), None),
            ("AllConstant", {"w11": d.u(0.5, 1.0), "w22": d.u(0.0, 0.2),
                             "w12_re": w12.real, "w12_im": w12.imag},
             d.drives(), None),
            ("Tabulated", {}, None, d.table(os.path.join(
                workdir, f"tabulated{copy}.csv"), driven=True)),
            ("RhoConstant", {"rho0": d.u(0.3, 1.2), "eta0": d.u(0.5, 1.0),
                             "w0": d.u(0.5, 1.5), "theta_alpha0": d.angle(),
                             "theta_beta0": d.angle(), **d.z0(0.3)},
             d.drives(0.5), None),
            ("ConstantPhase", {"eta0": eta0, "phi0": d.angle(),
                               "w11": d.u(0, 0.4), "w22": d.u(0, 0.4)},
             d.drives(), None)]
        for case, keys, drives, table in driven:
            spec = Spec(tm, case, keys, drives, table=table)
            if case == "ConstantPhase":
                t_end = d.u(1.7, 1.9) * math.pi / (2 * eta0)
                label = case + " past pole"
            else:
                t_end, label = d.u(1.7, 1.9), case
            ops.append(EvolveRequest(tm, spec, t_end, workdir_of_next(),
                                     label))
            ops.append(AssembleRequest(tm, spec, t_end, label))

        undriven = [
            ("IsotropicConstant", {"rho0": d.u(0.3, 1.2),
                                   "theta_alpha0": d.angle(),
                                   "theta_beta0": d.angle(), **d.z0()}),
            ("RhoConstant", {"rho0": d.u(0.3, 1.2), "eta0": d.u(0.5, 1.0),
                             "w0": d.u(0.5, 1.5), "theta_alpha0": d.angle(),
                             "theta_beta0": d.angle(), **d.z0()}),
            ("LogRho", {"t0": d.u(0.5, 1.5), "eta0": d.u(0.5, 1.0),
                        "w0": d.u(0.5, 1.5), "theta_alpha0": d.angle(),
                        "theta_beta0": d.angle(), **d.z0()})]
        for case, keys in undriven:
            spec = Spec(tm, case, keys)
            t_end = d.u(1.7, 1.9)
            if case == "IsotropicConstant":
                ops.append(EvolveRequest(tm, spec, t_end, workdir_of_next(),
                                         case + " undriven"))
            ops.append(CoherentRequest(tm, spec, t_end, workdir_of_next()))
    ops += [StrongDriveRequest(tm, amp) for amp in STRONG_DRIVES]
    return ops


WORKLOADS = {"factor-sweep": factor_sweep, "oracle-audit": oracle_audit,
             "drive-evolution": drive_evolution}
