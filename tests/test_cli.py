import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twomode
import twomode.cli
from twomode.cli import main, parse_scenario
from twomode.fock import number_diagonals
from twomode.scenario import (CASES, AllConstantScenario, ConstantDrive,
                              ConstantPhaseScenario, CosineDrive,
                              FresnelNormScenario, GeneralPhaseScenario,
                              IsotropicConstantScenario, LinearPhaseScenario,
                              LogRhoScenario, QuadraticPhaseScenario,
                              RhoConstantScenario, RotatingDrive,
                              TabulatedScenario)

CONSTANT_PHASE_INI = """\
[ConstantPhase]
eta0 = 1.0
phi0 = 0.3
w11 = 0.2
w22 = 0.05
"""

ALL_CONSTANT_INI = """\
[AllConstant]
w11 = 0.7
w22 = 0.3
w12_re = 0.25
w12_im = 0.1
"""

ISOTROPIC_INI = """\
[IsotropicConstant]
rho0 = 0.7853981633974483
Z0_re = 0.4
"""

DRIVEN_INI = """\
[AllConstant]
w11 = 0.4
w22 = 0.2
w12_re = 0.15

[F1]
kind = rotating
amp_re = 0.1
omega = 1.0

[B]
kind = constant
value = 0.2
"""


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_scenario_basic(tmp_path):
    path = write_ini(tmp_path, CONSTANT_PHASE_INI)
    scenario = parse_scenario(path)
    assert scenario.case == "ConstantPhase"
    assert scenario.eta0 == 1.0 and scenario.w11 == 0.2


def test_parse_scenario_drives(tmp_path):
    path = write_ini(tmp_path, DRIVEN_INI)
    scenario = parse_scenario(path)
    assert isinstance(scenario, AllConstantScenario)
    assert abs(scenario.f1(0.0) - 0.1) < 1e-15
    assert abs(scenario.f1(math.pi) + 0.1) < 1e-15
    assert scenario.b(1.0) == 0.2


def test_parse_scenario_rejections(tmp_path):
    with pytest.raises(ValueError):
        parse_scenario(str(tmp_path / "missing.ini"))
    with pytest.raises(ValueError):
        parse_scenario(write_ini(tmp_path, "[ConstantPhase]\neta0 = 1\n"
                                           "[AllConstant]\nw11 = 0\nw22 = 0\n",
                                 "two.ini"))
    with pytest.raises(ValueError):
        parse_scenario(write_ini(tmp_path, "[LinearPhase]\neta0 = 1.0\n",
                                 "short.ini"))
    with pytest.raises(ValueError):
        parse_scenario(write_ini(tmp_path, "[F1]\nkind = constant\n",
                                 "nocase.ini"))


def test_parse_scenario_fresnel_key_mapping(tmp_path):
    path = write_ini(tmp_path, "[FresnelNorm]\neta0 = 1.0\nnu = 0.4\n"
                               "theta0 = 0.1\nphi0 = -0.2\n")
    scenario = parse_scenario(path)
    assert isinstance(scenario, FresnelNormScenario)
    assert scenario.w12_0 == 1.0 and scenario.nu == 0.4
    assert scenario.theta_v0 == 0.1 and scenario.theta_u0 == -0.2


def test_parse_scenario_tabulated_relative_path(tmp_path):
    ts = np.linspace(0.0, 2.0, 9)
    base = LinearPhaseScenario(eta0=1.0, w0=1.0, phi0=0.3)
    lines = ["t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B"]
    for t in ts:
        w11, w22, w12 = base.coupling(t)
        lines.append(f"{t},{w11},{w22},{w12.real},{w12.imag},0,0,0,0,0")
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    path = write_ini(tmp_path, "[Tabulated]\ndata = samples.csv\n")
    scenario = parse_scenario(path)
    assert isinstance(scenario, TabulatedScenario)
    got = scenario.coupling(1.0)[2]
    assert abs(got - base.coupling(1.0)[2]) < 1e-6


ROUND_TRIP = [
    ("[ConstantPhase]\neta0 = 0.9\nphi0 = -0.4\nw11 = 0.3\nw22 = 0.1\n",
     ConstantPhaseScenario(eta0=0.9, phi0=-0.4, w11=0.3, w22=0.1)),
    ("[LinearPhase]\neta0 = 1.1\nw0 = -0.6\nphi0 = 0.2\nw22 = 0.4\n",
     LinearPhaseScenario(eta0=1.1, w0=-0.6, phi0=0.2, w22=0.4)),
    ("[GeneralPhase]\neta0 = 0.8\nw0 = 1.2\nphi0 = 0.2\nnu = 0.2\n"
     "w11 = 0.05\n",
     GeneralPhaseScenario(eta0=0.8, w0=1.2, phi0=0.2, theta0=1.0, nu=0.2,
                          w11=0.05)),
    ("[AllConstant]\nw11 = 0.6\nw22 = 0.2\n",
     AllConstantScenario(w11=0.6, w22=0.2, w12=0j)),
    ("[IsotropicConstant]\nrho0 = 0.5\ntheta_alpha0 = 0.3\n"
     "theta_beta0 = -0.4\nZ0_re = 0.4\nZ0_im = -0.2\n",
     IsotropicConstantScenario.from_polar(0.5, 0.3, -0.4, z0=0.4 - 0.2j)),
    ("[RhoConstant]\nrho0 = 0.6\neta0 = 0.8\nw0 = 1.1\ntheta_beta0 = -0.3\n"
     "z0_im = 0.5\n",
     RhoConstantScenario(rho0=0.6, eta0=0.8, w0=1.1, theta_beta0=-0.3,
                         z0=0.5j)),
    ("[LogRho]\nt0 = 1.0\neta0 = 0.9\nw0 = 0.7\ntheta_alpha0 = 0.2\n"
     "Z0_re = 0.3\n",
     LogRhoScenario(t0=1.0, eta0=0.9, w0=0.7, theta_alpha0=0.2, z0=0.3)),
    ("[QuadraticPhase]\neta0 = 1.0\ntheta0 = -0.5\n",
     QuadraticPhaseScenario(eta0=1.0, theta0=-0.5)),
    ("[FresnelNorm]\neta0 = 0.7\nnu = 0.4\n",
     FresnelNormScenario(w12_0=0.7, nu=0.4)),
]


@pytest.mark.parametrize("text,want", ROUND_TRIP,
                         ids=[want.case for _, want in ROUND_TRIP])
def test_parse_scenario_round_trip(tmp_path, text, want):
    drives = ("\n[F1]\nkind = rotating\namp_re = 0.1\namp_im = -0.05\n"
              "omega = 1.3\nphase = 0.2\n\n[F2]\nre = 0.02\n\n"
              "[B]\nkind = cosine\namp = 0.3\nomega = 0.9\n")
    assert parse_scenario(write_ini(tmp_path, text)) == want
    driven = parse_scenario(write_ini(tmp_path, text + drives, "driven.ini"))
    assert driven == replace(want, f1=RotatingDrive(0.1 - 0.05j, 1.3, 0.2),
                             f2=ConstantDrive(0.02 + 0j),
                             b=CosineDrive(0.3, 0.9))


def test_parse_scenario_round_trip_tabulated(tmp_path):
    ts = np.linspace(0.0, 2.0, 9)
    lines = ["t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B"]
    lines += [f"{t},{0.5 + 0.1 * t},0.2,{0.3 * t},0.1,0,0,0,0,0" for t in ts]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    got = parse_scenario(write_ini(tmp_path, "[Tabulated]\n"
                                             "data = samples.csv\n"
                                             "[F2]\nre = 0.1\n"))
    want = TabulatedScenario.from_csv(tmp_path / "samples.csv")
    assert np.array_equal(got.grid, want.grid)
    for t in (0.0, 0.7, 1.9):
        assert got.coupling(t) == want.coupling(t)
        assert got.diag_integrals(t) == want.diag_integrals(t)
    assert got.f2 == ConstantDrive(0.1 + 0j)
    assert {want.case for _, want in ROUND_TRIP} | {"Tabulated"} == set(CASES)


# a plausible slip per case: a misspelling, a complex parameter given
# without its _re/_im halves, or FresnelNorm's parameter name in place of
# its INI key
MISSPELLED = {"ConstantPhase": "ph0", "LinearPhase": "w_0",
              "GeneralPhase": "theta", "AllConstant": "w12",
              "IsotropicConstant": "z0", "RhoConstant": "rho",
              "LogRho": "t_0", "QuadraticPhase": "eta0_re",
              "FresnelNorm": "w12_0", "Tabulated": "t_end"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_unknown_case_key_is_rejected(tmp_path, capsys, case):
    texts = {want.case: text for text, want in ROUND_TRIP}
    (tmp_path / "samples.csv").write_text(
        "t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B\n"
        + "".join(f"{t},0.5,0.2,0.3,0.1,0,0,0,0,0\n" for t in range(5)))
    texts["Tabulated"] = "[Tabulated]\ndata = samples.csv\n"
    text = texts[case] + f"{MISSPELLED[case]} = 0.3\n"
    out = tmp_path / "run"
    assert main(["factors", "--scenario", write_ini(tmp_path, text),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown keys ['{MISSPELLED[case]}'] in [{case}]" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("row,column", [
    ("0.5,nan,0.2,0.3,0.1,0,0,0,0,0", "w11"),
    ("0.5,,0.2,0.3,0.1,0,0,0,0,0", "w11"),
    ("0.5,0.5,0.2,0.3,0.1,inf,0,0,0,0", "F1"),
    ("0.25,0.5,0.2,0.3,0.1,0,0,0,0,0", "t"),
], ids=["nan", "empty", "inf-drive", "repeated-time"])
def test_refused_table_names_its_file_and_column(tmp_path, capsys, row,
                                                 column):
    rows = [f"{t},0.5,0.2,0.3,0.1,0,0,0,0,0" for t in (0.0, 0.25, 0.75, 1.0)]
    rows.insert(2, row)
    table = tmp_path / "samples.csv"
    table.write_text("t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B\n"
                     + "\n".join(rows) + "\n")
    ini = write_ini(tmp_path, "[Tabulated]\ndata = samples.csv\n")
    out = tmp_path / "run"
    assert main(["factors", "--scenario", ini, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"tabulated file {table}:" in err and f"column {column} " in err
    assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("[F1]\nkind = rotating\namp_re = 0.1\nomega = 1.0\nre = 0.1\n", "re"),
    ("[F2]\nre = 0.1\nvalue = 0.2\n", "value"),
    ("[B]\nkind = cosine\namp = 0.3\nomega = 0.9\nphi = 0.1\n", "phi"),
], ids=["F1", "F2", "B"])
def test_unknown_drive_key_is_rejected(tmp_path, capsys, section, key):
    ini = write_ini(tmp_path, CONSTANT_PHASE_INI + "\n" + section)
    assert main(["factors", "--scenario", ini, "--out", str(tmp_path)]) == 1
    assert f"unknown keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["f1", "Drive", "F3", "b"])
def test_unknown_section_is_rejected(tmp_path, capsys, section):
    # configparser section names are case-sensitive: a drive written [f1]
    # would otherwise leave F1 at zero without a word
    text = ALL_CONSTANT_INI + f"\n[{section}]\nre = 0.1\n"
    out = tmp_path / "run"
    assert main(["factors", "--scenario", write_ini(tmp_path, text),
                 "--out", str(out)]) == 1
    assert f"unknown sections ['{section}']" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_drive_sections_beside_the_case_are_accepted(tmp_path):
    text = (ALL_CONSTANT_INI + "\n[F1]\nre = 0.1\n\n[F2]\nim = 0.2\n"
            "\n[B]\nvalue = 0.3\n")
    got = parse_scenario(write_ini(tmp_path, text))
    assert (got.f1, got.f2, got.b) == (ConstantDrive(0.1 + 0j),
                                       ConstantDrive(0.2j),
                                       ConstantDrive(0.3 + 0j))


def test_factors_command(tmp_path):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    code = main(["factors", "--scenario", ini, "--t-end", "1.0",
                 "--grid", "11", "--out", str(out)])
    assert code == 0
    lines = (out / "factors.csv").read_text().splitlines()
    assert lines[0].startswith("t,re_Lambda,im_Lambda,re_Omega")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(float(v) == 0.0 for v in first[1:7])
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[1:])


def test_factors_deterministic(tmp_path):
    ini = write_ini(tmp_path, CONSTANT_PHASE_INI)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["factors", "--scenario", ini, "--t-end", "0.8",
                     "--grid", "21", "--out", str(out)]) == 0
        outs.append((out / "factors.csv").read_bytes())
    assert outs[0] == outs[1]


def test_factors_past_singularity(tmp_path, capsys):
    ini = write_ini(tmp_path, "[ConstantPhase]\neta0 = 1.0\n")
    out = tmp_path / "run"
    code = main(["factors", "--scenario", ini, "--t-end", "2.0",
                 "--grid", "41", "--out", str(out)])
    assert code == 2
    assert "chart singularity" in capsys.readouterr().err
    rows = (out / "factors.csv").read_text().splitlines()[1:]
    flags = [int(r.rsplit(",", 1)[1]) for r in rows]
    # valid up to the pole near pi/2, invalid afterwards
    assert flags[0] == 1 and flags[-1] == 0
    assert sorted(flags, reverse=True) == flags


def test_smatrix_formats(tmp_path):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    code = main(["smatrix", "--scenario", ini, "--t-end", "1.5",
                 "--grid", "16", "--out", str(out), "--format", "both"])
    assert code == 0
    lines = (out / "smatrix.csv").read_text().splitlines()
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0
    payload = json.loads((out / "smatrix.json").read_text())
    assert payload["case"] == "AllConstant"
    assert len(payload["rows"]) == 16
    assert max(r[-1] for r in payload["rows"]) < 1e-9


def test_evolve_command(tmp_path):
    ini = write_ini(tmp_path, ISOTROPIC_INI)
    out = tmp_path / "run"
    code = main(["evolve", "--scenario", ini, "--t-end", "2.0",
                 "--grid", "9", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "evolve.json").read_text())
    assert payload["case"] == "IsotropicConstant"
    norms = [s["norm2"] for s in payload["samples"]]
    assert abs(norms[0] - 0.16) < 1e-12
    assert max(abs(n - 0.16) for n in norms) < 1e-9


def test_coherent_command(tmp_path):
    ini = write_ini(tmp_path, ISOTROPIC_INI)
    out = tmp_path / "run"
    code = main(["coherent", "--scenario", ini, "--t-end", "2.0",
                 "--grid", "9", "--nmax", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "coherent.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "eigen_residual"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert abs(vals[5] - 0.16) < 1e-9
        assert vals[6] < 1e-7


def test_coherent_refuses_an_amplitude_past_the_cutoff(tmp_path, capsys):
    # |c(t)| = 6 pushes the coherent state past n_max = 8: the truncation
    # guard's error is reported, not raised, and no table is written
    ini = write_ini(tmp_path, ISOTROPIC_INI.replace("Z0_re = 0.4",
                                                    "Z0_re = 6"))
    out = tmp_path / "run"
    code = main(["coherent", "--scenario", ini, "--t-end", "2.0",
                 "--grid", "9", "--nmax", "8", "--out", str(out),
                 "--format", "both"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: displacement tail weight")
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_verify_passes(tmp_path, capsys):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", "1.0",
                 "--nmax", "6", "--steps", "256", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in captured
    assert "operator_fidelity" in captured
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["oracle_convergence", "oracle_unitarity",
                     "smatrix_vs_oracle", "factor_reconstruction",
                     "operator_fidelity"]
    for check in payload["checks"]:
        assert isinstance(check["seconds"], float) and check["seconds"] >= 0.0


def test_verify_passes_near_a_chart_pole(tmp_path, capsys):
    # |Lambda| ~ 1e3 on a valid chart: the assembled operator must still
    # follow the oracle
    ini = write_ini(tmp_path, "[ConstantPhase]\neta0 = 1.0\nphi0 = 0.2\n"
                    "\n[F1]\nre = 0.05\n")
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini,
                 "--t-end", repr(math.pi / 2.0 - 1e-3), "--out", str(out)])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks[-1]["name"] == "operator_fidelity"
    assert checks[-1]["value"] >= 1.0 - 1e-6


def test_verify_detects_corruption(tmp_path, capsys):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", "1.0",
                 "--nmax", "6", "--steps", "256", "--out", str(out),
                 "--corrupt", "factor-sign"])
    assert code == 1
    captured = capsys.readouterr().out
    assert "FAIL  factor_reconstruction" in captured
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False


def test_parser_is_shared_without_leaking_options(tmp_path, capsys):
    # one parser serves every call in a process; an option given to one
    # call must not carry over to the next
    assert twomode.cli._build_parser() is twomode.cli._build_parser()
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    common = ["--scenario", ini, "--t-end", "1.0", "--nmax", "6",
              "--steps", "256", "--out", str(tmp_path / "verify")]
    assert main(["verify", *common, "--corrupt", "factor-sign"]) == 1
    assert "FAIL  factor_reconstruction" in capsys.readouterr().out
    assert main(["verify", *common]) == 0
    assert "FAIL" not in capsys.readouterr().out

    out = tmp_path / "factors"
    argv = ["factors", "--scenario", ini, "--t-end", "0.8", "--grid", "21",
            "--out", str(out), "--format", "both"]
    written = []
    for _ in range(2):
        assert main(argv) == 0
        written.append([(out / name).read_bytes()
                        for name in ("factors.csv", "factors.json")])
    assert written[0] == written[1]


def test_verify_detects_a_wrong_operator(tmp_path, capsys, monkeypatch):
    # U e^{-0.05 i n1} is not U up to a global phase: the operator check,
    # which sees U only through its three test states, must still fail
    assemble = twomode.cli.assemble_U

    def skewed(space, scenario, t, tol):
        n1, _ = number_diagonals(space)
        return assemble(space, scenario, t, tol) * np.exp(-0.05j * n1)

    monkeypatch.setattr(twomode.cli, "assemble_U", skewed)
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", "1.0",
                 "--nmax", "6", "--steps", "256", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr().out
    assert "FAIL  operator_fidelity" in captured
    assert "FAIL  factor_reconstruction" not in captured


def test_verify_flags_coarse_oracle(tmp_path, capsys):
    # with 4 steps the second-order oracle cannot track a time-dependent
    # coupling, and the cross-check must say so
    ini = write_ini(tmp_path, CONSTANT_PHASE_INI)
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", "1.0",
                 "--nmax", "6", "--steps", "4", "--out", str(out)])
    assert code == 1
    assert "FAIL  smatrix_vs_oracle" in capsys.readouterr().out


# The csv/json writers and the per-subcommand output blocks that one
# table writer replaced, kept as the reference for its bytes.

def _reference_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _standard_json(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _standard_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_standard_json(v) for v in value]
    return value


def _reference_json(path, payload):
    # standard JSON: a non-finite float is written as null
    with open(path, "w") as fh:
        json.dump(_standard_json(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _reference_tables(out, command, case, header, rows, singular_time):
    _reference_csv(os.path.join(out, command + ".csv"), header, rows)
    payload = {"case": case, "columns": header, "rows": rows}
    if command == "factors":
        payload = {"case": case, "singular_time": singular_time,
                   "columns": header, "rows": rows}
    _reference_json(os.path.join(out, command + ".json"), payload)


@pytest.mark.parametrize("command,text,t_end", [
    ("factors", "[ConstantPhase]\neta0 = 1.0\n", "2.0"),
    ("factors", CONSTANT_PHASE_INI, "0.8"),
    ("smatrix", ALL_CONSTANT_INI, "1.5"),
    ("coherent", ISOTROPIC_INI, "2.0"),
])
def test_table_formats_keep_their_bytes(tmp_path, monkeypatch, command,
                                        text, t_end):
    ini = write_ini(tmp_path, text)
    tables = []
    writer = twomode.cli._write_csv

    def capture(path, header, rows):
        tables.append((header, rows))
        writer(path, header, rows)

    monkeypatch.setattr(twomode.cli, "_write_csv", capture)
    out = tmp_path / "run"
    code = main([command, "--scenario", ini, "--t-end", t_end, "--grid", "21",
                 "--out", str(out), "--format", "both"])
    [(header, rows)] = tables
    scenario = parse_scenario(ini)
    singular = None
    if command == "factors":
        singular = twomode.solve_riccati_numeric(
            scenario, float(t_end), 1e-10,
            np.linspace(0.0, float(t_end), 21)).singular_time
    assert code == (2 if singular is not None else 0)
    ref = tmp_path / "ref"
    ref.mkdir()
    _reference_tables(str(ref), command, scenario.case, header, rows, singular)
    for suffix in (".csv", ".json"):
        name = command + suffix
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert sorted(os.listdir(out)) == [command + ".csv", command + ".json"]


def test_csv_writer_matches_the_per_value_reference(tmp_path):
    # one prebuilt format string per table writes what formatting each
    # value on its own wrote, the edge values of a double included
    edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
            1.7976931348623157e308, 0.1, 1.0 / 3.0]
    header = ["x", "minus_x", "k"]
    for rows in ([[v, -v, k] for k, v in enumerate(edge)], []):
        twomode.cli._write_csv(tmp_path / "got.csv", header, rows)
        _reference_csv(tmp_path / "want.csv", header, rows)
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


FRESNEL_INI = """\
[FresnelNorm]
eta0 = 0.7
nu = 2.0
"""


@pytest.mark.parametrize("t_end", ["1", "3"])
def test_verify_passes_across_fresnel_kinks(tmp_path, capsys, t_end):
    # the oracle's step-doubling ratio stays near 4 across the kinks of
    # |cos(nu s^2)| (14.2 at t_end 1 and 49.8 at 3 with steps that straddle
    # them)
    ini = write_ini(tmp_path, FRESNEL_INI)
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", t_end,
                 "--out", str(out)])
    assert "FAIL" not in capsys.readouterr().out
    assert code == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert 3.5 <= checks[0]["value"] <= 4.5


def test_verify_passes_on_a_dense_table(tmp_path, capsys):
    # the spline stays C2 at its 160 knots before t_end, so the oracle steps
    # straight across them; laid out between the knots, 64 and 128 steps
    # would both take one step per piece and read a ratio of 1
    ts = np.linspace(0.0, 2.0, 201)
    w12 = (0.14 + 0.03 * np.sin(1.1 * ts)) * np.exp(1j * (0.3 + 0.5 * ts))
    lines = ["t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B"]
    lines += [f"{t:.17g},{0.8 + 0.05 * math.sin(1.3 * t):.17g},"
              f"{0.05 + 0.03 * math.cos(0.9 * t):.17g},{w.real:.17g},"
              f"{w.imag:.17g},0,0,0,0,0" for t, w in zip(ts, w12)]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    ini = write_ini(tmp_path, "[Tabulated]\ndata = samples.csv\n")
    out = tmp_path / "run"
    code = main(["verify", "--scenario", ini, "--t-end", "1.6", "--nmax", "6",
                 "--steps", "64", "--out", str(out)])
    assert "FAIL" not in capsys.readouterr().out
    assert code == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert 3.5 <= checks[0]["value"] <= 4.5


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not standard JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command,text,t_end", [
    ("factors", "[ConstantPhase]\neta0 = 1.0\n", "2.0"),
    ("smatrix", ALL_CONSTANT_INI, "1.5"),
    ("evolve", DRIVEN_INI, "1.5"),
    ("coherent", ISOTROPIC_INI, "2.0"),
    ("verify", ALL_CONSTANT_INI, "1.0"),
])
def test_json_outputs_are_standard_json(tmp_path, capsys, command, text,
                                        t_end):
    # factors past the pole holds NaN rows and verify on a constant case a
    # NaN step-doubling ratio: both are null in JSON and nan in the CSV
    ini = write_ini(tmp_path, text)
    out = tmp_path / "run"
    code = main([command, "--scenario", ini, "--t-end", t_end, "--grid", "21",
                 "--nmax", "6", "--steps", "256", "--format", "both",
                 "--out", str(out)])
    assert code == (2 if command == "factors" else 0)
    names = sorted(p.name for p in out.iterdir() if p.suffix == ".json")
    assert names == [command + ".json"]
    payload = _strict_json((out / names[0]).read_text())
    if command == "factors":
        csv_rows = (out / "factors.csv").read_text().splitlines()[1:]
        assert "nan" in csv_rows[-1].split(",")
        assert None in payload["rows"][-1]
        for csv_row, row in zip(csv_rows, payload["rows"]):
            assert [None if v == "nan" else float(v)
                    for v in csv_row.split(",")] == row
    if command == "verify":
        assert payload["checks"][0]["name"] == "oracle_convergence"
        assert payload["checks"][0]["value"] is None
        assert "oracle_convergence: nan" in capsys.readouterr().out


def test_json_writer_refuses_a_non_finite_value(tmp_path):
    with pytest.raises(ValueError):
        twomode.cli._write_json(str(tmp_path / "out.json"),
                                {"value": math.nan})


@pytest.mark.parametrize("text,message", [
    ("[AllConstant]\nw11 = 0.7\nw11 = 0.3\nw22 = 0.1\n",
     "option 'w11' in section 'AllConstant' already exists"),
    ("w11 = 0.7\n[AllConstant]\nw22 = 0.1\n",
     "File contains no section headers"),
    ("[AllConstant]\nw11 0.7\nw22 = 0.1\n",
     "Source contains parsing errors"),
], ids=["duplicate-key", "no-section-header", "not-key-value"])
def test_malformed_scenario_file_is_an_error(tmp_path, capsys, text,
                                             message):
    ini = write_ini(tmp_path, text)
    out = tmp_path / "run"
    assert main(["factors", "--scenario", ini, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed scenario file {ini}: ")
    assert message in err
    assert not out.exists()


def test_percent_sign_is_read_as_itself(tmp_path, capsys):
    # no interpolation: '50%' is a value that is not a number, not a
    # broken template
    ini = write_ini(tmp_path, "[AllConstant]\nw11 = 50%\nw22 = 0.1\n"
                    "w12_re = 0.1\n")
    out = tmp_path / "run"
    assert main(["factors", "--scenario", ini, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: [AllConstant] w11 must be a finite number, not '50%'\n")
    assert not out.exists()


def test_bad_run_configuration(tmp_path, capsys):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    assert main(["factors", "--scenario", ini, "--grid", "1",
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["factors", "smatrix", "evolve"])
@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_non_finite_t_end_is_rejected(tmp_path, capsys, command, t_end):
    ini = write_ini(tmp_path, ISOTROPIC_INI)
    out = tmp_path / "run"
    assert main([command, "--scenario", ini, "--t-end", t_end,
                 "--out", str(out)]) == 1
    assert "t-end must be positive" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("option,value,message", [
    ("--tol", "0", "tol must lie in (0, 1e-2]"),
    ("--tol", "0.1", "tol must lie in (0, 1e-2]"),
    ("--grid", "1", "grid must have at least 2 points"),
    ("--steps", "0", "steps must be positive"),
    ("--nmax", "0", "nmax must be at least 1"),
])
def test_run_option_is_rejected(tmp_path, capsys, option, value, message):
    ini = write_ini(tmp_path, ISOTROPIC_INI)
    out = tmp_path / "run"
    assert main(["verify", "--scenario", ini, option, value,
                 "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[ConstantPhase]\neta0 = nan\n",
     "[ConstantPhase] eta0 must be a finite number, not 'nan'"),
    ("[ConstantPhase]\neta0 = abc\n",
     "[ConstantPhase] eta0 must be a finite number, not 'abc'"),
    (ALL_CONSTANT_INI + "[F1]\nkind = rotating\namp_re = inf\nomega = 1\n",
     "[F1] amp_re must be a finite number, not 'inf'"),
], ids=["nan", "not-a-number", "inf-drive"])
def test_non_finite_scenario_value_is_rejected(tmp_path, capsys, text,
                                               message):
    # refused when the file is read, before any flow runs or file is written
    out = tmp_path / "run"
    assert main(["factors", "--scenario", write_ini(tmp_path, text),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,message", [
    ("[F1]\nkind = cosine\namp = 0.3\nomega = 0.9\n",
     "unsupported drive kind 'cosine' in [F1]"),
    ("[B]\nkind = rotating\namp_re = 0.1\nomega = 1.0\n",
     "unsupported drive kind 'rotating' in [B]"),
    ("[F2]\nkind = spline\n", "unsupported drive kind 'spline' in [F2]"),
    ("[F1]\nkind = rotating\namp_re = 0.1\n",
     "scenario section [F1] missing key 'omega'"),
    ("[B]\nkind = cosine\nomega = 0.9\n",
     "scenario section [B] missing key 'amp'"),
], ids=["F1-cosine", "B-rotating", "F2-spline", "F1-rotating-no-omega",
        "B-cosine-no-amp"])
def test_bad_drive_section_is_rejected(tmp_path, capsys, section, message):
    ini = write_ini(tmp_path, ALL_CONSTANT_INI + "\n" + section)
    out = tmp_path / "run"
    assert main(["factors", "--scenario", ini, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_drive_kind_defaults(tmp_path):
    got = parse_scenario(write_ini(
        tmp_path, ALL_CONSTANT_INI + "\n[F1]\nkind = rotating\nomega = 0.7\n"
        "\n[B]\n"))
    assert got.f1 == RotatingDrive(0j, 0.7, 0.0)
    assert got.b == ConstantDrive(0j)
    assert got.f2 == ConstantDrive(0j)


def test_evolve_and_coherent_start_from_the_same_amplitudes(tmp_path):
    # both commands start the state from CoherentStateSpec.c_initial, to
    # the last bit
    ini = write_ini(tmp_path, ROUND_TRIP[4][0])
    out = tmp_path / "run"
    for command in ("evolve", "coherent"):
        assert main([command, "--scenario", ini, "--grid", "3",
                     "--out", str(out)]) == 0
    c0 = json.loads((out / "evolve.json").read_text())["c0"]
    first = (out / "coherent.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in first[1:5]] == c0


def test_console_entry_point(tmp_path):
    # The suite runs from source, so no installer has put `twomode` on PATH.
    # Build the launcher an installer would generate from the project's own
    # [project.scripts] entry and run it in a fresh process.
    tomllib = pytest.importorskip("tomllib")
    src = Path(twomode.__file__).resolve().parents[1]
    with open(src.parent / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["twomode"]
    module, attr = entry.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "twomode"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(src), env.get("PYTHONPATH", "")] if p)

    ini = write_ini(tmp_path, ALL_CONSTANT_INI)
    out = tmp_path / "run"
    proc = subprocess.run(
        ["twomode", "factors", "--scenario", ini, "--t-end", "0.5",
         "--grid", "6", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "factors.csv").exists()
