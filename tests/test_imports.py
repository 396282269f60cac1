"""The import contract: `import twomode, twomode.cli` loads NumPy and the
package, and each SciPy module loads only where a case or subcommand first
uses it; the subcommands on the printed cases load no `numpy.ma` either.
The test modules import SciPy themselves, so every check runs in a fresh
interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twomode
from twomode.cli import main

SRC = str(Path(twomode.__file__).resolve().parents[1])

# runs main() on each argument list of its first JSON argument in turn
# and prints, after each, the exit code and the modules loaded so far that
# are its second argument (default scipy) or lie inside it
PROBE = """\
import json, sys
from twomode.cli import main
top = sys.argv[2] if len(sys.argv) > 2 else "scipy"
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    loaded = sorted(m for m in sys.modules
                    if m == top or m.startswith(top + "."))
    print(json.dumps([code, loaded]))
"""

INIS = {
    "ConstantPhase": "[ConstantPhase]\neta0 = 1.0\nphi0 = 0.3\nw11 = 0.2\n"
                     "w22 = 0.05\n",
    "LinearPhase": "[LinearPhase]\neta0 = 0.8\nw0 = 0.5\nphi0 = 0.1\n",
    "GeneralPhase": "[GeneralPhase]\neta0 = 0.8\nw0 = 0.5\ntheta0 = 1.0\n",
    "AllConstant": "[AllConstant]\nw11 = 0.7\nw22 = 0.3\nw12_re = 0.25\n"
                   "w12_im = 0.1\n\n[F1]\nkind = rotating\namp_re = 0.1\n"
                   "omega = 1.0\n",
    "RhoConstant": "[RhoConstant]\nrho0 = 0.6\neta0 = 0.8\nw0 = 0.5\n"
                   "z0_re = 0.3\n",
    "IsotropicConstant": "[IsotropicConstant]\nrho0 = 0.7\nz0_re = 0.4\n",
    "FresnelNorm": "[FresnelNorm]\neta0 = 0.7\nnu = 2.0\n",
    "ConstantPhasePole": "[ConstantPhase]\neta0 = 1.0\n",
    "IsotropicPole": "[IsotropicConstant]\nrho0 = 0.7853981633974483\n",
    "Tabulated": "[Tabulated]\ndata = samples.csv\n",
}

# the five cases with a printed S block
PRINTED = ("ConstantPhase", "LinearPhase", "GeneralPhase", "AllConstant",
           "RhoConstant")

SAMPLES = "t,w11,w22,re_w12,im_w12,re_F1,im_F1,re_F2,im_F2,B\n" + "".join(
    f"{0.25 * k},{0.5 + 0.01 * k},0.2,0.3,{0.05 * k},0.1,0,0,0,0\n"
    for k in range(9))


def _cold(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [SRC, env.get("PYTHONPATH", "")] if p)
    proc = subprocess.run([sys.executable, "-c", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scenario(tmp_path, name):
    (tmp_path / "samples.csv").write_text(SAMPLES)
    path = tmp_path / f"{name}.ini"
    path.write_text(INIS[name])
    return str(path)


def test_import_loads_no_scipy(tmp_path):
    out = _cold(tmp_path, "import sys, twomode, twomode.cli; print(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]\n"


# (command, case, --t-end, exit code): every subcommand on the printed
# cases, and factors past the ConstantPhase pole, which places the pole
CHARTS = [(command, case, "1.0", 0) for command in ("smatrix", "evolve",
                                                    "factors")
          for case in PRINTED] + [("factors", "ConstantPhasePole", "2.0", 2)]
NO_SCIPY_RUNS = CHARTS + [("coherent", "IsotropicConstant", "1.0", 0),
                          ("coherent", "RhoConstant", "1.0", 0),
                          ("factors", "IsotropicPole", "4.0", 2)]


def _probe_runs(tmp_path, runs, top="scipy"):
    # one process runs them all: a module, once loaded, stays loaded, so the
    # first run that reports one is the run that loaded it
    argvs = [[command, "--scenario", _scenario(tmp_path, case), "--t-end",
              t_end, "--grid", "11", "--out", str(tmp_path / command / case)]
             for command, case, t_end, _ in runs]
    lines = _cold(tmp_path, PROBE, json.dumps(argvs), top).splitlines()
    assert [json.loads(line) for line in lines] == [
        [code, []] for *_, code in runs]


def test_subcommands_load_no_scipy(tmp_path):
    _probe_runs(tmp_path, NO_SCIPY_RUNS)


def test_subcommands_load_no_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call; the
    # flows merge their step edges without them
    _probe_runs(tmp_path, CHARTS, "numpy.ma")


@pytest.mark.parametrize("command,case,t_end,code,module,files", [
    ("smatrix", "Tabulated", "1.5", 0, "scipy.interpolate",
     ["smatrix.csv", "smatrix.json"]),
    ("smatrix", "FresnelNorm", "1.5", 0, "scipy.special",
     ["smatrix.csv", "smatrix.json"]),
    ("verify", "AllConstant", "1.0", 0, "scipy.sparse", ["verify.json"]),
    ("factors", "FresnelNorm", "1.5", 0, "scipy.special",
     ["factors.csv", "factors.json"]),
])
def test_lazy_path_matches_the_warm_process(tmp_path, capsys, command, case,
                                            t_end, code, module, files):
    # the SciPy module is first loaded inside the command, and the output
    # is what the same command writes in a process that had it loaded
    ini = _scenario(tmp_path, case)
    own = (["--nmax", "6", "--steps", "256"] if command == "verify"
           else ["--format", "both"])
    argv = [command, "--scenario", ini, "--t-end", t_end, "--grid", "21",
            *own]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    lines = _cold(tmp_path, PROBE,
                  json.dumps([argv + ["--out", str(cold)]])).splitlines()
    got_code, loaded = json.loads(lines[-1])
    assert got_code == code
    assert module in loaded
    assert main(argv + ["--out", str(warm)]) == code
    assert lines[:-1] == capsys.readouterr().out.splitlines()
    assert sorted(os.listdir(cold)) == sorted(os.listdir(warm)) == files
    for name in files:
        got, want = (cold / name).read_bytes(), (warm / name).read_bytes()
        if name == "verify.json":
            # each check's seconds is a wall time; everything else matches
            got, want = _without_seconds(got), _without_seconds(want)
        assert got == want


def _without_seconds(text):
    payload = json.loads(text)
    del payload["setup_seconds"]
    for check in payload["checks"]:
        del check["seconds"]
    return payload


# runs main() on its JSON argument list with the CLI's clock recording the
# modules loaded at each reading, and prints the exit code and, for each
# reading after the second, the modules loaded since the one before it
CLOCK_PROBE = """\
import json, sys, time, types
from twomode import cli
readings = []
def perf_counter():
    readings.append(set(sys.modules))
    return time.perf_counter()
cli.time = types.SimpleNamespace(perf_counter=perf_counter)
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, [sorted(now - before) for before, now
                         in zip(readings[1:], readings[2:])]]))
"""


@pytest.mark.parametrize("case,t_end", [("AllConstant", "1.0"),
                                        ("FresnelNorm", "1.5"),
                                        ("Tabulated", "1.5")])
def test_verify_loads_its_modules_before_the_first_check(tmp_path, case,
                                                         t_end):
    # the clock reads at the start, after the setup and after each of the
    # five checks; no check loads a module, so none of their seconds holds
    # an import (FresnelNorm to 1.5 crosses a kink of |cos(nu s^2)|)
    argv = ["verify", "--scenario", _scenario(tmp_path, case), "--t-end",
            t_end, "--grid", "11", "--nmax", "6", "--steps", "256",
            "--out", str(tmp_path / "verify")]
    code, loaded = json.loads(
        _cold(tmp_path, CLOCK_PROBE, json.dumps(argv)).splitlines()[-1])
    assert code == 0
    assert loaded == [[]] * 5
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["setup_seconds"] >= 0.0
