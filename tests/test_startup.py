"""A fresh interpreter runs the certificate subcommands without numpy.

numpy is imported by the functions that build arrays, so `constants`,
`sweep`, their refusals, usage errors and `--help` start without paying
for it, as does the triple curve of `reduction` on a list of floats,
while `import meangap` still loads every layer module (the benchmark's
tracer reads them from sys.modules).  The command line is parsed by the
standard library: no subcommand loads click.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meangap.means import ExponentPair
from meangap.profile import ProfileParams, Side

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    (["constants", "--n", "4", "--alpha", "2"], 0),
    (["sweep", "--n-max", "5", "--alpha", "2"], 0),
    (["constants", "--n", "4", "--alpha", "3/4"], 3),  # W = 1 at the far edge
    (["constants", "--n", "4", "--alpha", "1"], 2),
    (["--help"], 0),
]

# Side points where math raises and the one point runs again through
# numpy; none of them has a finite value
FALLBACK = [
    (3, 60.0, "W", 1e-10),  # expm1 of (1 - alpha) log s overflows: inf
    (3, 2.0, "f", 1.0 / 3.0),  # the center, 0/0: nan
]

SCRIPT = """
import json, sys

import meangap

layers = sorted(m for m in sys.modules if m.startswith("meangap."))
from meangap.cli import main

codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args, prog_name="meangap")
    except SystemExit as exc:
        codes.append(exc.code)
numpy_after_cli = "numpy" in sys.modules
click_after_cli = "click" in sys.modules

from meangap.reduction import curve_params, curve_table

cp = curve_params(83.2966, 1112.99)
curve_rows = len(curve_table([cp.t_lo, (cp.t_lo + cp.t_hi) / 2.0, cp.t_hi], cp, 2.0)["h"])
numpy_after_curve = "numpy" in sys.modules

from meangap.means import ExponentPair
from meangap.profile import ProfileParams, Side

values = [repr(getattr(Side(ProfileParams(n, ExponentPair.from_alpha(a)), "left"), f)(t))
          for n, a, f, t in json.loads(sys.argv[2])]
print(json.dumps({"layers": layers, "codes": codes, "numpy_after_cli": numpy_after_cli,
                  "click_after_cli": click_after_cli, "curve_rows": curve_rows,
                  "numpy_after_curve": numpy_after_curve,
                  "values": values, "numpy_after_fallback": "numpy" in sys.modules}))
"""


def tracer_layers():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([a for a, _ in COMMANDS]),
         json.dumps(FALLBACK)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.rstrip().splitlines()[-1])


def test_certificate_commands_run_without_numpy(fresh):
    assert fresh["codes"] == [code for _, code in COMMANDS]
    assert fresh["numpy_after_cli"] is False


def test_certificate_commands_run_without_click(fresh):
    assert fresh["codes"] == [code for _, code in COMMANDS]
    assert fresh["click_after_cli"] is False


def test_curve_runs_without_numpy(fresh):
    assert fresh["curve_rows"] == 3
    assert fresh["numpy_after_curve"] is False


def test_import_loads_every_traced_layer(fresh):
    assert {f"meangap.{layer}" for layer in tracer_layers()} <= set(fresh["layers"])


def test_side_fallback_imports_numpy_and_matches(fresh):
    want = [repr(getattr(Side(ProfileParams(n, ExponentPair.from_alpha(a)), "left"), f)(t))
            for n, a, f, t in FALLBACK]
    assert want == ["inf", "nan"]
    assert fresh["values"] == want
    assert fresh["numpy_after_fallback"] is True
