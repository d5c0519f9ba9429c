"""The runnable demos under scripts/ still run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_regime_gallery_checks_every_regime():
    # check_bounds on one certificate per regime, at the script's defaults
    result = run_script("regime_gallery.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("check    ok") == 6
