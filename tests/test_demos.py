"""The demos run to the end, under the warning filter the suite uses.

demos/single_regime.py and demos/regime_switching.py build their payoffs,
problems and models through the public constructors, so a constructor that
rejects what they pass shows here.  demos/monte_carlo.py also calls every
simulator, in about 14 s, so it is marked slow.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "single_regime.py", "regime_switching.py",
    pytest.param("monte_carlo.py", marks=pytest.mark.slow)])
def test_demo_runs(demo):
    # -W error, as pyproject.toml's filterwarnings = ["error"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
