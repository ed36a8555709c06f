"""The fast demos run to the end.

demos/single_regime.py and demos/regime_switching.py build their payoffs,
problems and models through the public constructors, so a constructor that
rejects what they pass shows here.  demos/monte_carlo.py takes about 14 s
and is left out; its payoff=None problem is covered in test_auxiliary.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["single_regime.py", "regime_switching.py"])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / demo)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                          "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
