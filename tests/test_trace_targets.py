"""Every library function the benchmark's traced run wraps must exist.

perfbench/tracing.py names its targets as (module, function) strings, so
renaming or deleting one would otherwise break only `run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve(monkeypatch):
    # load the harness module read-only: no bytecode cache is written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_traced_targets", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, fn) for mod, fn, _ in tracing.SPANNED]
    targets += list(tracing.COUNTED)
    assert len(targets) > 20
    missing = [f"{mod}.{fn}" for mod, fn in targets
               if not callable(getattr(
                   importlib.import_module(f"levybarrier.{mod}"), fn, None))]
    assert missing == []
