"""Every library name the benchmark's traced run reads must exist.

perfbench/tracing.py names its targets as (module, function) strings and
reads simulate._CHUNK and SimConfig fields, so renaming or deleting one
would otherwise break only `run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from levybarrier import SimConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # load the harness module read-only: no bytecode cache is written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_traced_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    targets = [(mod, fn) for mod, fn, _ in tracing.SPANNED]
    targets += list(tracing.COUNTED)
    assert len(targets) > 20
    missing = [f"{mod}.{fn}" for mod, fn in targets
               if not callable(getattr(
                   importlib.import_module(f"levybarrier.{mod}"), fn, None))]
    assert missing == []


def test_simulator_attrs_read_the_config(tracing):
    # 250,001 paths are 2 full chunks of 100,000 and one of 50,001
    cfg = SimConfig(n_paths=250_001, dt=0.01, t_max=20.0, rng_seed=0)
    for n_sets in (1, 2):
        attrs = tracing._sim_attrs(n_sets)
        for args, kwargs in (((cfg,), {}), ((), {"config": cfg})):
            assert attrs(None, args, kwargs, None) == {
                "path_steps": n_sets * 250_001 * 2000, "chunks": 3,
                "multi_chunk": 1}
