"""Spans and counters around the public functions of ``levybarrier``.

The library imports its functions by name (``from .value_grid import
value_on_grid``), so a call from ``regime`` goes through ``regime``'s own
binding.  ``install`` therefore replaces every binding of a wrapped function
in every loaded ``levybarrier`` module, found by object identity, not just
the one in the defining module.

A span is recorded only while an op (or the traced set-up) is current, so
correctness checks that call library code between ops leave no trace.
Spans are kept in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _sim_config(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[-1]


def _sim_attrs(n_sets: int):
    """Nominal path-steps and chunk count of one simulator call; the exit
    identities simulate two path sets (free and reflected) per chunk."""
    def attrs(tracer, args, kwargs, out):
        from levybarrier.simulate import _CHUNK
        cfg = _sim_config(args, kwargs)
        steps = int(math.ceil(cfg.t_max / cfg.dt))
        chunks = -(-cfg.n_paths // _CHUNK)
        return {"path_steps": n_sets * cfg.n_paths * steps,
                "chunks": chunks, "multi_chunk": int(chunks > 1)}
    return attrs


def _solve_attrs(tracer, args, kwargs, out):
    x_max = kwargs.get("x_max")
    base = x_max if x_max is not None else tracer.last_x_max
    return {"iterations": out.iterations,
            "regrows": int(round(math.log2(out.value.grid[-1] / base)))}


def _x_max_attrs(tracer, args, kwargs, out):
    tracer.last_x_max = out
    return None


# (module, function, attrs) of every spanned function.  levy and errors get
# no span: their cost sits inside scale.build_scale_evaluator.
SPANNED = (
    ("config", "parse_config", None),
    ("config", "regime_model_from", None),
    ("cli", "main", None),
    ("regime", "solve", _solve_attrs),
    ("regime", "apply_T_sup", None),
    ("regime", "hat_operator", None),
    ("regime", "default_x_max", _x_max_attrs),
    ("payoff", "concavify", None),
    ("payoff", "evaluate", None),
    ("value_grid", "value_on_grid",
     lambda t, a, k, out: {"points": len(a[2])}),
    ("auxiliary", "barrier_root",
     lambda t, a, k, out: {"payoff_knots": len(a[0].payoff.xs)}),
    ("auxiliary", "hjb_residual", None),
    ("auxiliary", "value", None),
    ("auxiliary", "dominance_gap", None),
    ("scale", "build_scale_evaluator", None),
    ("scale", "verify_laplace_transform", None),
    ("simulate", "simulate_regime_npv", _sim_attrs(1)),
    ("simulate", "simulate_aux_npv", _sim_attrs(1)),
    ("simulate", "estimate_exit_identities", _sim_attrs(2)),
)
# Scale-function kernels are called far too often for a span each; they are
# counted only, under one name.
COUNTED = (("scale", "W"), ("scale", "Z"), ("scale", "Zbar"),
           ("scale", "W_deriv"))
KERNEL = "scale.kernel"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.op_labels: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self.last_x_max = float("nan")
        self._bindings: list = []   # (module, name, original, wrapper)

    # -- op scope ---------------------------------------------------------
    def begin_op(self, label: str) -> None:
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1

    def end_op(self) -> None:
        self._op = None

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn, attrs):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if attrs is not None:
                extra = attrs(tracer, args, kwargs, out)
                if extra:
                    tracer.attrs[idx] = extra
            return out
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every public function listed above, in every loaded
        levybarrier module that holds it."""
        if not self._bindings:
            import levybarrier.cli  # noqa: F401  (not imported by the package)
            import levybarrier.config  # noqa: F401
            mods = [m for n, m in list(sys.modules.items())
                    if n == "levybarrier" or n.startswith("levybarrier.")]
            targets = [(mod, fn, f"{mod}.{fn}", attrs)
                       for mod, fn, attrs in SPANNED]
            targets += [(mod, fn, None, None) for mod, fn in COUNTED]
            for mod, fn, span_name, attrs in targets:
                orig = getattr(sys.modules[f"levybarrier.{mod}"], fn)
                wrapper = (self._counter(KERNEL, orig) if span_name is None
                           else self._span(span_name, orig, attrs))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._bindings.append((m, key, orig, wrapper))
        for m, key, _, wrapper in self._bindings:
            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        """Put the library's own functions back."""
        for m, key, orig, _ in self._bindings:
            setattr(m, key, orig)

    # -- analysis ---------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed attrs.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in this single-threaded program, so
        the children never overlap.
        """
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {"calls": int(sel.sum()),
                       "total_s": float(dur[sel].sum()),
                       "self_s": float(self_t[sel].sum())}
        for idx, extra in self.attrs.items():
            row = out[self.names[self.name[idx]]]
            for k, v in extra.items():
                row[k] = row.get(k, 0) + v
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), ops=np.array(self.op_labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))
