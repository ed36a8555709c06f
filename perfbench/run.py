"""levybarrier benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload regime-fixed-point --seed 1 \
        --seconds 36 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, taken from one traced pass of the
op list, interleaved op by op with one untraced pass.  The lines before it
give the same numbers by name with their units, the environment record and
the op counts.
See perfbench/README.md for what each metric measures.
"""

import os
import sys
import time

T_START = time.perf_counter()
# Single-threaded baseline: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
CLI_OUT = OUT / f"cli-{os.getpid()}"    # solve-aux --out, removed at exit
WORKLOADS = ("regime-fixed-point", "single-regime-battery", "cli-demos")
# Every run measures at least this many passes over its op list; the
# count of ops in them fixes the tail percentile below.  They fit in
# BENCHMARK.json's run_seconds at the speed measured when it was set.
MIN_PASSES = {"single-regime-battery": 4, "cli-demos": 5}
DEFAULT_MIN_PASSES = 2
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: a few ops per workload, for the smoke test")
    p.add_argument("--import-only", action="store_true",
                   help="print the import time and exit (set-up repeats)")
    return p.parse_args(argv)


def _import_time(argv) -> float:
    """The import part of set-up, measured again in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve())]
    cmd += list(sys.argv[1:] if argv is None else argv) + ["--import-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def make_ops(workload: str, seed: int, small: bool):
    import workloads
    if workload == "regime-fixed-point":
        return workloads.regime_ops(seed, small)
    if workload == "single-regime-battery":
        return workloads.battery_ops(seed, small)
    return workloads.cli_ops(seed, small, CLI_OUT)


class Runner:
    """Times ops, checks each one outside its timed span, tallies failures.

    A typed library error (ModelError, NumericsError) or a failed gate
    counts as a failed op; neither stops the run.
    """

    def __init__(self):
        from levybarrier.errors import ModelError, NumericsError
        self.typed_errors = (ModelError, NumericsError)
        self.tracer = None      # set for the traced pass
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.log: list[list[float]] = []    # op times, one list per pass

    def run_op(self, op) -> float:
        """Run one op, check it and return its time."""
        if self.tracer is not None:
            self.tracer.begin_op(op.name)
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except self.typed_errors as e:
            error = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        self.attempted += 1
        if error is None:
            error = op.check(out)
        if error is not None:
            self.failures.append((op.name, error))
        return t1 - t0

    def run_pass(self, ops) -> list[float]:
        times = [self.run_op(op) for op in ops]
        self.log.append(times)
        return times

    def run_paired(self, ops, tracer) -> tuple[list[float], list[float]]:
        """One untraced and one traced pass, interleaved op by op so that a
        drift of the host's speed over seconds falls on both alike.  Every
        other op runs traced first, so neither side always runs cold."""
        plain, traced = [], []
        for i, op in enumerate(ops):
            order = (False, True) if i % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.install()
                    self.tracer = tracer
                    traced.append(self.run_op(op))
                    tracer.uninstall()
                    self.tracer = None
                else:
                    plain.append(self.run_op(op))
        self.log += [plain, traced]
        return plain, traced


def tail(times: list[float], n_min: int) -> tuple[float, float, int]:
    """The highest ladder percentile with at least 10 ops beyond it, its
    value over all ops and the number of ops beyond it.

    The rung is chosen for n_min ops, the count of the minimum number of
    passes, so it does not move when a run fits in one more pass; p50 if
    no rung qualifies.
    """
    import numpy as np
    rung = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n_min * (1.0 - p / 100.0) >= 10:
            rung = p
    value = float(np.percentile(times, rung))
    beyond = sum(t > value for t in times)
    return rung, value, beyond


def measure(args, ops, runner, between_passes) -> dict:
    """Passes over the op list until --seconds is used up, at least
    min_passes; a pass that would end past --seconds is not started.
    between_passes() runs, untimed, after each pass."""
    min_passes = MIN_PASSES.get(args.workload, DEFAULT_MIN_PASSES)
    op_times: list[float] = []
    pass_walls: list[float] = []
    t_begin = time.perf_counter()
    while True:
        times = runner.run_pass(ops)
        op_times += times
        pass_walls.append(sum(times))
        between_passes()
        elapsed = time.perf_counter() - t_begin
        if len(pass_walls) >= min_passes and \
                elapsed + pass_walls[-1] > args.seconds:
            break
    rung, tail_s, beyond = tail(op_times, min_passes * len(ops))
    return {"op_times": op_times, "pass_walls": pass_walls,
            "wall_s": statistics.median(pass_walls),
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail_s, "tail_rung": rung, "tail_beyond": beyond}


SIMULATORS = ("simulate_regime_npv", "simulate_aux_npv",
              "estimate_exit_identities")


def per_layer(names, summary: dict, counts, overhead_s: float) -> dict:
    """Per-layer metrics by name.  A name "<module>.<function>.<key>" reads
    that span's summed key (calls, self_s, or an attribute such as points);
    the rest are derived below."""
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sims = [f"simulate.{fn}" for fn in SIMULATORS]
    derived = {
        "value_grid.ns_per_point": ratio(
            get("value_grid.value_on_grid", "total_s"),
            get("value_grid.value_on_grid", "points"), 1e9),
        "auxiliary.barrier_root.payoff_knots": ratio(
            get("auxiliary.barrier_root", "payoff_knots"),
            get("auxiliary.barrier_root", "calls")),
        "scale.kernel.calls": counts["scale.kernel"],
        "simulate.chunks": sum(get(s, "chunks") for s in sims),
        "simulate.multi_chunk_share": ratio(
            sum(get(s, "multi_chunk") for s in sims),
            sum(get(s, "calls") for s in sims)),
        "simulate.path_steps_per_s": ratio(
            sum(get(s, "path_steps") for s in sims),
            sum(get(s, "total_s") for s in sims)),
        "trace.overhead_s": overhead_s,
    }
    for s in sims:
        derived[f"{s}.ns_per_path_step"] = ratio(
            get(s, "total_s"), get(s, "path_steps"), 1e9)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = get(span, key)
    return out


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "levybarrier").is_dir():
        print(f"levybarrier sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import levybarrier  # noqa: F401
    import workloads  # noqa: F401  (so every library import counts here)
    import_s = time.perf_counter() - T_START
    if args.import_only:
        print(import_s)
        return 0
    small = args.size == "small"
    spec = _spec()
    env = environment()
    OUT.mkdir(exist_ok=True)

    import_times = [import_s]
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = make_ops(args.workload, args.seed, small)
        setup_times.append(time.perf_counter() - t0)
    fingerprint = hashlib.sha256(
        "\n".join(op.name + "\n" + op.text for op in ops).encode()
    ).hexdigest()

    try:
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            tracer.begin_op("setup")
            ops = make_ops(args.workload, args.seed, small)
            tracer.end_op()
            tracer.uninstall()
            runner = Runner()
            plain, traced = runner.run_paired(ops, tracer)
            units = {d["name"]: d["unit"] for d in spec["per_layer"]}
            metrics = per_layer(units, tracer.summary(), tracer.counts,
                                sum(traced) - sum(plain))
            stats = {"untraced_pass_s": sum(plain),
                     "traced_pass_s": sum(traced),
                     "spans": len(tracer.start)}
        else:
            # Set-up is repeated and its median taken: input generation
            # and config parsing above, the import in a fresh interpreter
            # after each pass.  The host's speed shifts over tens of
            # seconds, so the repeats are spread over the run.
            def reimport():
                if len(import_times) < SETUP_REPEATS:
                    import_times.append(_import_time(argv))
            runner = Runner()
            stats = measure(args, ops, runner, reimport)
            metrics = {
                "setup_s": statistics.median(import_times)
                + statistics.median(setup_times),
                "wall_s": stats["wall_s"],
                "op_p50_s": stats["op_p50_s"],
                "op_tail_s": stats["op_tail_s"],
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {d["name"]: d["unit"] for d in spec["end_to_end"]}
    finally:
        shutil.rmtree(CLI_OUT, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{tag}.npz")
    failed = len(runner.failures)
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "inputs_sha256": fingerprint,
              "environment": env, "ops_per_pass": len(ops),
              "attempted": runner.attempted, "failed": failed,
              "failures": runner.failures, "import_times_s": import_times,
              "setup_times_s": setup_times,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record.update({k: v for k, v in stats.items() if k != "op_times"})
    record["op_times_s"] = {op.name: [times[i] for times in runner.log]
                            for i, op in enumerate(ops)}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()
                            if k != "threads")
          + " threads=" + ",".join(f"{k}={v}"
                                   for k, v in env["threads"].items()))
    print(f"inputs_sha256={fingerprint}")
    print(f"ops_per_pass={len(ops)} attempted={runner.attempted} "
          f"failed={failed} fail_ratio={failed / runner.attempted:.6g}")
    if not args.trace:
        print(f"passes={len(stats['pass_walls'])} "
              f"op_tail_s=p{stats['tail_rung']:g} of "
              f"n={len(stats['op_times'])} ops "
              f"({stats['tail_beyond']} beyond it)")
    for name, reason in runner.failures:
        print(f"FAILED {name}: {reason}")
    for k, v in metrics.items():
        print(f"metric {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
