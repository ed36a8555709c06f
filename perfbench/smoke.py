"""Smoke test of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and passes its correctness gates,
that two traced runs at one seed print every per-layer metric with equal
counts, and, for the two workloads with generated inputs, that another
seed changes those inputs.  Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that count work rather than time it; they must repeat
# exactly between two runs at one seed.
COUNT_SUFFIXES = (".calls", ".iterations", ".regrows", ".points",
                  ".path_steps", ".chunks", ".payoff_knots")
GENERATED = ("regime-fixed-point", "single-regime-battery")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def fingerprint(stdout: str) -> str:
    return next(ln for ln in stdout.splitlines()
                if ln.startswith("inputs_sha256="))


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_metrics(result: dict, stdout: str, specs, tag: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{tag}: all ops pass their gates")
    printed = dict(ln[len("metric "):].split(" = ", 1)
                   for ln in stdout.splitlines() if ln.startswith("metric "))
    wrong = [s["name"] for s in specs
             if result["metrics"].get(s["name"], {}).get("unit") != s["unit"]
             or not printed.get(s["name"], "").endswith(" " + s["unit"])]
    check(not wrong, f"{tag}: {len(specs)} metrics printed with their units"
          + (f" (wrong: {', '.join(wrong)})" if wrong else ""))
    check(set(result["metrics"]) == {s["name"] for s in specs},
          f"{tag}: no metric beyond BENCHMARK.json")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        result, out = run(name, 1, 0)
        check_metrics(result, out, SPEC["end_to_end"], f"{name} trace 0")
        a, out_a = run(name, 1, 1)
        b, _ = run(name, 1, 1)
        check_metrics(a, out_a, SPEC["per_layer"], f"{name} trace 1")
        counts = [k for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)]
        same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"]
                   for k in counts)
        check(same, f"{name}: {len(counts)} counts repeat at one seed")
        if name in GENERATED:
            _, out_other = run(name, 2, 0)
            check(fingerprint(out) != fingerprint(out_other),
                  f"{name}: another seed changes the generated inputs")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
