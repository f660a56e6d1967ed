"""copwidth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/copwidth.  Every pass runs
in its own fresh worker process (worker.py), one process at a time.

--trace 0: set-up-only workers, then passes until --seconds is spent (at
least one), then set-up-only workers again.  Prints every end-to-end metric
of BENCHMARK.json.  Times are rescaled to the reference speed of speed.py.
--trace 1: one untraced pass and two traced passes.  Prints every per-layer
metric; the two traced passes must agree on every count.  Spans go to
perfbench/out/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every task ran
and passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_RUNS = 3  # set-up-only workers before and again after the passes of an untraced run
MIN_PASSES = 1
TRACED_PASSES = 2
RUN_LIMIT_S = 170  # a run gives up before 180 s
MIN_TASKS_FOR_PERCENTILES = 1000


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; its JSON result and its process seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--mode", mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the {RUN_LIMIT_S} s limit") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def task_failures(passes: list[dict]) -> list[str]:
    return [f"{name}: {why}" for p in passes for name, _s, _p, why in p["tasks"] if why]


def task_times(p: dict) -> list[float]:
    """The pass's task times at reference speed."""
    return [at_reference(secs, probe_s) for _n, secs, probe_s, _w in p["tasks"]]


def pass_wall(p: dict) -> float:
    return sum(task_times(p))


def median_pass_wall(passes: list[dict]) -> float:
    """Sum over tasks of each task's median time across the passes."""
    return sum(statistics.median(samples) for samples in zip(*map(task_times, passes)))


def setup_time(result: dict) -> float:
    return at_reference(result["setup_s"], result["setup_probe_s"])


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )


def setup_times(args, deadline) -> list[float]:
    return [setup_time(run_worker(args.workload, args.seed, "setup", deadline)[0])
            for _ in range(SETUP_RUNS)]


def untraced(args, deadline):
    setups = setup_times(args, deadline)
    passes: list[dict] = []
    durations: list[float] = []
    budget_end = time.perf_counter() + args.seconds
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + statistics.median(durations) <= budget_end):
        result, elapsed = run_worker(args.workload, args.seed, "pass", deadline)
        passes.append(result)
        durations.append(elapsed)
    setups += setup_times(args, deadline) + [setup_time(p) for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_pass_wall(passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes), "peak_rss_mb": len(passes)}
    info = {"passes": len(passes), "tasks_per_pass": len(passes[0]["tasks"]),
            "pass_walls_s": [round(pass_wall(p), 4) for p in passes],
            "raw_pass_walls_s": [round(sum(t[1] for t in p["tasks"]), 4) for p in passes]}
    if len(passes[0]["tasks"]) >= MIN_TASKS_FOR_PERCENTILES:
        lat = [secs * 1e3 for p in passes for secs in task_times(p)]
        cuts = statistics.quantiles(lat, n=100)
        info["task_p50_ms"] = {"value": cuts[49], "unit": "ms", "samples": len(lat)}
        info["task_p99_ms"] = {"value": cuts[98], "unit": "ms", "samples": len(lat)}
    return values, samples, passes, info, []


def solve_signature(run: dict) -> list[tuple]:
    return [(s["name"], s["k"], s["winner"], s["states"])
            for s in run["spans"] if s["name"].startswith("games.")]


def traced(args, spec, deadline):
    plain, _ = run_worker(args.workload, args.seed, "pass", deadline)
    runs = [run_worker(args.workload, args.seed, "traced", deadline)[0]
            for _ in range(TRACED_PASSES)]
    errors = [f"witness replay: {r}" for run in runs for r in run["replay_failures"]]
    first = runs[0]["layers"]
    for other in runs[1:]:
        for name, value in first.items():
            if isinstance(value, int) and other["layers"][name] != value:
                errors.append(f"count {name} differs between traced passes: "
                              f"{value} vs {other['layers'][name]}")
        if solve_signature(other) != solve_signature(runs[0]):
            errors.append("per-k solve states differ between traced passes")
    values = {}
    for name, m in spec.items():
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(pass_wall(r) for r in runs) / pass_wall(plain)
        elif m["unit"] == "count":
            values[name] = first.get(name, 0)
        else:
            values[name] = statistics.median(r["layers"].get(name, 0) for r in runs)
    samples = {name: TRACED_PASSES for name in spec}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "passes": [{"layers": r["layers"], "spans": r["spans"]} for r in runs]}))
    info = {"trace_file": str(trace_file.relative_to(ROOT))}
    return values, samples, [plain] + runs, info, errors


def main() -> int:
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec_doc["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "copwidth" / "__init__.py").is_file():
        print(f"error: no copwidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in spec_doc["per_layer" if args.trace else "end_to_end"]}

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            values, samples, passes, info, errors = traced(args, spec, deadline)
        else:
            values, samples, passes, info, errors = untraced(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed_tasks = task_failures(passes)
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = len(failed_tasks) + len(errors)
    info.update(workload=args.workload, seed=args.seed, attempted=attempted, failed=failed,
                fail_ratio=failed / attempted, src_lines=src_lines())
    for line in failed_tasks + errors:
        print(f"FAIL {line}", file=sys.stderr)
    for name, m in spec.items():
        value = values[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:36s} {shown} {m['unit']:6s} samples={samples[name]}")
    print("info " + json.dumps(info))
    metrics = {name: {"value": values[name], "unit": m["unit"]} for name, m in spec.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
