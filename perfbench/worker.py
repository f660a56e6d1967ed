"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced

Times the import of copwidth plus the building of the workload's inputs
(set-up), then, unless --mode setup, runs every task once, timing each call
alone, and checks the outputs after the last task.  A speed probe (speed.py)
runs throughout; each time goes out with the probe's loop time over it.
Prints one JSON object.
run.py starts one worker per pass, so every pass begins from the same
fresh heap.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = ap.parse_args()
    traced = args.mode == "traced"

    from speed import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import copwidth  # noqa: F401  (the package import is part of set-up)
    import workloads

    if traced:
        from tracer import Tracer

        hooks = Tracer()
    else:
        hooks = workloads.Hooks()
    workload = workloads.build(args.workload, args.seed, hooks)
    t1 = time.perf_counter()
    out: dict = {"setup_s": t1 - t0, "setup_probe_s": probe.during(t0, t1)}
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(out))
        return 0

    rss_before = _maxrss_kb()
    results: dict[str, object] = {}
    seconds: list[float] = []
    probes: list[float] = []
    failures: dict[str, str] = {}
    if traced:
        hooks.install()
    for task in workload.tasks:
        if traced:
            hooks.begin_task(task)
        start = time.perf_counter()
        try:
            results[task.name] = task.run()
        except Exception as exc:  # a failed task is counted, and the pass goes on
            failures[task.name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        seconds.append(end - start)
        probes.append(probe.during(start, end))
        if traced:
            hooks.end_task(start, end)
    if traced:
        hooks.uninstall()
    probe.stop()
    peak = _maxrss_kb()

    for task in workload.tasks:
        if task.name in results:
            reason = task.check(results[task.name])
            if reason:
                failures[task.name] = reason
    for names, holds, what in workload.relations:
        if any(nm not in results for nm in names):
            continue
        if not holds(*(results[nm] for nm in names)):
            values = ", ".join(f"{nm}={results[nm]}" for nm in names)
            for nm in names:
                failures.setdefault(nm, f"{what} violated: {values}")

    out["tasks"] = [
        [task.name, secs, probe_s, failures.get(task.name)]
        for task, secs, probe_s in zip(workload.tasks, seconds, probes)
    ]
    out["peak_rss_kb"] = peak
    if traced:
        layers = hooks.summary((peak - rss_before) * 1024)
        layers.update(workload.sizes)
        out["layers"] = layers
        out["replay_failures"] = hooks.replay_failures
        out["spans"] = hooks.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
