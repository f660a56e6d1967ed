"""The benchmark harness in perfbench/ calls the package from outside it:
its workloads import public names, and its tracer wraps the solvers and
replays their witnesses (perfbench/README.md).  These tests fail when a
change to the package breaks that contract, which otherwise shows only in
a traced benchmark run."""

import json
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest

from copwidth import GameConfig, Variant, gen_switch_all, gen_zadeh, measure

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    import workloads

    return workloads, tracer


def test_every_benchmark_workload_builds(perfbench):
    workloads, _ = perfbench
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert names
    for name in names:
        assert workloads.build(name, 1, workloads.Hooks()).tasks, name


def test_game_config_still_names_the_monotone_game():
    # the tracer replays witnesses with config.require_monotone; every game
    # is monotone, so it is a constant and not a field a caller can set
    config = GameConfig(Variant.KW, 2)
    assert config.require_monotone is True and GameConfig.require_monotone is True
    assert [f.name for f in fields(GameConfig)] == ["variant", "cops"]
    with pytest.raises(TypeError):
        GameConfig(Variant.KW, 2, False)


def test_traced_solves_replay_their_witnesses(perfbench):
    workloads, tracer = perfbench
    hooks = tracer.Tracer()
    hooks.install()
    try:
        for gen in (gen_switch_all, gen_zadeh):
            g = gen(1)
            for variant in Variant:
                task = workloads.Task(f"{variant.value}:{gen.__name__}", "games",
                                      partial(measure, g, variant))
                hooks.begin_task(task)
                start = time.perf_counter()
                task.run()
                hooks.end_task(start, time.perf_counter())
    finally:
        hooks.uninstall()
    assert hooks.replay_failures == []
    kinds = {s["name"] for s in hooks.spans if s["name"].startswith("games.")}
    assert kinds == {"games.visible", "games.invisible", "games.ent"}
