"""Tracing for the benchmark's traced run.

The tracer wraps package bindings from outside the package, the way the
package itself looks them up, so no file of the package changes:

- solve_visible, solve_invisible and solve_entanglement in
  copwidth.pursuit.games, which measure() calls once per cop count k: one
  span per solve with k, winner and states;
- reach_mask and symmetric_closure in the games and certificates
  namespaces: calls and seconds in aggregate, because reach_mask runs
  millions of times per solve;
- the chase-strategy callable handed to verify_ent_strategy: positions
  asked.

Spans stay in memory and go out with the pass result.  Every winning-k
witness is replayed after its task, outside the task's span and with the
wrappers removed: visible strategies with replay_cop_strategy, entanglement
strategies with verify_ent_strategy, invisible placement sequences with
simulate_sweep.
"""

from __future__ import annotations

import statistics
import time

import copwidth.pursuit.certificates as certificates
import copwidth.pursuit.games as games
from copwidth.graphs import bits_of, mask_of
from copwidth.pursuit.certificates import (
    replay_cop_strategy,
    simulate_sweep,
    verify_ent_strategy,
)
from copwidth.pursuit.games import Winner

from workloads import Hooks

SOLVERS = {
    "solve_visible": "visible",
    "solve_invisible": "invisible",
    "solve_entanglement": "ent",
}
COUNTED = ("reach_mask", "symmetric_closure")
NAMESPACES = (games, certificates)


class Tracer(Hooks):
    def __init__(self):
        super().__init__()
        self.spans: list[dict] = []
        self.totals = {name: [0, 0.0] for name in COUNTED}  # [calls, seconds]
        self.positions = 0
        self.replay_failures: list[str] = []
        self._pending: list[tuple] = []
        self._parent = None
        self._saved: list[tuple] = []

    # -- set-up hook ------------------------------------------------------

    def chase(self, strategy):
        def counted(placement, robber):
            self.positions += 1
            return strategy(placement, robber)

        return counted

    # -- bindings -----------------------------------------------------------

    def install(self) -> None:
        for name, kind in SOLVERS.items():
            self._patch(games, name, self._solve_wrapper(kind, getattr(games, name)))
        for name in COUNTED:
            for module in NAMESPACES:
                if hasattr(module, name):
                    self._patch(module, name, self._counter(self.totals[name], getattr(module, name)))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, module, name, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    @staticmethod
    def _counter(acc, fn):
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            acc[1] += clock() - t0
            acc[0] += 1
            return out

        return wrapper

    def _solve_wrapper(self, kind, fn):
        def wrapper(graph, arg, **kwargs):
            t0 = time.perf_counter()
            out = fn(graph, arg, **kwargs)
            t1 = time.perf_counter()
            k = arg if kind == "ent" else arg.cops
            self._span(f"games.{kind}", t0, t1, k=k, winner=out.winner.value, states=out.states)
            if out.winner is Winner.COPS:
                self._pending.append((kind, graph, arg, out.witness))
            return out

        return wrapper

    # -- spans --------------------------------------------------------------

    def _span(self, name, start, end, **attrs) -> int:
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "parent": self._parent, "name": name, "start": start, "end": end, **attrs}
        )
        return sid

    def begin_task(self, task) -> None:
        self._parent = self._span(task.layer, time.perf_counter(), None, task=task.name)

    def end_task(self, start: float, end: float) -> None:
        span = self.spans[self._parent]
        span["start"], span["end"] = start, end
        self._parent = None
        self.uninstall()
        try:
            for item in self._pending:
                reason = _replay(*item)
                if reason:
                    self.replay_failures.append(f"{span['task']}: {reason}")
        finally:
            self._pending.clear()
            self.install()

    # -- per-layer summary ----------------------------------------------------

    def summary(self, rss_growth_bytes: int) -> dict:
        tasks = [s for s in self.spans if s["parent"] is None]
        solves = [s for s in self.spans if s["name"].startswith("games.")]
        wall = sum(s["end"] - s["start"] for s in tasks)
        out = {
            "wall_s": wall,
            "graphs.reach_mask.calls": self.totals["reach_mask"][0],
            "graphs.reach_mask.s": self.totals["reach_mask"][1],
            "graphs.reach_mask.share": self.totals["reach_mask"][1] / wall if wall else 0.0,
            "graphs.symmetric_closure.calls": self.totals["symmetric_closure"][0],
            "families.gen.s": self.gen_s,
            "families.gen.vertices": self.gen_vertices,
            "certificates.ent_chase.positions": self.positions,
        }
        for kind, unit in (("visible", "nodes"), ("invisible", "states"), ("ent", "nodes")):
            spans = [s for s in solves if s["name"] == f"games.{kind}"]
            states = sum(s["states"] for s in spans)
            secs = sum(s["end"] - s["start"] for s in spans)
            out[f"games.{kind}.solves"] = len(spans)
            out[f"games.{kind}.{unit}"] = states
            out[f"games.{kind}.s"] = secs
            out[f"games.{kind}.{unit}_per_s"] = states / secs if secs else 0.0
            won = sum(s["states"] for s in spans if s["winner"] == "cops")
            out[f"games.{kind}.{unit}_winning_k"] = won
            out[f"games.{kind}.{unit}_losing_k"] = states - won
        largest = max((s["states"] for s in solves), default=0)
        out["games.bytes_per_state"] = rss_growth_bytes / largest if largest else 0.0
        out["games.solve_ms_p50"] = (
            statistics.median((s["end"] - s["start"]) * 1e3 for s in solves) if solves else 0.0
        )
        for layer in ("certificates.sweep", "certificates.ent_chase", "certificates.replay",
                      "cliquewidth.verify"):
            out[f"{layer}.s"] = sum(s["end"] - s["start"] for s in tasks if s["name"] == layer)
        return out


def _replay(kind, graph, arg, witness) -> str | None:
    """Check one winning-k witness; the failure reason, or None."""
    try:
        if kind == "visible":
            ok = replay_cop_strategy(graph, arg.variant, arg.cops, witness.moves, arg.require_monotone)
            return None if ok else f"{arg.variant.value} k={arg.cops}: strategy replay failed"
        if kind == "ent":
            moves = witness.moves

            def strategy(placement, robber):
                return frozenset(bits_of(moves[(mask_of(placement), robber)]))

            rep = verify_ent_strategy(graph, strategy, arg)
            return None if rep.ok else f"ent k={arg}: {rep.reason}"
        rep = simulate_sweep(graph, witness, arg.variant, require_monotone=arg.require_monotone)
        too_big = [i for i, p in enumerate(witness) if len(p) > arg.cops]
        if rep.cleared and rep.monotone and not too_big:
            return None
        return (
            f"{arg.variant.value} k={arg.cops}: sweep cleared={rep.cleared}"
            f" monotone={rep.monotone} oversized steps={too_big[:3]}"
        )
    except Exception as exc:  # a replay that raises is a failed check, not a crash
        return f"{kind} replay raised {type(exc).__name__}: {exc}"
