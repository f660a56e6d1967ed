"""The benchmark's workloads: inputs built from a seed, timed tasks and
output checks.

Every workload is a list of tasks.  A task is one call into the package
whose duration is timed; its check runs after the pass, outside the timed
region.  The harness uses only public functions of copwidth.graphs,
copwidth.families, copwidth.pursuit.games, copwidth.pursuit.certificates
and copwidth.cliquewidth.

The family workloads (exact-visible, exact-invisible, certify) ignore the
seed: their inputs are the fixed family instances.  small-graphs draws its
graphs from the seed with the package's own seeded generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from copwidth.cliquewidth import (
    Connect,
    Recolour,
    Union,
    build_switch_all_expr,
    build_zadeh_expr,
    verify_family_expr,
)
from copwidth.families import FamilyId, gen_random_digraph, gen_switch_all, gen_zadeh
from copwidth.pursuit.certificates import (
    dpw_sweep_certificate_switch_all,
    ent_strategy_switch_all,
    entanglement_is_one,
    replay_cop_strategy,
    verify_ent_strategy,
    verify_sweep,
)
from copwidth.pursuit.games import GameConfig, Variant, Winner, measure, solve_visible

# Per-solve state budget.  The largest single solve at the seed commit
# explores about 0.93M states (kw with 2 cops on zadeh(1)); the cap keeps a
# runaway solve to roughly 1 GB instead of the package's 50M default.
BUDGET = 4_000_000

# Certificate and expression checks run over n = 1..CERTIFY_MAX_N.  The
# chase-strategy check grows faster than linearly in n (about 13x from
# n = 32 to n = 64), so 32 keeps one pass near three seconds.
CERTIFY_MAX_N = 32

# small-graphs: GRAPHS_PER_CELL seeded digraphs for each vertex count and
# edge probability, each solved for all five measures.  A few hard 7-vertex
# graphs carry much of a pass, so with 20 per cell the pass time of one seed
# differed from another's by up to 15%; 40 halves the variance.
SMALL_SIZES = (4, 5, 6, 7)
SMALL_PROBS = (0.2, 0.35, 0.5)
GRAPHS_PER_CELL = 40
SMALL_VARIANTS = (Variant.TW, Variant.DAGW, Variant.KW, Variant.DPW, Variant.ENT)

# Exact values at the seed commit (ROADMAP baseline table).
EXACT_VISIBLE = (
    ("switch-all", 1, Variant.TW, 4),
    ("zadeh", 1, Variant.TW, 3),
    ("zadeh", 1, Variant.DAGW, 3),
    ("zadeh", 2, Variant.ENT, 3),
)
EXACT_INVISIBLE = (
    ("zadeh", 1, Variant.KW, 3),
    ("switch-all", 1, Variant.KW, 2),
    ("zadeh", 2, Variant.DPW, 3),
)

GENERATORS = {"switch-all": gen_switch_all, "zadeh": gen_zadeh}
EXPR_COLOURS = {FamilyId.SWITCH_ALL: 10, FamilyId.ZADEH: 9}


@dataclass
class Task:
    """One timed call.  `layer` names the module that carries the work;
    `check` maps the call's result to a failure reason, or None."""

    name: str
    layer: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda _result: None


@dataclass
class Workload:
    tasks: list[Task]
    # cross-task checks: (task names, predicate over their results, reason)
    relations: list[tuple[tuple[str, ...], Callable[..., bool], str]] = field(
        default_factory=list
    )
    # deterministic sizes of the inputs, reported by the traced run
    sizes: dict[str, int] = field(default_factory=dict)


class Hooks:
    """Set-up hooks; the traced run substitutes recording versions."""

    def __init__(self):
        self.gen_s = 0.0
        self.gen_vertices = 0

    def gen(self, fn, *args):
        t0 = time.perf_counter()
        g = fn(*args)
        self.gen_s += time.perf_counter() - t0
        self.gen_vertices += g.vertex_count
        return g

    def chase(self, strategy):
        return strategy


def _expect(value):
    def check(result):
        return None if result == value else f"expected {value}, got {result}"

    return check


def _measure_task(name, graph, variant, expected=None):
    task = Task(name, "games", lambda: measure(graph, variant, budget=BUDGET))
    if expected is not None:
        task.check = _expect(expected)
    return task


def _exact(table, hooks):
    tasks = []
    for family, n, variant, value in table:
        g = hooks.gen(GENERATORS[family], n)
        tasks.append(_measure_task(f"{variant.value}:{family}({n})", g, variant, value))
    return Workload(tasks)


def expr_nodes(expr) -> int:
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Union):
            stack += (node.left, node.right)
        elif isinstance(node, (Recolour, Connect)):
            stack.append(node.child)
    return count


def _sweep_check(report):
    if not (report.cleared and report.monotone and report.ok):
        return f"sweep report {report}"
    return None


def _expr_check(colours):
    def check(report):
        if not report.equal or report.colour_count != colours:
            return (
                f"expression equal={report.equal} with {report.colour_count} colours"
                f" (want {colours}); missing {len(report.missing_edges)},"
                f" extra {len(report.extra_edges)} edges"
            )
        return None

    return check


def _certify(hooks):
    tasks = []
    steps = 0
    nodes = 0
    for n in range(1, CERTIFY_MAX_N + 1):
        g = hooks.gen(gen_switch_all, n)
        cert = dpw_sweep_certificate_switch_all(n)
        steps += 2 * len(cert.placements)
        for sem in (Variant.DPW, Variant.KW):
            tasks.append(Task(
                f"sweep-{sem.value}:switch-all({n})", "certificates.sweep",
                lambda g=g, cert=cert, sem=sem: verify_sweep(g, cert, sem),
                _sweep_check,
            ))
        strategy = hooks.chase(ent_strategy_switch_all(n))
        tasks.append(Task(
            f"ent-chase:switch-all({n})", "certificates.ent_chase",
            lambda g=g, s=strategy: verify_ent_strategy(g, s, 3),
            lambda rep: None if rep.ok else f"chase strategy failed: {rep.reason}",
        ))
        for family, builder in ((FamilyId.SWITCH_ALL, build_switch_all_expr),
                                (FamilyId.ZADEH, build_zadeh_expr)):
            expr = builder(n)
            nodes += expr_nodes(expr)
            tasks.append(Task(
                f"expr:{family.value}({n})", "cliquewidth.verify",
                lambda f=family, n=n, e=expr: verify_family_expr(f, n, e),
                _expr_check(EXPR_COLOURS[family]),
            ))
    # a small solved visible-game strategy: DAG-width 2 on switch-all(1)
    small = hooks.gen(gen_switch_all, 1)
    solved = solve_visible(small, GameConfig(Variant.DAGW, 2), budget=BUDGET)
    if solved.winner is not Winner.COPS:
        raise RuntimeError("two cops must win the DAG-width game on switch-all(1)")
    moves = solved.witness.moves
    tasks.append(Task(
        "replay:dagw-switch-all(1)", "certificates.replay",
        lambda: replay_cop_strategy(small, Variant.DAGW, 2, moves),
        lambda ok: None if ok else "replay_cop_strategy rejected the solved strategy",
    ))
    return Workload(tasks, sizes={
        "certificates.sweep.steps": steps,
        "cliquewidth.expr.nodes": nodes,
    })


def _mix(*parts: int) -> int:
    """Deterministic 64-bit seed for one graph from the run seed and its cell."""
    h = 0xCBF29CE484222325
    for p in parts:
        h = ((h ^ (p & ((1 << 64) - 1))) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def _small_graphs(seed, hooks):
    tasks = []
    relations = []
    for v in SMALL_SIZES:
        for pi, p in enumerate(SMALL_PROBS):
            for i in range(GRAPHS_PER_CELL):
                g = hooks.gen(gen_random_digraph, v, p, _mix(seed, v, pi, i))
                tag = f"v{v}-p{p}-{i}"
                names = {}
                for variant in SMALL_VARIANTS:
                    task = _measure_task(f"{variant.value}:{tag}", g, variant)
                    names[variant] = task.name
                    tasks.append(task)
                relations.append((
                    (names[Variant.DAGW], names[Variant.DPW]),
                    lambda dagw, dpw: dagw <= dpw + 1,
                    "dagw <= dpw + 1",
                ))
                relations.append((
                    (names[Variant.KW], names[Variant.DPW]),
                    lambda kw, dpw: kw <= dpw + 1,
                    "kw <= dpw + 1",
                ))
                relations.append((
                    (names[Variant.ENT],),
                    lambda ent, g=g: (ent == 1) == entanglement_is_one(g),
                    "ent == 1 iff entanglement_is_one",
                ))
    return Workload(tasks, relations)


WORKLOADS = {
    "exact-visible": lambda seed, hooks: _exact(EXACT_VISIBLE, hooks),
    "exact-invisible": lambda seed, hooks: _exact(EXACT_INVISIBLE, hooks),
    "certify": lambda seed, hooks: _certify(hooks),
    "small-graphs": _small_graphs,
}


def build(name: str, seed: int, hooks: Hooks) -> Workload:
    return WORKLOADS[name](seed, hooks)
