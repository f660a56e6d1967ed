"""Bound-table reproduction and randomized cross-check suites.

run_report reproduces the documented upper-bound row for one of the two
constructed families, verifying each entry by whichever means fits: replaying
the sweep certificate, evaluating the colouring expression, checking a
witness subgraph, or solving the game exactly at a small instance.  Rows for
families this package does not construct are reproduced for reference with
provenance not-checked.  run_property_suites runs the four seeded
cross-check suites relating the solvers to each other and to the structural
characterizations.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..cliquewidth import verify_family_expr
from ..families import (
    FamilyId,
    gen_complete_bipartite,
    gen_random_dag,
    gen_random_digraph,
    gen_switch_all,
    gen_zadeh,
    lemma_bipartite_witness,
)
from ..graphs import Graph, GraphError, serialize_graph, symmetric_closure
from ..pursuit import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    GameConfig,
    Variant,
    Winner,
    dpw_sweep_certificate_switch_all,
    ent_strategy_switch_all,
    entanglement_is_one,
    measure,
    solve,
    solve_visible,
    verify_ent_strategy,
    verify_sweep,
)

MEASURES = ("tw", "dpw", "dagw", "kw", "ent", "cw")

PROVENANCES = (
    "exact-solve",
    "certificate",
    "cw-expression",
    "witness-subgraph",
    "not-checked",
)

UNBOUNDED = "unbounded"
UNKNOWN = "unknown"

# Documented upper bounds per family and measure; "unbounded" marks measures
# proven to grow without limit on the family.
CLAIMED_BOUNDS: dict[str, dict[str, Union[int, str]]] = {
    "switch-all": {"tw": UNBOUNDED, "dpw": 3, "dagw": 4, "kw": 4, "ent": 3, "cw": 10},
    "zadeh": {
        "tw": UNBOUNDED,
        "dpw": UNBOUNDED,
        "dagw": UNBOUNDED,
        "kw": UNBOUNDED,
        "ent": UNBOUNDED,
        "cw": 9,
    },
}

# Reference rows for families this package does not construct.
REFERENCE_ROWS: dict[str, dict[str, Union[int, str]]] = {
    "switch-best": {"tw": UNBOUNDED, "dpw": 3, "dagw": 4, "kw": 4, "ent": 3, "cw": 18},
    "random-edge": {"tw": 8, "dpw": 3, "dagw": 4, "kw": 4, "ent": 3, "cw": 12},
    "random-facet": {"tw": 3, "dpw": 1, "dagw": 2, "kw": 2, "ent": 1, "cw": 6},
    "least-considered": {"tw": 7, "dpw": 3, "dagw": 4, "kw": 4, "ent": 4, "cw": 7},
    "snare": {"tw": UNBOUNDED, "dpw": 3, "dagw": 4, "kw": 4, "ent": 4, "cw": UNKNOWN},
}

REFERENCE_NOTE = "family not constructed by this package; bounds reproduced for reference"


@dataclass
class MeasureEntry:
    """One bound-table cell with how (and whether) it was checked.

    claimed is the documented upper bound: an integer, "unbounded" when the
    measure grows without limit on the family, or "unknown" when no bound is
    recorded.  obtained is the bound this run established (None when the
    entry only witnesses unboundedness or was not checked).  exact is the
    exact value at the small instance n_exact when the budget allowed
    computing it; exact values below the claimed bound refine it and are not
    discrepancies.
    """

    measure: str
    claimed: Union[int, str, None]
    obtained: Optional[int]
    exact: Optional[int]
    provenance: str
    verified: bool
    seconds: float
    note: str = ""

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise GraphError(f"unknown measure {self.measure!r}")
        if self.provenance not in PROVENANCES:
            raise GraphError(f"unknown provenance {self.provenance!r}")
        if (
            self.provenance != "not-checked"
            and isinstance(self.claimed, int)
            and self.obtained is not None
            and self.obtained > self.claimed
        ):
            raise GraphError(
                f"{self.measure}: obtained {self.obtained} exceeds the claimed "
                f"bound {self.claimed}"
            )

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "claimed": self.claimed,
            "obtained": self.obtained,
            "exact": self.exact,
            "provenance": self.provenance,
            "verified": self.verified,
            "seconds": round(self.seconds, 3),
            "note": self.note,
        }


@dataclass
class MeasureReport:
    family: str
    n_exact: int
    n_cert: int
    entries: list[MeasureEntry]
    reference_rows: list[dict] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        """True iff every checked entry verified; not-checked entries are exempt."""
        return all(
            e.verified for e in self.entries if e.provenance != "not-checked"
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n_exact": self.n_exact,
            "n_cert": self.n_cert,
            "entries": [e.to_dict() for e in self.entries],
            "reference_rows": self.reference_rows,
            "all_verified": self.all_verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _reference_rows() -> list[dict]:
    return [
        {
            "family": name,
            "claimed": dict(claims),
            "provenance": "not-checked",
            "note": REFERENCE_NOTE,
        }
        for name, claims in REFERENCE_ROWS.items()
    ]


def _exact_or_none(
    graph: Graph, variant: Variant, budget: int
) -> tuple[Optional[int], str]:
    """Exact measure, or None with a note when the state budget runs out."""
    try:
        return measure(graph, variant, budget=budget), ""
    except BudgetExceededError:
        return None, f"state budget {budget} exhausted during the exact solve; "


def _guarded(measure_name: str, claimed, t0: float, build) -> MeasureEntry:
    """Run one entry builder; budget exhaustion downgrades to not-checked."""
    try:
        return build()
    except BudgetExceededError as exc:
        return MeasureEntry(
            measure=measure_name,
            claimed=claimed,
            obtained=None,
            exact=None,
            provenance="not-checked",
            verified=False,
            seconds=time.perf_counter() - t0,
            note=f"state budget {exc.budget} exhausted before the entry could "
            "be checked",
        )


def _switch_all_entries(n_exact: int, n_cert: int, budget: int) -> list[MeasureEntry]:
    entries: list[MeasureEntry] = []
    g_small = gen_switch_all(n_exact)

    # Certificate replays are linear-time and budget-free; shared between the
    # dpw, dagw and kw entries.
    sweeps_ok = {}
    for semantics in (Variant.DPW, Variant.KW):
        ok = True
        for n in range(1, n_cert + 1):
            rep = verify_sweep(
                gen_switch_all(n), dpw_sweep_certificate_switch_all(n), semantics
            )
            if not (rep.cleared and rep.monotone):
                ok = False
        sweeps_ok[semantics] = ok

    # tw: unbounded, witnessed by complete bipartite subgraphs of growing
    # order inside the symmetric closure.
    t0 = time.perf_counter()

    def build_tw():
        ok = True
        for k in (1, 2, 3):
            wn, left, right = lemma_bipartite_witness(k)
            h = symmetric_closure(gen_switch_all(wn))
            for a in left:
                for b in right:
                    if not (h.has_edge(a, b) and h.has_edge(b, a)):
                        ok = False
        for k in (2, 3):
            if measure(gen_complete_bipartite(k, k), Variant.TW, budget=budget) != k:
                ok = False
        exact, note = _exact_or_none(g_small, Variant.TW, budget)
        return MeasureEntry(
            measure="tw",
            claimed=UNBOUNDED,
            obtained=None,
            exact=exact,
            provenance="witness-subgraph",
            verified=ok,
            seconds=time.perf_counter() - t0,
            note=note
            + "k-by-k bipartite witness embeds in the symmetric closure for "
            "k<=3, and the measure of the standalone k-by-k graph is exactly k "
            "for k in {2,3}; the witness order grows with n",
        )

    entries.append(_guarded("tw", UNBOUNDED, t0, build_tw))

    # dpw: the 4-cop open-loop sweep, replayed under restless semantics.
    t0 = time.perf_counter()

    def build_dpw():
        solve_ok = solve(g_small, Variant.DPW, 4, budget=budget).winner is Winner.COPS
        exact, note = _exact_or_none(g_small, Variant.DPW, budget)
        return MeasureEntry(
            measure="dpw",
            claimed=3,
            obtained=3,
            exact=exact,
            provenance="certificate",
            verified=sweeps_ok[Variant.DPW] and solve_ok,
            seconds=time.perf_counter() - t0,
            note=note
            + f"4-cop sweep replays cleared and monotone for n in 1..{n_cert}; "
            f"exact solve at n={n_exact} confirms 4 cops win",
        )

    entries.append(_guarded("dpw", 3, t0, build_dpw))

    # dagw: carried over from the same sweep.  A monotone open-loop clearing
    # sequence also beats the visible robber with the same cop count (the
    # placements never depend on the robber, and the robber's options only
    # shrink), so the restless-sweep certificate implies the visible-game
    # bound; this is inference, not a direct visible-game replay.
    t0 = time.perf_counter()

    def build_dagw():
        solve_ok = solve(g_small, Variant.DAGW, 4, budget=budget).winner is Winner.COPS
        exact, note = _exact_or_none(g_small, Variant.DAGW, budget)
        return MeasureEntry(
            measure="dagw",
            claimed=4,
            obtained=4,
            exact=exact,
            provenance="certificate",
            verified=sweeps_ok[Variant.DPW] and solve_ok,
            seconds=time.perf_counter() - t0,
            note=note
            + "bound carried over from the restless-sweep certificate: a "
            "monotone open-loop clearing also wins the visible game with the "
            f"same cop count; cross-checked by an exact visible-game solve at "
            f"n={n_exact}",
        )

    entries.append(_guarded("dagw", 4, t0, build_dagw))

    # kw: same certificate replayed under inert semantics.
    t0 = time.perf_counter()

    def build_kw():
        exact, note = _exact_or_none(g_small, Variant.KW, budget)
        return MeasureEntry(
            measure="kw",
            claimed=4,
            obtained=4,
            exact=exact,
            provenance="certificate",
            verified=sweeps_ok[Variant.KW],
            seconds=time.perf_counter() - t0,
            note=note
            + f"the same 4-cop sweep replays cleared and monotone under inert "
            f"semantics for n in 1..{n_cert}",
        )

    entries.append(_guarded("kw", 4, t0, build_kw))

    # ent: the feedback-vertex chase strategy, verified against every robber
    # reply, plus an exact game solve at the small instance.
    t0 = time.perf_counter()

    def build_ent():
        chase_ok = True
        for n in range(1, n_cert + 1):
            rep = verify_ent_strategy(gen_switch_all(n), ent_strategy_switch_all(n), 3)
            if not rep.ok:
                chase_ok = False
        ent_solve_ok = solve(g_small, Variant.ENT, 3, budget=budget).winner is Winner.COPS
        exact, note = _exact_or_none(g_small, Variant.ENT, budget)
        return MeasureEntry(
            measure="ent",
            claimed=3,
            obtained=3,
            exact=exact,
            provenance="certificate",
            verified=chase_ok and ent_solve_ok,
            seconds=time.perf_counter() - t0,
            note=note
            + f"3-cop chase strategy beats every robber reply for n in "
            f"1..{n_cert}; exact solve at n={n_exact} confirms 3 cops win",
        )

    entries.append(_guarded("ent", 3, t0, build_ent))

    return entries


def _zadeh_entries(n_exact: int, n_cert: int, budget: int) -> list[MeasureEntry]:
    entries: list[MeasureEntry] = []
    g_small = gen_zadeh(n_exact)

    # tw: unbounded, witnessed by the bidirectional clique on the k-vertices.
    t0 = time.perf_counter()

    def build_tw():
        g_wit = gen_zadeh(n_cert)
        clique = [g_wit.id_of(f"k{i}") for i in range(1, n_cert + 1)]
        clique_ok = all(
            g_wit.has_edge(u, w) and g_wit.has_edge(w, u)
            for u in clique
            for w in clique
            if u != w
        )
        exact, note = _exact_or_none(g_small, Variant.TW, budget)
        return MeasureEntry(
            measure="tw",
            claimed=UNBOUNDED,
            obtained=None,
            exact=exact,
            provenance="witness-subgraph",
            verified=clique_ok,
            seconds=time.perf_counter() - t0,
            note=note
            + f"bidirectional clique on the {n_cert} k-vertices checked; the "
            "clique order grows with n",
        )

    entries.append(_guarded("tw", UNBOUNDED, t0, build_tw))

    # dpw/dagw/kw/ent: no finite bound to certify; record the exact value at
    # the small instance.
    for name, variant in (
        ("dpw", Variant.DPW),
        ("dagw", Variant.DAGW),
        ("kw", Variant.KW),
        ("ent", Variant.ENT),
    ):
        t0 = time.perf_counter()
        exact, note = _exact_or_none(g_small, variant, budget)
        if exact is None:
            entries.append(
                MeasureEntry(
                    measure=name,
                    claimed=UNBOUNDED,
                    obtained=None,
                    exact=None,
                    provenance="not-checked",
                    verified=False,
                    seconds=time.perf_counter() - t0,
                    note=note.rstrip("; "),
                )
            )
        else:
            entries.append(
                MeasureEntry(
                    measure=name,
                    claimed=UNBOUNDED,
                    obtained=None,
                    exact=exact,
                    provenance="exact-solve",
                    verified=True,
                    seconds=time.perf_counter() - t0,
                    note=f"exact value at n={n_exact}; the measure is recorded "
                    "as unbounded over the family, so any finite small-n value "
                    "is consistent",
                )
            )

    return entries


def _cw_entry(fam: FamilyId, n_cert: int) -> MeasureEntry:
    """Evaluate the family's expression builder and compare edge-exactly."""
    t0 = time.perf_counter()
    colours = CLAIMED_BOUNDS[fam.value]["cw"]
    cw_ok = True
    for n in range(1, n_cert + 1):
        rep = verify_family_expr(fam, n)
        if not (rep.equal and rep.colour_count == colours):
            cw_ok = False
    return MeasureEntry(
        measure="cw",
        claimed=colours,
        obtained=colours,
        exact=None,
        provenance="cw-expression",
        verified=cw_ok,
        seconds=time.perf_counter() - t0,
        note=f"expression evaluates to the generator edge-for-edge with "
        f"exactly {colours} colours for n in 1..{n_cert}",
    )


def run_report(
    family: FamilyId | str,
    n_exact: int = 1,
    n_cert: int = 8,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> MeasureReport:
    """Reproduce and verify the bound row for one constructed family.

    Deterministic given (family, n_exact, n_cert, budget).  Budget exhaustion
    downgrades the affected entry (exact value omitted, or provenance
    not-checked when nothing else supports the entry) but never aborts the
    report.
    """
    fam = FamilyId(family) if isinstance(family, str) else family
    if n_exact < 1 or n_cert < 1:
        raise GraphError("n_exact and n_cert must be at least 1")
    if fam is FamilyId.SWITCH_ALL:
        entries = _switch_all_entries(n_exact, n_cert, budget)
    elif fam is FamilyId.ZADEH:
        entries = _zadeh_entries(n_exact, n_cert, budget)
    else:
        raise GraphError(f"no bound row for family {fam.value!r}")
    return MeasureReport(
        family=fam.value,
        n_exact=n_exact,
        n_cert=n_cert,
        entries=entries + [_cw_entry(fam, n_cert)],
        reference_rows=_reference_rows(),
    )


# ---------------------------------------------------------------------------
# property suites


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[dict]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class SuiteSummary:
    seed: int
    suites: list[SuiteResult]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "suites": [s.to_dict() for s in self.suites],
            "all_passed": self.all_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _fail(graph: Graph, detail: str) -> dict:
    return {"graph": serialize_graph(graph).decode("ascii"), "detail": detail}


def _suite_width_inequality(seed: int) -> SuiteResult:
    """dagw <= dpw+1 and kw <= dpw+1 on 200 seeded digraphs with <= 6 vertices."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    probs = (0.15, 0.3, 0.5)
    for i in range(200):
        v = 1 + i % 6
        p = probs[(i // 6) % len(probs)]
        g = gen_random_digraph(v, p, seed * 1009 + i)
        cases += 1
        dpw = measure(g, Variant.DPW)
        dagw = measure(g, Variant.DAGW)
        kw = measure(g, Variant.KW)
        if dagw > dpw + 1:
            failures.append(_fail(g, f"dagw {dagw} > dpw {dpw} + 1"))
        if kw > dpw + 1:
            failures.append(_fail(g, f"kw {kw} > dpw {dpw} + 1"))
    return SuiteResult("width-inequality", cases, failures, time.perf_counter() - t0)


def _all_digraphs(n: int):
    """Every digraph on vertices v0..v{n-1}, self-loops included.

    Enumeration: edge (i, j) is present in graph number m iff bit i*n + j of
    m is set; m runs over 0 .. 2^(n*n) - 1.
    """
    names = [f"v{i}" for i in range(n)]
    for m in range(1 << (n * n)):
        edges = [
            (i, j) for i in range(n) for j in range(n) if m >> (i * n + j) & 1
        ]
        yield Graph(names, edges)


def _ent_is_one_game(g: Graph) -> bool:
    zero = solve(g, Variant.ENT, 0).winner is Winner.COPS
    one = solve(g, Variant.ENT, 1).winner is Winner.COPS
    return one and not zero


def _suite_entanglement_one(seed: int) -> SuiteResult:
    """The one-cop characterization vs the exact game, exhaustively then sampled.

    Exhaustive over every digraph on at most 4 vertices (2 + 16 + 512 + 65536
    graphs, per the _all_digraphs enumeration), then 100 seeded 5-6 vertex
    digraphs.
    """
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for n in range(1, 5):
        for g in _all_digraphs(n):
            cases += 1
            structural = entanglement_is_one(g)
            game = _ent_is_one_game(g)
            if structural != game:
                failures.append(
                    _fail(g, f"characterization {structural} but game {game}")
                )
    for i in range(100):
        v = 5 + i % 2
        g = gen_random_digraph(v, 0.3, seed * 2003 + i)
        cases += 1
        structural = entanglement_is_one(g)
        game = _ent_is_one_game(g)
        if structural != game:
            failures.append(
                _fail(g, f"characterization {structural} but game {game}")
            )
    return SuiteResult("entanglement-one", cases, failures, time.perf_counter() - t0)


def _suite_acyclic_entanglement(seed: int) -> SuiteResult:
    """50 seeded DAGs on <= 10 vertices all need zero cops."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for i in range(50):
        v = 1 + i % 10
        g = gen_random_dag(v, 0.4, seed * 4001 + i)
        cases += 1
        val = measure(g, Variant.ENT)
        if val != 0:
            failures.append(_fail(g, f"acyclic graph measured ent {val}"))
    return SuiteResult("acyclic-entanglement", cases, failures, time.perf_counter() - t0)


def _suite_move_normalization(seed: int) -> SuiteResult:
    """Normalized and full-move visible solvers agree on 100 small digraphs.

    Checked for both visible variants at every cop count up to the vertex
    count.
    """
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for i in range(100):
        v = 1 + i % 5
        g = gen_random_digraph(v, 0.35, seed * 8009 + i)
        cases += 1
        for variant in (Variant.TW, Variant.DAGW):
            for k in range(v + 1):
                cfg = GameConfig(variant, k)
                fast = solve_visible(g, cfg).winner
                full = solve_visible(g, cfg, full_moves=True).winner
                if fast is not full:
                    failures.append(
                        _fail(
                            g,
                            f"{variant.value} at k={k}: normalized "
                            f"{fast.value} vs full {full.value}",
                        )
                    )
    return SuiteResult("move-normalization", cases, failures, time.perf_counter() - t0)


def run_property_suites(seed: int = 0) -> SuiteSummary:
    """Run the four cross-check suites; deterministic per seed."""
    return SuiteSummary(
        seed=seed,
        suites=[
            _suite_width_inequality(seed),
            _suite_entanglement_one(seed),
            _suite_acyclic_entanglement(seed),
            _suite_move_normalization(seed),
        ],
    )
