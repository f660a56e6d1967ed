"""Certificate replay for the invisible-robber games and strategy
verification for the entanglement game.

A SweepCertificate is an open-loop placement sequence; verify_sweep replays
it under either invisible-game semantics and reports whether it clears the
graph and whether it ever recontaminates.  The entanglement side provides a
feedback-vertex chase strategy (the one that witnesses ent <= 3 for the
switch-all family) and an exhaustive verifier that plays every robber reply
against a given cop strategy; the visible-game strategy replay runs on the
same depth-first search.  The sweep replay steps with the solvers' own
contamination update and monotonicity rule from games.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ..graphs import (
    Graph,
    GraphError,
    bits_of,
    induced_subgraph,
    is_acyclic,
    mask_of,
    sccs,
    symmetric_closure,
)
from ..families import gen_switch_all
from .games import Variant, contaminate, normalized_moves, robber_regions


@dataclass(frozen=True)
class SweepCertificate:
    """Cop budget plus an ordered list of placements, starting from empty.

    Consecutive placements (the first relative to the empty set) must differ
    by at most one vertex added or removed, and every placement must fit the
    budget; violations are rejected at construction, naming the step.
    """

    cops: int
    placements: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.cops < 0:
            raise GraphError(f"cop budget must be non-negative, got {self.cops}")
        prev: frozenset[int] = frozenset()
        for step, placement in enumerate(self.placements):
            if not isinstance(placement, frozenset):
                raise GraphError(f"placement {step} must be a frozenset of vertex ids")
            if len(placement) > self.cops:
                raise GraphError(
                    f"placement {step} has {len(placement)} cops, exceeding the budget {self.cops}"
                )
            added = placement - prev
            removed = prev - placement
            if len(added) + len(removed) > 1:
                raise GraphError(
                    f"placement {step} changes more than one vertex "
                    f"(added {sorted(added)}, removed {sorted(removed)})"
                )
            prev = placement


@dataclass(frozen=True)
class SweepReport:
    cleared: bool
    monotone: bool
    step_of_first_violation: Optional[int]
    final_contaminated: frozenset[int]
    _required_ok: bool = True

    @property
    def ok(self) -> bool:
        """Cleared, and monotone whenever that was required."""
        return self.cleared and self._required_ok

    def __bool__(self) -> bool:
        return self.ok


def simulate_sweep(
    graph: Graph,
    placements: Sequence[Iterable[int]],
    semantics: Variant | str,
    require_monotone: bool = True,
) -> SweepReport:
    """Replay an arbitrary placement sequence (no single-move restriction).

    Each step is the solvers' own contamination update; a step is monotone
    iff it keeps the contaminated set a subset of the one before.
    """
    if isinstance(semantics, str):
        semantics = Variant(semantics)
    if semantics not in (Variant.KW, Variant.DPW):
        raise GraphError(f"sweep semantics must be kw or dpw, got {semantics.value}")
    inert = semantics is Variant.KW
    c = 0
    r = graph.full_mask
    first_bad: Optional[int] = None
    for step, placement in enumerate(placements):
        cp = 0
        for v in placement:
            graph._check(v)
            cp |= 1 << v
        [(c, r)], grew = contaminate(graph, inert, c, r, (cp,), strict=False)
        if grew and first_bad is None:
            first_bad = step
    monotone = first_bad is None
    return SweepReport(
        cleared=(r == 0),
        monotone=monotone,
        step_of_first_violation=first_bad,
        final_contaminated=frozenset(bits_of(r)),
        _required_ok=(monotone or not require_monotone),
    )


def verify_sweep(
    graph: Graph,
    cert: SweepCertificate,
    semantics: Variant | str,
    require_monotone: bool = True,
) -> SweepReport:
    """Replay a certificate; cleared iff the final contaminated set is empty.

    The report's `ok` additionally demands monotonicity when
    require_monotone is set; `step_of_first_violation` indexes into
    cert.placements (0-based).
    """
    return simulate_sweep(graph, cert.placements, semantics, require_monotone)


def dpw_sweep_certificate_switch_all(n: int) -> SweepCertificate:
    """The 4-cop clearing sequence for the switch-all family.

    Two cops park on r and s for the whole sweep.  Per layer i the third cop
    holds e_i while the fourth sweeps d_i, g_i, f_i, h_i, k_i (g before f:
    clearing f first would recontaminate it through the edge g->f once the
    cop leaves).  Afterwards x is cleared, then the arm/chain pairs
    a_j, t_j descend from j=2n to 1, and c is swept last.  Verifies cleanly
    under both the restless and the inert semantics.
    """
    g = gen_switch_all(n)
    cur: set[int] = set()
    seq: list[frozenset[int]] = []

    def move(add: str | None = None, remove: str | None = None) -> None:
        if add is not None:
            cur.add(g.id_of(add))
        if remove is not None:
            cur.discard(g.id_of(remove))
        seq.append(frozenset(cur))

    move(add="r")
    move(add="s")
    for i in range(1, n + 1):
        move(add=f"e{i}")
        if i > 1:
            move(remove=f"e{i - 1}")
        for name in (f"d{i}", f"g{i}", f"f{i}", f"h{i}", f"k{i}"):
            move(add=name)
            move(remove=name)
    move(add="x")
    move(remove=f"e{n}")
    move(remove="x")
    for j in range(2 * n, 0, -1):
        move(add=f"a{j}")
        move(remove=f"a{j}")
        move(add=f"t{j}")
        move(remove=f"t{j}")
    move(add="c")
    return SweepCertificate(cops=4, placements=tuple(seq))


@dataclass(frozen=True)
class EntVerifyReport:
    """Outcome of verify_ent_strategy.  failure_position is (cop vertices in
    ascending order, robber vertex), the position the failure was found at."""

    ok: bool
    reason: str = ""
    failure_position: Optional[tuple[tuple[int, ...], int]] = None

    def __bool__(self) -> bool:
        return self.ok


def _feedback_vertex(graph: Graph, comp: Sequence[int]) -> Optional[int]:
    """The lowest vertex of the strongly connected component comp whose
    removal leaves the rest of comp acyclic, or None if there is none."""
    for v in sorted(comp):
        if is_acyclic(induced_subgraph(graph, [w for w in comp if w != v])):
            return v
    return None


def feedback_chase_strategy(
    graph: Graph,
    k: int,
    anchors: Sequence[int] = (),
) -> Callable[[frozenset[int], int], frozenset[int]]:
    """Cop strategy: park on each anchor when the robber first stands there;
    otherwise chase with the remaining cop, entering the robber's vertex only
    when he sits on the designated feedback vertex of a non-trivial strongly
    connected component of the graph minus the anchors.

    The designated feedback vertex of a component is its lowest-id vertex
    whose removal makes the component acyclic; components without one simply
    never trigger a chase move (the strategy then cannot win and verification
    will say so).
    """
    for v in anchors:
        graph._check(v)
    anchor_set = frozenset(anchors)
    rest = sorted(set(range(graph.vertex_count)) - anchor_set)
    sub = induced_subgraph(graph, rest)
    to_full = {i: v for i, v in enumerate(rest)}
    target: dict[int, int] = {}
    for comp in sccs(sub):
        nontrivial = len(comp) > 1 or sub.succ_masks[comp[0]] >> comp[0] & 1
        fv = _feedback_vertex(sub, comp) if nontrivial else None
        if fv is not None:
            for w in comp:
                target[to_full[w]] = to_full[fv]

    def strategy(placement: frozenset[int], robber: int) -> frozenset[int]:
        if robber in anchor_set and robber not in placement:
            return placement | {robber}
        if target.get(robber) == robber:
            # one chase cop total: relocate it if placed, else commit a spare
            chasers = sorted(placement - anchor_set)
            if chasers:
                return (placement | {robber}) - {chasers[0]}
            if len(placement) < k:
                return placement | {robber}
        return placement

    return strategy


def ent_strategy_switch_all(n: int) -> Callable[[frozenset[int], int], frozenset[int]]:
    """The 3-cop entanglement strategy for the switch-all family: park on r
    and s, then chase through the rest of the graph, whose non-trivial
    components are the pairs {d_i, e_i} and the self-loop vertex x."""
    g = gen_switch_all(n)
    return feedback_chase_strategy(g, 3, anchors=(g.id_of("r"), g.id_of("s")))


_REPEATS = "the robber can force an infinite play (position repeats)"


def _replay_positional(
    starts: Iterable[Hashable], replies: Callable[[Hashable], list | str]
) -> Optional[tuple[str, Hashable]]:
    """Play a positional cop strategy against every robber reply.

    Depth-first from every start position.  A position is (placement, robber
    vertex) with the cops to move; replies applies the cop move at a position
    and returns the positions the robber can move to, or a string saying why
    the cop move is illegal.  Returns None iff every play ends with the
    robber out of moves, else (reason, position): an illegal move, or a
    position a play can revisit (an infinite play exists).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[Hashable, int] = {}
    for start in starts:
        if colour.get(start, WHITE) is not WHITE:
            continue
        stack = [(start, False)]
        while stack:
            pos, processed = stack.pop()
            if processed:
                colour[pos] = BLACK
                continue
            state = colour.get(pos, WHITE)
            if state is BLACK:
                continue
            if state is GREY:
                return _REPEATS, pos
            colour[pos] = GREY
            stack.append((pos, True))
            children = replies(pos)
            if isinstance(children, str):
                return children, pos
            for child in children:
                st = colour.get(child, WHITE)
                if st is GREY:
                    return _REPEATS, child
                if st is WHITE:
                    stack.append((child, False))
    return None


def verify_ent_strategy(
    graph: Graph,
    strategy: Callable[[frozenset[int], int], frozenset[int]],
    k: int,
) -> EntVerifyReport:
    """Play every robber reply against the strategy.

    True iff every play is finite and ends with the robber out of moves.  An
    illegal cop move or a position the play can revisit (an infinite play
    exists) yields a failure report carrying the offending position.  The
    strategy is asked once per reachable position.
    """
    succ = graph.succ_masks

    def replies(pos: tuple[frozenset[int], int]) -> list | str:
        c, v = pos
        cp = frozenset(strategy(c, v))
        added = cp - c
        legal = (not added and cp == c) or (
            added == {v} and len(c - cp) <= 1 and len(cp) <= k
        )
        if not legal:
            return f"illegal cop move {sorted(c)} -> {sorted(cp)} against robber at {v}"
        return [(cp, w) for w in bits_of(succ[v] & ~mask_of(cp))]

    failure = _replay_positional(
        [(frozenset(), v) for v in range(graph.vertex_count)], replies
    )
    if failure is None:
        return EntVerifyReport(ok=True)
    reason, (c, v) = failure
    return EntVerifyReport(ok=False, reason=reason, failure_position=(tuple(sorted(c)), v))


def entanglement_is_one(graph: Graph) -> bool:
    """True iff the graph has a cycle and every strongly connected component
    contains a vertex whose removal makes that component acyclic."""
    if is_acyclic(graph):
        return False
    # loop-free singletons are vacuous; a self-loop empties on removal
    return all(
        len(comp) == 1 or _feedback_vertex(graph, comp) is not None for comp in sccs(graph)
    )


def replay_cop_strategy(
    graph: Graph,
    variant: Variant,
    cops: int,
    strategy_moves: dict[tuple[int, int], int],
    require_monotone: bool = True,
) -> bool:
    """Replay a positional visible-game strategy against every robber reply.

    True iff from every start the strategy stays defined, every move is
    legal (and monotone when required), and all plays end in capture without
    revisiting a position.  Legal moves and the robber's replies are the
    solver's own rules, `normalized_moves` and `robber_regions`.
    """
    g = symmetric_closure(graph) if variant is Variant.TW else graph

    def replies(pos: tuple[int, int]) -> list | str:
        c, v = pos
        cp = strategy_moves.get(pos)
        if cp is None or cp not in normalized_moves(c, cops, g.full_mask):
            return "undefined or illegal cop move"
        regions = robber_regions(g, c, v, (cp,), require_monotone)
        if not regions:
            return "the robber reaches a vacated vertex"
        return [(cp, w) for w in bits_of(regions[0][1])]

    return _replay_positional([(0, v) for v in range(g.vertex_count)], replies) is None
