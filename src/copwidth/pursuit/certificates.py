"""Certificate replay for the invisible-robber games and strategy
verification for the entanglement game.

A SweepCertificate is an open-loop placement sequence; verify_sweep replays
it under either invisible-game semantics and reports whether it clears the
graph and whether it ever recontaminates.  Under kw it steps restless while
that step is monotone, which needs no search and gives the inert result
(see `contaminate`), so the switch-all sweep replays in linear work under
both.  The switch-all sweep is declared as its clearing order, and the
solvers' `_sweep_of` places the guards along it, so its cop count is
measured.  The entanglement side provides a feedback-vertex chase strategy
(the one that witnesses ent <= 3 for the switch-all family) and an
exhaustive verifier that plays every robber reply against a given cop
strategy; the visible-game strategy replay runs on the same depth-first
search.  That search keeps one pair of robber-vertex masks per placement
(the positions on the current play, and those finished), so a cop move is
checked against all of the robber's replies by two mask operations, and
pushes one stack entry per position.  The replays step with the solvers'
own rules from games.py: the sweep and the visible-game strategy with the
one contamination update and monotonicity rule, the chase with the
entanglement cop moves.

Each family certificate is declared once, in `_CERTIFICATES`, with the
(family, measure) bound it backs and its cop count; the report and
`copwidth certify` replay it from there.
"""

from __future__ import annotations

__all__ = [
    "EntVerifyReport",
    "SweepCertificate",
    "SweepReport",
    "dpw_sweep_certificate_switch_all",
    "ent_strategy_switch_all",
    "entanglement_is_one",
    "feedback_chase_strategy",
    "replay_cop_strategy",
    "simulate_sweep",
    "verify_ent_strategy",
    "verify_sweep",
]

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ..graphs import (
    Graph,
    GraphError,
    _components,
    _is_acyclic,
    _is_id,
    bits_of,
    is_acyclic,
    mask_of,
    reach_mask,
)
from ..families import FamilyId, gen_switch_all
from .games import (
    Variant, _check_cops, _sweep_of, contaminate, ent_moves, normalized_moves
)


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
        _check_cops(self.cops)
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
    steps: int  # placements replayed
    cleared: bool
    monotone: bool
    step_of_first_violation: Optional[int]
    ok: bool  # cleared, and monotone whenever that was required

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
    iff it keeps the contaminated set a subset of the one before.  While
    the contaminated set R is closed in G - C, as it is at the start, a kw
    step first takes the restless step, and when that one is monotone its
    R' is the inert one too (see `contaminate`), found without a search.
    The first kw step it does not settle is taken inert, and so are all
    after it, so a sweep that stays restless-monotone replays in linear
    work under both semantics.
    """
    semantics = Variant(semantics)
    if semantics not in (Variant.KW, Variant.DPW):
        raise GraphError(f"sweep semantics must be kw or dpw, got {semantics.value}")
    inert = semantics is Variant.KW
    closed = True  # R is closed in G - C
    c = 0
    r = graph.full_mask
    first_bad: Optional[int] = None
    steps = 0
    for step, placement in enumerate(placements):
        try:
            cp = graph._mask(placement)
        except TypeError:
            raise GraphError(
                f"placement {step} must be an iterable of vertex ids, got {placement!r}"
            ) from None
        [(_, rp)] = contaminate(graph, inert and not closed, c, r, (cp,), strict=False)
        if inert and closed and rp & ~r:
            closed = False
            [(_, rp)] = contaminate(graph, True, c, r, (cp,), strict=False)
        c = cp
        if rp & ~r and first_bad is None:
            first_bad = step
        r = rp
        steps += 1
    monotone = first_bad is None
    return SweepReport(
        steps=steps,
        cleared=(r == 0),
        monotone=monotone,
        step_of_first_violation=first_bad,
        ok=(r == 0 and (monotone or not require_monotone)),
    )


def verify_sweep(graph: Graph, cert: SweepCertificate, semantics: Variant | str) -> SweepReport:
    """Replay a certificate; cleared iff the final contaminated set is empty.

    The report's `ok` additionally demands monotonicity;
    `step_of_first_violation` indexes into cert.placements (0-based).
    """
    return simulate_sweep(graph, cert.placements, semantics)


def dpw_sweep_certificate_switch_all(n: int) -> SweepCertificate:
    """The clearing sequence for the switch-all family, declared as its
    clearing order: r, s; then e_i, d_i, g_i, f_i, h_i, k_i for i = 1..n
    (g before f, as g -> f); then x; then a_j, t_j for j = 2n..1; then c.
    `_sweep_of` places the restless guards N+(R) \\ R along it, so the
    sequence replays cleared and monotone under both the restless and the
    inert semantics, and its cop count is its largest placement: 4.
    """
    g = gen_switch_all(n)
    names = ["r", "s"]
    for i in range(1, n + 1):
        names += [f"{v}{i}" for v in "edgfhk"]
    names.append("x")
    for j in range(2 * n, 0, -1):
        names += [f"a{j}", f"t{j}"]
    names.append("c")
    placements = _sweep_of(g, False, [1 << g.id_of(v) for v in names])
    return SweepCertificate(max(map(len, placements)), placements)


@dataclass(frozen=True)
class EntVerifyReport:
    """Outcome of verify_ent_strategy.  failure_position is (cop vertices in
    ascending order, robber vertex), the position the failure was found at."""

    ok: bool
    reason: str = ""
    failure_position: Optional[tuple[tuple[int, ...], int]] = None

    def __bool__(self) -> bool:
        return self.ok


def _cyclic(graph: Graph, comp: int) -> bool:
    """True iff the strongly connected component with mask comp has a cycle:
    it has two vertices or more, or its one vertex has a self-loop."""
    return bool(comp & (comp - 1) or graph.succ_masks[comp.bit_length() - 1] & comp)


def _feedback_vertex(graph: Graph, comp: int) -> Optional[int]:
    """The lowest vertex of the strongly connected component with mask comp
    whose removal leaves G[comp] acyclic, or None if there is none."""
    for v in bits_of(comp):
        if _is_acyclic(graph, comp & ~(1 << v)):
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

    The components are found on the masks of G minus the anchors, and a
    component's designated vertex is its `_feedback_vertex`; components
    without one simply never trigger a chase move (the strategy then cannot
    win and verification will say so).
    """
    _check_cops(k)
    anchor_set = frozenset(anchors)
    # None stands for the components without one, and no robber sits there
    feedback = {
        _feedback_vertex(graph, comp)
        for comp in _components(graph, graph.full_mask & ~graph._mask(anchor_set))
        if _cyclic(graph, comp)
    }

    def strategy(placement: frozenset[int], robber: int) -> frozenset[int]:
        if robber in anchor_set and robber not in placement:
            return placement | {robber}
        if robber in feedback:
            # one chase cop total: relocate it if placed, else commit a spare
            chasers = sorted(placement - anchor_set)
            if chasers:
                return (placement | {robber}) - {chasers[0]}
            if len(placement) < k:
                return placement | {robber}
        return placement

    return strategy


_CHASE_COPS = 3  # the switch-all chase: a cop on each of r and s, one chasing


def ent_strategy_switch_all(n: int) -> Callable[[frozenset[int], int], frozenset[int]]:
    """The 3-cop entanglement strategy for the switch-all family: park on r
    and s, then chase through the rest of the graph, whose non-trivial
    components are the pairs {d_i, e_i} and the self-loop vertex x."""
    g = gen_switch_all(n)
    return feedback_chase_strategy(g, _CHASE_COPS, anchors=(g.id_of("r"), g.id_of("s")))


_REPEATS = "the robber can force an infinite play (position repeats)"


def _replay_positional(
    start: Hashable, robbers: int, replies: Callable[[Hashable, int], tuple[Hashable, int] | str]
) -> Optional[tuple[str, tuple[Hashable, int]]]:
    """Play a positional cop strategy against every robber reply.

    A position is (placement, robber vertex) with the cops to move; the
    search runs depth-first from (start, v) for every v in the mask robbers.
    replies(c, v) applies the cop move at (c, v) and returns (c', R): the
    announced placement and the mask of vertices the robber can move to, or
    a string saying why the cop move is illegal.  The positions are kept as
    one pair of robber masks per placement: grey[c] holds the vertices v
    with (c, v) on the current play, black[c] those with every play from
    (c, v) finished.  A child (c', w) repeats the play iff w is in
    R & grey[c'], and only the w in R & ~black[c'] are played on, so each
    position costs one lookup of its child placement whatever its
    out-degree, and none when replies returns c itself.  Each position
    takes one stack entry.  Children are played highest w first, and the
    strategy is asked once per reachable position.  Returns None iff every
    play ends with the robber out of moves, else (reason, position): an
    illegal move, or the lowest position a play can revisit (an infinite
    play exists).
    """
    # placement -> [grey, black].  A stack entry (c, colour[c], R, done)
    # first turns the position of c whose bit is done, if any, from grey to
    # black, as all its plays are finished; R holds the w of the positions
    # (c, w) still to play from
    colour: dict[Hashable, list[int]] = {start: [0, 0]}
    for v0 in bits_of(robbers):
        stack = [(start, colour[start], 1 << v0, 0)]
        while stack:
            c, pair, r, done = stack.pop()
            if done:
                pair[0] ^= done
                pair[1] |= done
            # never grey here: one on the current play is caught when pushed,
            # and an older entry lies below the one that finishes it, so it
            # pops black
            r &= ~pair[1]
            if not r:
                continue
            v = r.bit_length() - 1
            bit = 1 << v
            pair[0] |= bit
            stack.append((c, pair, r ^ bit, bit))
            reply = replies(c, v)
            if isinstance(reply, str):
                return reply, (c, v)
            cp, moves = reply
            if cp is c:
                child = pair
            else:
                child = colour.get(cp)
                if child is None:
                    child = colour[cp] = [0, 0]
            repeats = moves & child[0]
            if repeats:
                return _REPEATS, (cp, (repeats & -repeats).bit_length() - 1)
            if moves:
                stack.append((cp, child, moves, 0))
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
    _check_cops(k)
    succ = graph.succ_masks
    vertices = frozenset(range(graph.vertex_count))
    start: frozenset[int] = frozenset()
    cop_masks: dict[frozenset[int], int] = {start: 0}  # each placement's, built once

    def replies(c: frozenset[int], v: int) -> tuple[frozenset[int], int] | str:
        move = strategy(c, v)
        if move is c:  # the chase's usual reply: c is legal and its mask known
            return c, succ[v] & ~cop_masks[c]
        try:
            cp = frozenset(move)
        except TypeError:  # not iterable, or holding an unhashable item
            return f"illegal cop move {sorted(c)} -> {move!r} against robber at {v}"
        # test the stay first.  Play on from c itself, whose vertices are
        # ints; an equal cp may hold 0.0 for 0
        if cp == c:
            cp = c
        elif not (
            cp <= vertices
            and all(_is_id(w) for w in cp)
            and mask_of(cp) in ent_moves(mask_of(c), v, k)
        ):
            shown = sorted(cp, key=None if cp <= vertices else str)
            return f"illegal cop move {sorted(c)} -> {shown} against robber at {v}"
        m = cop_masks.get(cp)
        if m is None:
            m = cop_masks[cp] = mask_of(cp)
        return cp, succ[v] & ~m

    failure = _replay_positional(start, graph.full_mask, replies)
    if failure is None:
        return EntVerifyReport(ok=True)
    reason, (c, v) = failure
    return EntVerifyReport(ok=False, reason=reason, failure_position=(tuple(sorted(c)), v))


def _sweep_replay(semantics: Variant, n: int) -> tuple[int, SweepReport]:
    cert = dpw_sweep_certificate_switch_all(n)
    return cert.cops, verify_sweep(gen_switch_all(n), cert, semantics)


def _chase_replay(n: int) -> tuple[int, EntVerifyReport]:
    rep = verify_ent_strategy(gen_switch_all(n), ent_strategy_switch_all(n), _CHASE_COPS)
    return _CHASE_COPS, rep


# (family, measure) -> replay(n): the certificate that backs the bound, as its
# cop count and its replay report on the family at n.  `copwidth certify`
# lists the keys in this order.
_CERTIFICATES = {
    (FamilyId.SWITCH_ALL, Variant.DPW): partial(_sweep_replay, Variant.DPW),
    (FamilyId.SWITCH_ALL, Variant.KW): partial(_sweep_replay, Variant.KW),
    (FamilyId.SWITCH_ALL, Variant.ENT): _chase_replay,
}


def entanglement_is_one(graph: Graph) -> bool:
    """True iff the graph has a cycle and every strongly connected component
    contains a vertex whose removal makes that component acyclic."""
    # a loop-free singleton, the one acyclic kind of component, and a
    # self-loop both empty on removal of their vertex
    comps = _components(graph, graph.full_mask)
    return not is_acyclic(graph) and all(
        _feedback_vertex(graph, c) is not None for c in comps if _cyclic(graph, c)
    )


def replay_cop_strategy(
    graph: Graph,
    variant: Variant | str,
    cops: int,
    strategy_moves: dict[tuple[int, int], int],
    require_monotone: bool = True,
) -> bool:
    """Replay a positional strategy of the visible game of `variant`, which
    must be dagw, on `graph` as given, against every robber reply.  A tw
    strategy is replayed on the symmetric closure of its graph as dagw.

    True iff from every start the strategy stays defined, every move is
    legal (and monotone when required), and all plays end in capture without
    revisiting a position.  Legal moves and the robber's replies are the
    solver's own rules: `normalized_moves`, and `contaminate` from the
    robber's region, whose monotonicity rule (R' a subset of R) is the
    invisible games' one.
    """
    variant = Variant(variant)
    if variant is not Variant.DAGW:
        raise GraphError(f"replay_cop_strategy expects variant dagw, got {variant.value}")
    _check_cops(cops)
    full = graph.full_mask

    def replies(c: int, v: int) -> tuple[int, int] | str:
        cp = strategy_moves.get((c, v))
        if not _is_id(cp) or cp not in normalized_moves(c, cops, full):
            return "undefined or illegal cop move"
        moves = contaminate(graph, False, c, reach_mask(graph, c, 1 << v), (cp,), require_monotone)
        if not moves:
            return "the robber reaches a vacated vertex"
        return moves[0]

    return _replay_positional(0, full, replies) is None
