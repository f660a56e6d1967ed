"""Exact deciders for the five pursuit games behind the directed width
measures: treewidth (on the symmetric closure), DAG-width, Kelly-width
(invisible inert robber), directed pathwidth (invisible robber) and
entanglement.

With monotone play the set R the robber may occupy decides the game, so
one search, `_search_contaminated`, runs over R alone for four games.
Each step clears a vertex u of R whose guard fits beside the cop on it,
and what is left of R splits into parts, subgames that must all be won:

- KW (after Hunter & Kreutzer): guard N+(Reach_{G[R]}(u)) \\ R, parts
  the weak components of G[R \\ {u}];
- DPW (after Barat): guard N+(R) \\ R, and R \\ {u} stays whole;
- DAGW: R is the visible robber's region Reach_{G-C}(v), the guard is
  DPW's, and the parts are the distinct robber regions of G[R \\ {u}] (the
  (X, component) game of Berwanger et al., JCTB 2012, with X cut down to
  the guard);
- TW: the KW game on the symmetric closure (`solve`), since
  kw(G<->) = tw(G) + 1.

The search solves each strongly connected component as its own subgame.
Its witness is a placement sequence, or for DAGW a positional cop
strategy.  Entanglement is solved on the fly by `_solve_cop_game`, which
builds the game graph of cop nodes (C, v) and robber nodes (C', R), the
announced placement and the region the robber can land in, breadth-first
and stops once every start is won.  The placement games are played
monotone only, as each width is the cops' least monotone win.  The
reference engines, at the end, play the games move by move:
`_play_visible` the visible game on `_solve_cop_game` (with full moves
or non-monotone play as references), and `_search_placements` the
invisible games over (placement, contaminated set) states.  They are
what the contaminated-set search is tested against.  Positions are
encoded as int bitmasks throughout.

Each game rule has one home here:

- `normalized_moves`: the cop moves {stay, add one cop, remove one cop} of
  the visible and invisible solvers;
- `ent_moves`: the entanglement game's cop moves {stay, enter the robber's
  vertex with a spare cop, enter it and lift one cop}, used by
  solve_entanglement and by the chase replay in certificates.py;
- `contaminate`: the one contamination update and monotonicity rule (R'
  must be a subset of R) of the four placement games: for the invisible
  games' contaminated set, in the placement search and the sweep replay,
  and for the visible tw and dagw robber's region Reach_{G-C}(v), in
  `_play_visible` and the strategy replay in certificates.py.  In the
  entanglement game the region is the robber's successors outside C';
- `_guard` and `_parts`: what that rule means for the contaminated-set
  search, the cleared vertices that must hold cops while a cop lands on a
  vertex of R, and the subgames left after it;
- `solve`: the one dispatch from a variant to its solver.  What a solve
  derives from the graph alone, the symmetric closure (`_closure`) and
  the SCC masks (`_scc_masks`), is cached for the last graph, so the
  solves of one `measure_detailed` scan build it once.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "BudgetExceededError",
    "CopStrategy",
    "GameConfig",
    "SolveOutcome",
    "Variant",
    "Winner",
    "measure",
    "measure_detailed",
    "solve",
    "solve_entanglement",
    "solve_invisible",
    "solve_visible",
]

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable

from ..graphs import (
    Graph,
    GraphError,
    _components,
    _is_id,
    _positive,
    _spread,
    bits_of,
    reach_mask,
    symmetric_closure,
)

DEFAULT_STATE_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The solver hit its visited-state budget before finding an answer."""

    def __init__(self, budget: int):
        super().__init__(f"state budget exceeded ({budget} states)")
        self.budget = budget


class Variant(enum.Enum):
    TW = "tw"
    DAGW = "dagw"
    KW = "kw"
    DPW = "dpw"
    ENT = "ent"


class Winner(enum.Enum):
    COPS = "cops"
    ROBBER = "robber"


@dataclass(frozen=True)
class GameConfig:
    variant: Variant
    cops: int
    # every game is monotone: a constant kept because perfbench's tracer reads it
    require_monotone: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass(frozen=True)
class CopStrategy:
    """Positional cop strategy: (placement mask, robber vertex) -> next placement mask.

    Defined exactly on the cop-won positions discovered by the solver.
    """

    moves: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class SolveOutcome:
    winner: Winner
    witness: object | None
    states: int


def _check_cops(cops: int, graph: Graph | None = None) -> None:
    """The one check of a cop count, for the solvers (given the graph, whose
    vertex count bounds it) and the replays (which allow more cops)."""
    if not (_is_id(cops) and cops >= 0):
        raise GraphError(f"cop count must be a non-negative integer, got {cops!r}")
    if graph is not None and cops > graph.vertex_count:
        raise GraphError(f"cop count {cops} exceeds vertex count {graph.vertex_count}")


def _solve_cop_game(
    n: int,
    regions: Callable[[int, int], list[tuple[int, int]]],
    budget: int,
) -> SolveOutcome:
    """Decide a visible-robber game on n vertices on the fly.

    A cop node is (C, v), placement C with the robber on v, and the starts
    are (0, v) for every v: the robber chooses where to begin.  The game's
    rule `regions(C, v)` lists the cop moves as robber nodes (C', R), the
    announced placement and the region the robber can land in; the robber
    node (C', R) leads to the cop nodes (C', w) for w in R.  Nodes with
    equal keys are one node, so announcements that leave the robber the
    same choices merge.  Cop nodes are won when some successor is won;
    robber nodes when all are (an empty R is a capture).  The cops win iff
    every start is won.

    The least fixed point is decided locally (Liu & Smolka, ICALP 1998):
    nodes are expanded breadth-first, in the order they are built, each
    once.  A cop node with a successor already won, or a robber node with
    none left that is not, is won there, and each win goes straight back to
    the predecessors expanded so far; as only those are in `preds`, no node
    is won before it is expanded.  The solve stops once every start is won;
    if the queue runs out first, the robber can stay on the nodes not won
    forever.  The witness maps each won cop node
    to the C' of the successor that won it first, so every play ends.

    Every rule lists distinct placements C', and the w of a robber node are
    distinct bits, so each node's successors are distinct and are not
    deduplicated here.  The states are the nodes built; building more than
    `budget` raises BudgetExceededError.
    """
    # node ids by side, tables[is_cop]: a pair can be both a (C', R) and a (C, v)
    tables: tuple[dict, dict] = ({}, {})
    keys: list[tuple[int, int]] = []
    is_cop: list[bool] = []
    preds: list[list[int]] = []
    pending: list[int] = []  # a robber node's successors not yet won
    won: list[bool] = []
    moves: dict[tuple[int, int], int] = {}
    starts = 0  # the starts won

    def intern(key: tuple[int, int], cop: bool) -> int:
        nid = tables[cop].get(key)
        if nid is None:
            nid = len(keys)
            if nid >= budget:
                raise BudgetExceededError(budget)
            tables[cop][key] = nid
            keys.append(key)
            is_cop.append(cop)
            preds.append([])
            pending.append(0)
            won.append(False)
        return nid

    for v in range(n):
        intern((0, v), True)
    for nid, (c, x) in enumerate(keys):  # keys is the queue, and grows
        if starts == n:
            break
        if is_cop[nid]:
            ready = []
            for rk in regions(c, x):
                sid = intern(rk, False)
                if won[sid]:
                    moves[c, x] = rk[0]
                    ready = [nid]
                    break
                preds[sid].append(nid)
        else:
            for w in bits_of(x):
                sid = intern((c, w), True)
                if not won[sid]:
                    preds[sid].append(nid)
                    pending[nid] += 1
            ready = [] if pending[nid] else [nid]
        won[nid] = bool(ready)
        for i in ready:  # grows as the win propagates
            starts += i < n
            for p in preds[i]:
                if won[p]:
                    continue
                if is_cop[p]:
                    moves[keys[p]] = keys[i][0]
                else:
                    pending[p] -= 1
                    if pending[p]:
                        continue
                won[p] = True
                ready.append(p)
    if starts < n:
        return SolveOutcome(Winner.ROBBER, None, len(keys))
    return SolveOutcome(Winner.COPS, CopStrategy(moves), len(keys))


def normalized_moves(c: int, k: int, full: int) -> list[int]:
    """Normalized next placements from placement c with k cops on the
    vertices of `full`: stay (first), add a cop on a free vertex while one
    is spare, or remove one cop."""
    out = [c]
    free = ~c & full if c.bit_count() < k else 0
    while free:
        b = free & -free
        out.append(c | b)
        free ^= b
    placed = c
    while placed:
        b = placed & -placed
        out.append(c ^ b)
        placed ^= b
    return out


def ent_moves(c: int, v: int, k: int) -> list[int]:
    """The entanglement game's announcements from placement c with the
    robber on v, a vertex outside c, and k cops: stay (first), enter v with
    a spare cop, or enter v and lift one placed cop."""
    vb = 1 << v
    out = [c]
    if c.bit_count() < k:
        out.append(c | vb)
    placed = c
    while placed:
        b = placed & -placed
        out.append((c | vb) ^ b)
        placed ^= b
    return out


def contaminate(
    graph: Graph, inert: bool, c: int, r: int, placements: Iterable[int], strict: bool
) -> list[tuple[int, int]]:
    """One contamination step from placement C with contaminated set R, for
    each announced placement C':

        inert (KW):     R' = (R | Reach_{G-(C&C')}(R & C')) \\ C'
        restless (DPW): R' = Reach_{G-(C&C')}(R) \\ C'

    A move is monotone iff R' is a subset of R.  Returns the pairs (C', R')
    in placement order, ending early at the first R' that is empty (a search
    is won there).  With strict the moves that are not monotone are left
    out.

    Restless steps assume R is closed in G - C and disjoint from C.  Then a
    path that leaves R first enters a vertex of C, and as the cops on
    C & C' stay, that vertex is a vacated one (C \\ C') with an in-neighbour
    in R.  With H those vacated vertices,
    Reach_{G-(C&C')}(R) = R | Reach_{G-(C&C')}(H), so only H is searched
    from.  H lies in R' but not in R, so the move is monotone iff H is
    empty, and then R' = R \\ C' with no search at all: no step of a
    monotone restless sweep searches.  R' is closed in G - C', so the
    assumption holds for every state reached from (empty, all vertices),
    and for the visible robber's region R = Reach_{G-C}(v).  With that R
    this is the visible games' robber step: his space Reach_{G-(C&C')}(v)
    is Reach_{G-(C&C')}(R), he lands in R', and the move is monotone iff
    he cannot reach a vacated vertex.  Ending at an empty R' (a capture)
    drops only moves of a cop node already won.
    """
    reach = reach_mask
    pred = graph.pred_masks
    out = []
    for cp in placements:
        if inert:
            flee = r & cp
            rp = (r | reach(graph, c & cp, flee)) & ~cp if flee else r & ~cp
        else:
            hit = 0  # H
            for v in bits_of(c & ~cp):
                if pred[v] & r:
                    hit |= 1 << v
            rp = ((r | reach(graph, c & cp, hit)) if hit else r) & ~cp
        if strict and rp & ~r:
            continue
        out.append((cp, rp))
        if not rp:
            break
    return out


def _visible_graph(graph: Graph, variant: Variant | str) -> Graph:
    """The graph the visible game of `variant` is played on: the symmetric
    closure for TW, the graph itself for DAGW."""
    variant = Variant(variant)
    if variant not in (Variant.TW, Variant.DAGW):
        raise GraphError(f"the visible game expects variant tw or dagw, got {variant.value}")
    return _closure(graph) if variant is Variant.TW else graph


@functools.lru_cache(maxsize=1)
def _closure(graph: Graph) -> Graph:
    """The symmetric closure TW is played on, kept for the last graph."""
    return symmetric_closure(graph)


def solve_visible(
    graph: Graph,
    config: GameConfig,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the visible-robber game (variant TW or DAGW) with config.cops cops.

    TW plays on the symmetric closure of the graph; DAGW on the graph as
    given.  DAGW is searched over the robber's regions
    (`_search_contaminated`); TW is played move by move (`_play_visible`),
    and this TW game is the reference that `solve`'s TW is tested against.
    The witness is a `CopStrategy` for `replay_cop_strategy`.
    """
    g = _visible_graph(graph, config.variant)
    _check_cops(config.cops, graph)
    _positive(budget, "budget")
    if config.variant is Variant.DAGW:
        return _search_contaminated(g, config.cops, Variant.DAGW, budget)
    return _play_visible(g, config.cops, True, False, budget)


def _guard(succ: tuple[int, ...], inert: bool, r: int, u: int) -> int:
    """The cleared vertices the cops must hold while a cop lands on u, a
    single bit of the contaminated set R, so that the move is monotone:

        inert (KW):     guard = N+(Reach_{G[R]}(u)) \\ R
        restless (DPW): guard = N+(R) \\ R, the same for every u

    With succ the graph's successor masks this is the rule of the game;
    with the edges between SCCs left out, the rule of the SCC holding R.
    """
    return _spread(succ, r, u if inert else r)[1] & ~r


def _clearable(succ: tuple[int, ...], pred: tuple[int, ...], inert: bool, k: int, r: int) -> int:
    """The vertices u of R worth clearing from R with k cops, given the
    successor and predecessor masks: those whose guard fits beside the cop
    on u, in at most k - 1 cops; or only the first of them with no
    in-neighbour in R \\ {u}, when there is one, since clearing it first
    loses nothing (see `_search_contaminated`)."""
    if inert:
        ok = 0
        todo = r
        while todo:
            u = todo & -todo
            todo ^= u
            space, out = _spread(succ, r, u)
            if (out & ~r).bit_count() < k:
                ok |= space
                todo &= ~space
            else:
                todo &= ~_spread(pred, r, u)[0]
    else:
        ok = r if _guard(succ, False, r, r).bit_count() < k else 0
    todo = ok
    while todo:
        u = todo & -todo
        todo ^= u
        if not pred[u.bit_length() - 1] & r & ~u:
            return u
    return ok


def _parts(adj: tuple[int, ...] | None, back: tuple[int, ...] | None, r: int) -> list[int]:
    """The independent subgames left by the contaminated set R, none when R
    is empty: R itself (DPW) when adj is None; the weak components of G[R]
    when adj holds the in- and out-neighbours of each vertex (KW); and with
    successor and predecessor masks (adj, back), the distinct robber regions
    Reach_{G[R]}(w) (DAGW).  The vertices of w's SCC in G[R] share w's
    region, and they are the vertices of it that reach w.  The regions are
    listed largest first, so the search, which takes the last part first,
    asks about the smallest first: a larger region holding a lost one is
    lost too, and a won one is reused in the larger searches.  That more
    than halves the sets on the families (zadeh(3): 41,121 against 112,889
    in vertex order)."""
    if adj is None:
        return [r] if r else []
    out = []
    todo = r
    while todo:
        w = todo & -todo
        part = _spread(adj, r, w)[0]
        out.append(part)
        todo &= ~(_spread(back, part, w)[0] if back else part)
    if back:
        out.sort(key=int.bit_count, reverse=True)
    return out


@functools.lru_cache(maxsize=1)
def _scc_masks(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The set-up of `_search_contaminated`, which depends on the graph
    alone: the SCC masks in `_components` order, and each vertex's
    successor, predecessor and neighbour (successor or predecessor) masks
    within its SCC.  Kept for the last graph, so one scan's solves, and the
    kw and dpw scans of one graph, build them once."""
    succ = [0] * graph.vertex_count
    pred = [0] * graph.vertex_count
    scopes = _components(graph, graph.full_mask)
    for scope in scopes:
        for v in bits_of(scope):
            succ[v] = graph.succ_masks[v] & scope
            pred[v] = graph.pred_masks[v] & scope
    nbr = [s | p for s, p in zip(succ, pred)]
    return tuple(scopes), tuple(succ), tuple(pred), tuple(nbr)


def _search_contaminated(graph: Graph, k: int, variant: Variant, budget: int) -> SolveOutcome:
    """The monotone games of KW, DPW and DAGW as a search over contaminated
    sets R alone, one subgame per SCC.

    Proof sketch that R decides the game (Hunter & Kreutzer's elimination
    orderings for KW, Barat's for DPW):

    - Invariant: in every reachable monotone state (C, R), R and C are
      disjoint, since `contaminate` removes C' from R'.  For DPW also
      C contains the boundary N+(R) \\ R: any successor of R' outside
      C & C' is reached by the robber, so it lies in R' or in C'.
    - Free moves leave R as it is and are monotone: for KW lifting any cop
      or placing one on a cleared vertex; for DPW lifting a cop outside the
      boundary or placing one on a cleared vertex.  So all placements of at
      most k cops on cleared vertices (that contain the boundary, for DPW)
      are mutually reachable, and one node per R suffices.
    - The one real move places a cop on some u in R and gives R \\ {u}.
      It is monotone iff the cops already hold the guard of `_guard`,
      so it is possible iff the guard has at most k - 1 vertices.  Lifting
      a boundary cop in DPW, or placing on u without its guard in KW, lets
      the robber onto a cleared vertex and is pruned.
    - DAGW is the DPW game on the visible robber's region Reach_{G-C}(v):
      every v in it is equivalent, as he reaches any of them before the
      next cop lands, and he picks a region of G[R \\ {u}] once u is placed.

    The game splits into the parts of `_parts`, and by SCC (Hunter &
    Kreutzer, TCS 2008; Berwanger et al., JCTB 2012):

    - By SCC.  No edge enters an SCC from a later one in `_components`
      order, so while the SCCs before S are cleared and those after it
      contaminated, every guard of u in S lies in S and is u's guard in
      G[S].  So the SCCs are searched with the edges between them left
      out, each from R = S, and the cops win iff they win every SCC.
    - By weak component, for KW.  The robber's reach from u stays in u's
      weak component of G[R], and no edge leaves that component for
      another part of R, so the guard of u depends on its component alone
      and the components are independent subgames: R is won iff some
      clearable u leaves every component of R \\ {u} won.  The DPW guard
      N+(R) \\ R is shared by all of R, so DPW keeps R whole and its search
      stays linear: the path/tree difference of the two widths.

    Two cuts in `_clearable` shrink the OR without changing its value:

    - A clearable u with no in-neighbour in R \\ {u} is tried alone.  From
      R \\ {u} the cops can play any winning order from R with u's step
      left out: no later guard gains a vertex, since only u could be new
      and nothing left in R enters u.  For DAGW each region of R \\ {u} is
      then closed in G[R], and so won by R's u' or by its part holding it.
    - For KW, a vertex that reaches u in G[R] has a guard containing u's,
      and one that u reaches a guard inside u's, so one reach each way
      settles them all.

    The search is a depth-first AND/OR search with an explicit stack.
    Each set is entered once and recorded with its winning u, or 0 when
    lost.  A set on the stack strictly contains every set it asks about,
    so it is never asked about while still open.  The states are the sets
    entered, summed over all SCCs, and the budget caps that sum.

    The KW and DPW witness is a clearing order: the SCCs in `_components`
    order, sources first, and inside each a won set R by its recorded u,
    then each part of R \\ {u} in turn.  `_sweep_of` turns the order into
    placements with the guards of the whole graph, which equal the subgame
    guards, so each placement holds at most k cops.  The DAGW witness is
    `_strategy_of`'s.
    """
    scopes, succ, pred, nbr = _scc_masks(graph)
    inert = variant is Variant.KW
    rule = {Variant.KW: (nbr, None), Variant.DPW: (None, None), Variant.DAGW: (succ, pred)}
    adj, back = rule[variant]
    won: dict[int, int] = {}
    # the open set R, its untried clearable vertices, the u being tried and
    # the parts of R \ {u} not yet known to be won; the root's parts are
    # the SCCs, and its u is -1 until one of them is lost
    r, todo, u, parts = 0, 0, -1, list(scopes[::-1])
    stack = []
    while True:
        if u and parts:
            part = parts[-1]
            w = won.get(part)
            if w is None:
                if len(won) >= budget:
                    raise BudgetExceededError(budget)
                won[part] = 0
                stack.append((r, todo, u, parts))
                r, todo, u, parts = part, _clearable(succ, pred, inert, k, part), 0, []
            elif w:
                parts.pop()
            else:
                u = 0
            continue
        if not u and todo:
            u = todo & -todo
            todo ^= u
            parts = _parts(adj, back, r ^ u)
            continue
        if not stack:
            break
        if u:
            won[r] = u
        r, todo, u, parts = stack.pop()
    if not u:
        return SolveOutcome(Winner.ROBBER, None, len(won))
    if variant is Variant.DAGW:
        return SolveOutcome(Winner.COPS, _strategy_of(graph, scopes, succ, won), len(won))
    order = []
    todo_sets = list(scopes[::-1])
    while todo_sets:
        r = todo_sets.pop()
        order.append(won[r])
        todo_sets += _parts(adj, back, r ^ won[r])
    return SolveOutcome(Winner.COPS, _sweep_of(graph, inert, order), len(won))


def _sweep_of(graph: Graph, inert: bool, order: list[int]) -> tuple[frozenset[int], ...]:
    """The placement sequence that clears the single-bit masks of `order`,
    every vertex once, in turn.  Before u is cleared the contaminated set R
    is u and the rest of the order; per u, lift the cops outside u's guard
    (`_guard`) one at a time, place the missing guard cops, then place u.
    Each placement changes one vertex, the one on u is its guard plus u,
    and the sequence replays cleared and monotone.  As R is a suffix of the
    order, the restless guard N+(R) \\ R comes from one backward running
    union, not from a `_guard` call per step, which is quadratic."""
    succ = graph.succ_masks
    outs = []
    out = 0
    for u in reversed(order):
        out |= succ[u.bit_length() - 1]
        outs.append(out)
    seq = []
    c = 0
    held = set()  # c as a set of vertices
    r = graph.full_mask
    for u, out in zip(order, reversed(outs)):
        guard = _guard(succ, True, r, u) if inert else out & ~r
        for b in bits_of(c & ~guard):
            held.discard(b)
            seq.append(frozenset(held))
        for b in bits_of(guard & ~c):
            held.add(b)
            seq.append(frozenset(held))
        held.add(u.bit_length() - 1)
        seq.append(frozenset(held))
        c = guard | u
        r ^= u
    return tuple(seq)


def _strategy_of(
    graph: Graph, scopes: tuple[int, ...], succ: tuple[int, ...], won: dict[int, int]
) -> CopStrategy:
    """The DAGW cop strategy on the positions (C, v) it reaches from every
    start (0, v).  With R the robber's region in the SCC of v, it lifts a
    cop outside R's guard, else places the cop `won` records for R.  Every
    cop stands in his SCC, where he reaches only R and its guard, or in an
    earlier one, so a lift is monotone; each R met is an SCC or a part of a
    won region, and a lift only shrinks it."""
    scope = {v: s for s in scopes for v in bits_of(s)}
    moves: dict[tuple[int, int], int] = {}
    todo = [(0, v) for v in range(graph.vertex_count)]
    while todo:
        pos = todo.pop()
        if pos in moves:
            continue
        c, v = pos
        r = _spread(succ, scope[v] & ~c, 1 << v)[0]
        lift = c & ~_guard(succ, False, r, r)
        cp = c ^ (lift & -lift) if lift else c | won[r]
        moves[pos] = cp
        todo += [(cp, w) for w in bits_of(reach_mask(graph, c, 1 << v) & ~cp)]
    return CopStrategy(moves)


def solve_invisible(
    graph: Graph,
    config: GameConfig,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the invisible-robber game (variant KW or DPW) with config.cops cops.

    The robber is inert for KW (moves only when a cop lands on it) and
    restless for DPW; `contaminate` states both updates.  The cops win iff
    some monotone placement sequence empties the contaminated set, every
    move keeping it a subset of the one before, and the witness is such a
    sequence.  The search runs over contaminated sets alone
    (`_search_contaminated`), and the budget caps its states.
    """
    if config.variant not in (Variant.KW, Variant.DPW):
        raise GraphError(f"solve_invisible expects variant kw or dpw, got {config.variant.value}")
    _check_cops(config.cops, graph)
    _positive(budget, "budget")
    return _search_contaminated(graph, config.cops, config.variant, budget)


def solve_entanglement(
    graph: Graph,
    k: int,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the entanglement game with k cops.

    Rounds: from position (C, robber at v) the cops announce one of
    `ent_moves`: C' = C, or C | {v} if a spare cop exists, or (C | {v})
    minus one currently placed cop; then the robber must move along an edge
    to some v' outside C', so the robber node of `_solve_cop_game` is
    (C', succ(v) \\ C').  A robber without such an edge is caught (cops
    win); infinite play is a robber win.  There is no monotonicity notion
    here.
    """
    _check_cops(k, graph)
    _positive(budget, "budget")
    succ = graph.succ_masks

    def regions(c: int, v: int) -> list[tuple[int, int]]:
        return [(cp, succ[v] & ~cp) for cp in ent_moves(c, v, k)]

    return _solve_cop_game(graph.vertex_count, regions, budget)


def solve(
    graph: Graph,
    variant: Variant | str,
    k: int,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the game of `variant` with k cops by its solver.

    DAGW goes to `solve_visible`, which searches the monotone game over the
    robber's regions.  TW is the monotone KW game on the symmetric closure
    with the same cop count: kw(G<->) = tw(G) + 1 (Hunter & Kreutzer, TCS
    2008), and on a symmetric graph the KW guard of u, the cleared
    neighbours of u's component of G[R], is the set Q(R \\ {u}, u) of the
    treewidth elimination-ordering search of Bodlaender et al. (TALG 2012).
    A TW witness is a placement sequence on the closure that
    `simulate_sweep` replays under KW rules; `solve_visible` stays the
    independent reference for TW.
    """
    variant = Variant(variant)
    if variant is Variant.TW:
        graph, variant = _closure(graph), Variant.KW
    # the solvers are looked up as module globals at call time, so wrapped
    # bindings see every solve
    if variant is Variant.ENT:
        return solve_entanglement(graph, k, budget=budget)
    config = GameConfig(variant, k)
    if variant is Variant.DAGW:
        return solve_visible(graph, config, budget=budget)
    return solve_invisible(graph, config, budget=budget)


def measure(graph: Graph, variant: Variant | str, *, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Least winning cop count of the monotone game, reported in the
    variant's own offset.

    TW and DPW report k-1 where k is the least winning cop count (width k
    means k+1 cops win); DAGW, KW and ENT report the cop count itself.  TW
    is the KW value of the symmetric closure minus one.  The empty graph
    yields 0 for every variant.  The budget applies per solve; exhaustion
    raises BudgetExceededError rather than returning a value.
    """
    return measure_detailed(graph, variant, budget=budget)[0]


def measure_detailed(
    graph: Graph,
    variant: Variant | str,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[int, int]:
    """measure() plus the total game states explored across the cop-count
    scan, which solves k = 0, 1, ... until the cops win; for TW from one cop
    more than the closure's minor-min-width (`_tw_lower_bound`, Bodlaender &
    Koster 2011), as no fewer win.  Its solves share the per-graph set-up
    that `solve` caches for the last graph."""
    variant = Variant(variant)
    _positive(budget, "budget")
    if graph.vertex_count == 0:
        return 0, 0
    total = 0
    start = _tw_lower_bound(graph) + 1 if variant is Variant.TW else 0
    for k in range(start, graph.vertex_count + 1):
        out = solve(graph, variant, k, budget=budget)
        total += out.states
        if out.winner is Winner.COPS:
            return _width(variant, k), total
    raise AssertionError("a full placement always wins; unreachable")


def _tw_lower_bound(graph: Graph) -> int:
    """Least-c minor-min-width of the symmetric closure, self-loops dropped
    (Bodlaender & Koster, "Treewidth computations II. Lower bounds", Inf.
    Comput. 209, 2011): contract a vertex of least degree into the neighbour
    it shares the fewest neighbours with, and keep the largest least degree.
    That is at most tw: a minor's tw is no larger, and at least its least
    degree."""
    adj = {v: m & ~(1 << v) for v, m in enumerate(_closure(graph).succ_masks)}
    bound = 0
    while len(adj) > 1:
        v = min(adj, key=lambda x: adj[x].bit_count())
        nv = adj.pop(v)
        bound = max(bound, nv.bit_count())
        for w in bits_of(nv):
            adj[w] ^= 1 << v
        if nv:
            u = min(bits_of(nv), key=lambda w: (adj[w] & nv).bit_count())
            rest = nv & ~(1 << u)
            adj[u] |= rest
            for w in bits_of(rest):
                adj[w] |= 1 << u
    return bound


def _width(variant: Variant, k: int) -> int:
    """The variant's measure when k cops win: k-1 for TW and DPW, else k."""
    return k - 1 if variant in (Variant.TW, Variant.DPW) else k


# -- reference engines: the games played move by move -----------------------


def _play_visible(g: Graph, k: int, mono: bool, full_moves: bool, budget: int) -> SolveOutcome:
    """The visible game on g with k cops, move by move on `_solve_cop_game`.

    The cop moves are `normalized_moves`, or every placement of at most k
    cops with full_moves, and each leads by `contaminate` from the robber's
    region Reach_{G-C}(v) to the robber node (C', R').  With mono, moves that
    let the robber reach a vertex being vacated are pruned (such plays are
    the robber's).
    """
    n, full = g.vertex_count, g.full_mask
    # full_moves: every placement of at most k cops, ascending
    universe = [m for m in range(1 << n) if m.bit_count() <= k] if full_moves else None

    def regions(c: int, v: int) -> list[tuple[int, int]]:
        cands = universe if full_moves else normalized_moves(c, k, full)
        return contaminate(g, False, c, reach_mask(g, c, 1 << v), cands, mono)

    return _solve_cop_game(n, regions, budget)


def _search_placements(graph: Graph, k: int, inert: bool, budget: int) -> SolveOutcome:
    """The monotone invisible games as a one-player search over states
    (placement C, contaminated set R) from (empty, all vertices) on a
    nonempty graph: the reference semantics of `_search_contaminated`.

    Each normalized cop move updates R by `contaminate`, moves that are not
    monotone are pruned, and the cops win iff some placement sequence
    empties R.  The states are the (C, R) pairs visited; the witness is the
    placement sequence found.
    """
    full = graph.full_mask
    start = (0, full)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    stack = [start]
    while stack:
        state = stack.pop()
        c, r = state
        # staying put leaves (C, R) unchanged, so only real moves are tried;
        # each (C', R') is also the key of the next state
        for nxt in contaminate(graph, inert, c, r, normalized_moves(c, k, full)[1:], strict=True):
            if nxt[1] == 0:  # R' is empty: the sequence clears the graph
                seq = [frozenset(bits_of(nxt[0]))]
                node = state
                while parent[node] is not None:
                    seq.append(frozenset(bits_of(node[0])))
                    node = parent[node]
                seq.reverse()
                return SolveOutcome(Winner.COPS, tuple(seq), len(parent))
            if nxt not in parent:
                if len(parent) >= budget:
                    raise BudgetExceededError(budget)
                parent[nxt] = state
                stack.append(nxt)
    return SolveOutcome(Winner.ROBBER, None, len(parent))
