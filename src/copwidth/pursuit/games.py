"""Exact deciders for the five pursuit games behind the directed width
measures: treewidth (on the symmetric closure), DAG-width, Kelly-width
(invisible inert robber), directed pathwidth (invisible robber) and
entanglement.

The visible-robber and entanglement games are solved by backward induction
over the explicit position space (attractor computation with successor
counters); the invisible-robber games are one-player searches over
(placement, contaminated-set) states.  Positions are encoded as int bitmasks
throughout.

Each game rule has one home here:

- `normalized_moves`: the cop moves {stay, add one cop, remove one cop} of
  the visible and invisible solvers;
- `contaminate`: the invisible games' contamination update and their one
  monotonicity rule (R' must be a subset of R), used by solve_invisible and
  by the sweep replay in certificates.py;
- `robber_regions`: the visible games' robber step, the region R the robber
  can land in after a cop announcement C', and their one monotonicity rule
  (the robber must not reach a vertex the cops vacate); used by
  solve_visible, whose robber nodes are these pairs (C', R), and by the
  strategy replay in certificates.py;
- `solve`: the one dispatch from a variant to its solver.

`solve_visible(full_moves=True)` switches to arbitrary next placements and
exists as the reference semantics for cross-checking the move normalization
on small graphs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from ..graphs import (
    Graph,
    GraphError,
    bits_of,
    mask_of,
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
    require_monotone: bool = True


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


def _check_cops(graph: Graph, cops: int) -> None:
    if not isinstance(cops, int) or cops < 0:
        raise GraphError(f"cop count must be a non-negative integer, got {cops!r}")
    if cops > graph.vertex_count:
        raise GraphError(f"cop count {cops} exceeds vertex count {graph.vertex_count}")


def _solve_reachability_game(
    starts: list,
    cop_moves: Callable[[object], list],
    robber_moves: Callable[[object], list],
    budget: int,
) -> tuple[bool, dict, int]:
    """Backward induction on the game graph spanned by `starts`.

    Cop nodes are won when some successor is won; robber nodes when all are
    (a robber node without successors is captured).  Returns (all starts won,
    strategy {cop key: winning robber key}, explored node count).
    """
    ids: dict = {}  # (side, key) -> node id; both games may reuse a key across sides
    keys: list = []
    is_cop: list[bool] = []
    preds: list[list[int]] = []
    pending: list[int] = []

    def intern(key, cop: bool) -> int:
        nid = ids.get((cop, key))
        if nid is None:
            nid = len(keys)
            if nid >= budget:
                raise BudgetExceededError(budget)
            ids[(cop, key)] = nid
            keys.append(key)
            is_cop.append(cop)
            preds.append([])
            pending.append(-1)
            frontier.append(nid)
        return nid

    frontier: deque[int] = deque()
    for s in starts:
        intern(s, True)
    # phase 1: materialize the reachable game graph
    while frontier:
        nid = frontier.popleft()
        key = keys[nid]
        succs = cop_moves(key) if is_cop[nid] else robber_moves(key)
        seen = set()
        count = 0
        for sk in succs:
            if sk in seen:
                continue
            seen.add(sk)
            sid = intern(sk, not is_cop[nid])
            preds[sid].append(nid)
            count += 1
        pending[nid] = count
    # phase 2: propagate wins backwards from captured robber nodes
    won = [False] * len(keys)
    strategy: dict = {}
    ready: deque[int] = deque(
        i for i in range(len(keys)) if not is_cop[i] and pending[i] == 0
    )
    for i in ready:
        won[i] = True
    while ready:
        nid = ready.popleft()
        for p in preds[nid]:
            if won[p]:
                continue
            if is_cop[p]:
                won[p] = True
                strategy[keys[p]] = keys[nid]
                ready.append(p)
            else:
                pending[p] -= 1
                if pending[p] == 0:
                    won[p] = True
                    ready.append(p)
    return all(won[ids[(True, s)]] for s in starts), strategy, len(keys)


def _placement_candidates(n: int, k: int) -> list[int]:
    """Every placement mask of size <= k, ascending; the full-move universe."""
    out = []
    for size in range(k + 1):
        for combo in combinations(range(n), size):
            out.append(mask_of(combo))
    return sorted(out)


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


def contaminate(
    graph: Graph, inert: bool, c: int, r: int, placements: Iterable[int], strict: bool
) -> tuple[list[tuple[int, int]], bool]:
    """One contamination step of the invisible games from placement C with
    contaminated set R, for each announced placement C':

        inert (KW):     R' = (R | Reach_{G-(C&C')}(R & C')) \\ C'
        restless (DPW): R' = Reach_{G-(C&C')}(R) \\ C'

    A move is monotone iff R' is a subset of R.  Returns the pairs (C', R')
    in placement order, ending early at the first R' that is empty (a search
    is won there), and whether some move was not monotone.  With strict
    those moves are left out of the pairs.
    """
    reach = reach_mask
    out = []
    grew = False
    for cp in placements:
        if inert:
            flee = r & cp
            rp = (r | reach(graph, c & cp, flee)) & ~cp if flee else r & ~cp
        else:
            rp = reach(graph, c & cp, r) & ~cp
        if rp & ~r:
            grew = True
            if strict:
                continue
        out.append((cp, rp))
        if not rp:
            break
    return out, grew


def robber_regions(
    graph: Graph, c: int, v: int, placements: Iterable[int], monotone: bool
) -> list[tuple[int, int]]:
    """The visible games' robber step from placement C with the robber on v,
    for each announced placement C': while the cops move, the robber runs
    in G - (C & C'), so it can reach

        space = Reach_{G-(C&C')}({v})   and lands in   R = space \\ C'.

    The move is monotone iff space meets no vertex the cops vacate (C \\ C').
    Returns the pairs (C', R) in placement order; with monotone, the other
    moves are left out.
    """
    reach = reach_mask
    out = []
    for cp in placements:
        space = reach(graph, c & cp, 1 << v)
        if monotone and space & c & ~cp:
            continue
        out.append((cp, space & ~cp))
    return out


def solve_visible(
    graph: Graph,
    config: GameConfig,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    full_moves: bool = False,
) -> SolveOutcome:
    """Decide the visible-robber game (variant TW or DAGW) with config.cops cops.

    TW plays on the symmetric closure of the graph; DAGW on the graph as
    given.  The robber chooses the start, so the cops win only if every
    initial position is won.  A cop node is (C, v); each cop move leads by
    `robber_regions` to the robber node (C', R), whose successors are the
    cop nodes (C', w) for w in R, so announcements that leave the robber the
    same region share one node.  With require_monotone, cop moves that let
    the robber reach a vertex being vacated are pruned (equivalently: such
    plays are awarded to the robber).
    """
    if config.variant not in (Variant.TW, Variant.DAGW):
        raise GraphError(f"solve_visible expects variant tw or dagw, got {config.variant.value}")
    _check_cops(graph, config.cops)
    g = symmetric_closure(graph) if config.variant is Variant.TW else graph
    n = g.vertex_count
    k = config.cops
    mono = config.require_monotone
    if n == 0:
        return SolveOutcome(Winner.COPS, CopStrategy({}), 0)
    full = g.full_mask
    universe = _placement_candidates(n, k) if full_moves else None

    def cop_moves(key):
        c, v = key
        cands = universe if universe is not None else normalized_moves(c, k, full)
        return robber_regions(g, c, v, cands, mono)

    def robber_moves(key):
        cp, r = key
        return [(cp, w) for w in bits_of(r)]

    starts = [(0, v) for v in range(n)]
    cops_win, raw, states = _solve_reachability_game(starts, cop_moves, robber_moves, budget)
    if not cops_win:
        return SolveOutcome(Winner.ROBBER, None, states)
    moves = {ck: rk[0] for ck, rk in raw.items()}
    return SolveOutcome(Winner.COPS, CopStrategy(moves), states)


def _single_bits(mask: int) -> Iterable[int]:
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def solve_invisible(
    graph: Graph,
    config: GameConfig,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the invisible-robber game (variant KW or DPW) with config.cops cops.

    One-player search over states (placement C, contaminated set R) from
    (empty, all vertices).  Each normalized cop move updates R by
    `contaminate` (inert robber for KW, restless for DPW), and the cops win
    iff some placement sequence empties R.  Under require_monotone every move
    must keep R' a subset of R; the others are pruned.  The witness is the
    placement sequence found.
    """
    if config.variant not in (Variant.KW, Variant.DPW):
        raise GraphError(f"solve_invisible expects variant kw or dpw, got {config.variant.value}")
    _check_cops(graph, config.cops)
    n = graph.vertex_count
    k = config.cops
    mono = config.require_monotone
    inert = config.variant is Variant.KW
    if n == 0:
        return SolveOutcome(Winner.COPS, (), 0)
    full = graph.full_mask
    start = (0, full)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    stack = [start]
    while stack:
        state = stack.pop()
        c, r = state
        # staying put leaves (C, R) unchanged, so only real moves are tried
        moves, _ = contaminate(graph, inert, c, r, normalized_moves(c, k, full)[1:], mono)
        for nxt in moves:  # (C', R'), also the key of the next state
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


def solve_entanglement(
    graph: Graph,
    k: int,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveOutcome:
    """Decide the entanglement game with k cops.

    Rounds: from position (C, robber at v) the cops announce C' = C, or
    C | {v} if a spare cop exists, or (C | {v}) minus one currently placed
    cop; then the robber must move along an edge to some v' outside C'.
    A robber without such an edge is caught (cops win); infinite play is a
    robber win.  There is no monotonicity notion here.
    """
    _check_cops(graph, k)
    n = graph.vertex_count
    if n == 0:
        return SolveOutcome(Winner.COPS, CopStrategy({}), 0)
    succ = graph.succ_masks

    def cop_moves(key):
        c, v = key
        vb = 1 << v
        out = [(c, v)]
        if c.bit_count() < k:
            out.append((c | vb, v))
        entered = c | vb
        for b in _single_bits(c):
            out.append((entered ^ b, v))
        return out

    def robber_moves(key):
        c, v = key
        return [(c, w) for w in bits_of(succ[v] & ~c)]

    starts = [(0, v) for v in range(n)]
    cops_win, raw, states = _solve_reachability_game(starts, cop_moves, robber_moves, budget)
    if not cops_win:
        return SolveOutcome(Winner.ROBBER, None, states)
    moves = {ck: rk[0] for ck, rk in raw.items()}
    return SolveOutcome(Winner.COPS, CopStrategy(moves), states)


def solve(
    graph: Graph,
    variant: Variant,
    k: int,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    require_monotone: bool = True,
) -> SolveOutcome:
    """Decide the game of `variant` with k cops by its solver.

    require_monotone does not apply to ENT, which has no monotonicity notion.
    """
    if variant is Variant.ENT:
        return solve_entanglement(graph, k, budget=budget)
    config = GameConfig(variant, k, require_monotone)
    if variant in (Variant.KW, Variant.DPW):
        return solve_invisible(graph, config, budget=budget)
    return solve_visible(graph, config, budget=budget)


def measure(
    graph: Graph,
    variant: Variant,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    require_monotone: bool = True,
) -> int:
    """Least winning cop count, reported in the variant's own offset.

    TW and DPW report k-1 where k is the least winning cop count (width k
    means k+1 cops win); DAGW, KW and ENT report the cop count itself.  The
    empty graph yields 0 for every variant.  The budget applies per solve;
    exhaustion raises BudgetExceededError rather than returning a value.
    """
    return measure_detailed(
        graph, variant, budget=budget, require_monotone=require_monotone
    )[0]


def measure_detailed(
    graph: Graph,
    variant: Variant,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    require_monotone: bool = True,
) -> tuple[int, int]:
    """measure() plus the total game states explored across the cop-count scan."""
    if graph.vertex_count == 0:
        return 0, 0
    total = 0
    for k in range(graph.vertex_count + 1):
        out = solve(graph, variant, k, budget=budget, require_monotone=require_monotone)
        total += out.states
        if out.winner is Winner.COPS:
            return (k - 1 if variant in (Variant.TW, Variant.DPW) else k), total
    raise AssertionError("a full placement always wins; unreachable")
