"""Game solvers: frozen small-instance oracles, witnesses, and consistency."""

import random
import re
from functools import partial
from itertools import combinations, permutations

import pytest

import copwidth.pursuit.games as games
from copwidth import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    GameConfig,
    Graph,
    GraphError,
    SolveOutcome,
    SweepCertificate,
    Variant,
    Winner,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_digraph,
    gen_switch_all,
    gen_zadeh,
    measure,
    measure_detailed,
    replay_cop_strategy,
    simulate_sweep,
    solve,
    solve_entanglement,
    solve_invisible,
    solve_visible,
    verify_ent_strategy,
    verify_sweep,
)
from copwidth.graphs import (
    bits_of, induced_subgraph, mask_of, reach_mask, serialize_graph, symmetric_closure
)
from copwidth.pursuit import certificates
from copwidth.pursuit.games import contaminate, normalized_moves
from copwidth.report_cli.report import _all_digraphs


def two_cycle():
    return Graph(["a", "b"], [(0, 1), (1, 0)])


def first_win(g, variant):
    """The least k at which the cops win the monotone invisible game, and
    that solve's outcome."""
    k = 0
    while True:
        out = solve_invisible(g, GameConfig(variant, k))
        if out.winner is Winner.COPS:
            return k, out
        k += 1


def replaces_a_cop(witness):
    """Whether some placement adds a vertex that an earlier one held: a
    guard cop put back on a vertex already cleared."""
    held = set()
    prev = frozenset()
    for p in witness:
        if p - prev & held:
            return True
        held |= p
        prev = p
    return False


def search_placements(graph: Graph, k: int, inert: bool) -> SolveOutcome:
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
                if len(parent) >= DEFAULT_STATE_BUDGET:
                    raise BudgetExceededError(DEFAULT_STATE_BUDGET)
                parent[nxt] = state
                stack.append(nxt)
    return SolveOutcome(Winner.ROBBER, None, len(parent))


def assert_searches_agree(g):
    """The contaminated-set search of the monotone invisible games decides
    like the (placement, contaminated set) search at every k up to the
    first win, and its witness replays cleared and monotone."""
    for variant in (Variant.KW, Variant.DPW):
        inert = variant is Variant.KW
        for k in range(g.vertex_count + 1):
            out = solve_invisible(g, GameConfig(variant, k))
            ref = search_placements(g, k, inert)
            assert out.winner is ref.winner, f"{variant.value} k={k}: {serialize_graph(g)}"
            if out.winner is Winner.COPS:
                rep = verify_sweep(g, SweepCertificate(k, out.witness), variant)
                assert rep.cleared and rep.monotone, f"{variant.value} k={k}: {serialize_graph(g)}"
                break


def ent_cops_win(g, k):
    """The entanglement game decided naively: grow the cops' won positions
    (C, v), over every placement C of at most k cops and robber vertex v
    outside C, to a fixpoint.  (C, v) is won when some announcement C' (C;
    C + v with a spare cop; C + v less one placed cop) leaves every robber
    move v -> w with w outside C' on a won position; no such move is a
    capture.  The cops win iff (empty, v) is won for every v."""
    vs = range(g.vertex_count)
    positions = [
        (frozenset(c), v) for size in range(k + 1) for c in combinations(vs, size) for v in vs if v not in c
    ]
    won = set()
    grew = True
    while grew:
        grew = False
        for c, v in positions:
            if (c, v) in won:
                continue
            entered = c | {v}
            announcements = [c] + ([entered] if len(c) < k else []) + [entered - {u} for u in c]
            succ = list(bits_of(g.succ_masks[v]))
            if any(all((cp, w) in won for w in succ if w not in cp) for cp in announcements):
                won.add((c, v))
                grew = True
    return all((frozenset(), v) in won for v in vs)


def assert_ent_witness_replays(g, k, out):
    """The entanglement witness of a cops' win replays as a chase strategy."""
    moves = out.witness.moves

    def strategy(placement, robber):
        return frozenset(bits_of(moves[(mask_of(placement), robber)]))

    rep = verify_ent_strategy(g, strategy, k)
    assert rep.ok, f"k={k}: {rep.reason}: {serialize_graph(g)}"


def assert_tw_agrees(g):
    """solve decides tw, as kw on the symmetric closure, like the visible
    game played move by move on the closure, monotone and not (Seymour &
    Thomas, JCTB 1993), at every k up to the first win; the winning sweep
    replays on the closure under kw rules within k cops; and the scan of
    measure, which starts at the minor-min-width bound, never skips that
    win: the bound is at most k - 1, the measure exactly k - 1."""
    closure = symmetric_closure(g)
    for k in range(g.vertex_count + 1):
        out = solve(g, Variant.TW, k)
        for mono in (True, False):
            ref = games._play_visible(closure, k, mono, False)
            assert out.winner is ref.winner, f"k={k} mono={mono}: {serialize_graph(g)}"
        if out.winner is Winner.COPS:
            rep = simulate_sweep(closure, out.witness, Variant.KW)
            assert rep.cleared and rep.monotone, f"k={k}: {serialize_graph(g)}"
            assert all(len(p) <= k for p in out.witness), f"k={k}: {serialize_graph(g)}"
            assert games._tw_lower_bound(g) <= k - 1, f"k={k}: {serialize_graph(g)}"
            assert measure(g, Variant.TW) == k - 1, f"k={k}: {serialize_graph(g)}"
            return


def assert_dagw_agrees(g):
    """The region search of monotone dagw decides like the visible game
    played move by move with normalized monotone moves, at every k up to
    the first win, and its winning strategy replays."""
    for k in range(g.vertex_count + 1):
        out = solve_visible(g, GameConfig(Variant.DAGW, k))
        ref = games._play_visible(g, k, True, False)
        assert out.winner is ref.winner, f"k={k}: {serialize_graph(g)}"
        if out.winner is Winner.COPS:
            assert replay_cop_strategy(g, Variant.DAGW, k, out.witness.moves), (
                f"k={k}: {serialize_graph(g)}"
            )
            return


class TestVisible:
    def test_tw_k22(self):
        # tw is the visible game on the closure, played as dagw there
        g = gen_complete_bipartite(2, 2)
        closure = symmetric_closure(g)
        for k, winner in ((3, Winner.COPS), (2, Winner.ROBBER)):
            assert solve(g, "tw", k).winner is winner
            assert solve_visible(closure, GameConfig(Variant.DAGW, k)).winner is winner

    def test_dagw_single_vertex(self):
        g = Graph(["a"], [])
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.COPS

    def test_dagw_three_cycle(self):
        g = gen_cycle(3)
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.ROBBER
        assert solve_visible(g, GameConfig(Variant.DAGW, 2)).winner is Winner.COPS

    def test_tw_plays_on_symmetrization(self):
        # one directed edge behaves like an undirected one under TW: two
        # cops win the closure's visible game, one does not
        g = Graph(["a", "b"], [(0, 1)])
        closure = symmetric_closure(g)
        for k, winner in ((2, Winner.COPS), (1, Winner.ROBBER)):
            assert solve(g, "tw", k).winner is winner
            assert solve_visible(closure, GameConfig(Variant.DAGW, k)).winner is winner
        # but under DAGW one cop already corners the robber
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.COPS

    def test_variant_guard(self):
        # solve_visible plays dagw on the graph it is given; tw reaches the
        # closure only through solve
        for variant in (Variant.TW, Variant.KW, Variant.DPW, Variant.ENT):
            message = f"solve_visible expects variant dagw, got {variant.value}$"
            for g in (two_cycle(), Graph(["a", "b"], [(0, 1)]), Graph([], [])):
                with pytest.raises(GraphError, match=message):
                    solve_visible(g, GameConfig(variant, 1 if g.vertex_count else 0))

    def test_empty_graph_cops_win(self):
        g = Graph([], [])
        assert solve(g, "tw", 0).winner is Winner.COPS
        out = solve_visible(symmetric_closure(g), GameConfig(Variant.DAGW, 0))
        assert out.winner is Winner.COPS

    def test_cop_budget_guard(self):
        g = symmetric_closure(two_cycle())
        with pytest.raises(GraphError, match="cop count 3 exceeds vertex count 2"):
            solve_visible(g, GameConfig(Variant.DAGW, 3))

    def test_witness_replays(self):
        # each graph is played as given and, as tw, on its closure
        cases = [(g, True) for g in (gen_cycle(4), gen_complete_bipartite(2, 2), gen_switch_all(1))]
        cases += [(gen_cycle(4), False), (gen_switch_all(1), False)]
        for g, mono in cases:
            for played_on in (symmetric_closure(g), g):
                k = 0
                while True:
                    if mono:
                        out = solve_visible(played_on, GameConfig(Variant.DAGW, k))
                    else:
                        out = games._play_visible(played_on, k, False, False)
                    if out.winner is Winner.COPS:
                        break
                    k += 1
                assert replay_cop_strategy(
                    played_on, Variant.DAGW, k, out.witness.moves, require_monotone=mono
                )

    def test_replay_rejects_lifting_a_reachable_cop(self):
        # one cop on the two-cycle: place it on a, then lift it while the
        # robber sits on b, who can reach a
        moves = {(0, 0): 0b01, (0, 1): 0b01, (0b01, 1): 0}
        assert not replay_cop_strategy(two_cycle(), Variant.DAGW, 1, moves)

    def test_replay_rejects_an_undefined_position(self):
        # placing on a leaves the robber on b, where the strategy says nothing
        moves = {(0, 0): 0b01, (0, 1): 0b01}
        assert not replay_cop_strategy(two_cycle(), Variant.DAGW, 1, moves)

    @pytest.mark.parametrize("cops, shown", [("2", "'2'"), (2.0, "2.0"), (True, "True")])
    def test_replay_rejects_a_cop_count_that_is_not_an_int(self, cops, shown):
        with pytest.raises(GraphError, match=f"got {shown}$"):
            replay_cop_strategy(two_cycle(), Variant.DAGW, cops, {})

    @pytest.mark.parametrize("variant", list(Variant))
    def test_solvers_reject_a_bool_cop_count(self, variant):
        with pytest.raises(GraphError, match="got True$"):
            solve(two_cycle(), variant, True)

    def test_replay_rejects_a_cop_off_the_graph(self):
        # vertex 5 does not exist in a one-vertex graph
        moves = {(0, 0): 1 << 5, (1 << 5, 0): (1 << 5) | 1}
        assert not replay_cop_strategy(Graph(["a"], []), Variant.DAGW, 2, moves)

    @pytest.mark.parametrize("one", [True, 1.0], ids=["bool", "float"])
    def test_replay_rejects_a_move_that_is_not_an_int_mask(self, one):
        # True would pass as the placement 1, and 1.0 has no bitwise ops
        g = gen_cycle(2)
        moves = solve_visible(g, GameConfig(Variant.DAGW, 2)).witness.moves
        assert moves[0, 0] == 1 and replay_cop_strategy(g, Variant.DAGW, 2, moves)
        assert not replay_cop_strategy(g, Variant.DAGW, 2, {**moves, (0, 0): one})

    def test_replay_plays_the_variant_it_names(self):
        # one cop wins dagw on a single edge, but tw there, the game on the
        # closure, needs two; a str variant replays the game its Variant does
        g = Graph(["a", "b"], [(0, 1)])
        moves = solve_visible(g, GameConfig(Variant.DAGW, 1)).witness.moves
        for dagw in (Variant.DAGW, "dagw"):
            assert replay_cop_strategy(g, dagw, 1, moves)
            assert not replay_cop_strategy(symmetric_closure(g), dagw, 1, moves)

    @pytest.mark.parametrize(
        "variant",
        [Variant.KW, Variant.DPW, Variant.ENT, Variant.TW, "kw", "dpw", "ent", "tw"],
    )
    def test_replay_rejects_a_variant_without_a_visible_game(self, variant):
        # the one visible game on the graph as given is dagw's; tw's is
        # played on the closure
        message = f"replay_cop_strategy expects variant dagw, got {Variant(variant).value}$"
        for g in (two_cycle(), Graph(["a", "b"], [(0, 1)])):
            with pytest.raises(GraphError, match=message):
                replay_cop_strategy(g, variant, 2, {})

    def test_non_monotone_reference_never_needs_more_cops(self):
        # a monotone winning strategy wins the non-monotone game too, so the
        # reference the tests take non-monotone values from is first won at
        # no more cops than solve_visible
        for i in range(12):
            g = gen_random_digraph(4 + i % 3, 0.3 + 0.1 * (i % 3), 2100 + i)
            for played_on in (symmetric_closure(g), g):
                k = 0
                while solve_visible(played_on, GameConfig("dagw", k)).winner is not Winner.COPS:
                    k += 1
                out = games._play_visible(played_on, k, False, False)
                assert out.winner is Winner.COPS, f"k={k}: {serialize_graph(played_on)}"

    def test_full_moves_same_winner_spot_check(self):
        g = gen_random_digraph(4, 0.5, 99)
        for played_on in (symmetric_closure(g), g):
            for k in range(5):
                full = games._play_visible(played_on, k, True, True)
                assert solve_visible(played_on, GameConfig(Variant.DAGW, k)).winner is full.winner


class TestVisibleRobberStep:
    """The visible games step the robber by `contaminate` from his region
    Reach_{G-C}(v); the reference is the rule that step replaced."""

    def test_contaminate_from_the_region_is_the_robber_step(self):
        # every placement C, robber vertex v outside C and announcement C':
        # the robber runs in G - (C & C'), lands outside C', and the move is
        # monotone (R' within R) iff his space meets no vacated vertex (C \ C')
        for n in range(1, 4):
            for g in _all_digraphs(n):
                full = g.full_mask
                for c in range(full + 1):
                    for v in bits_of(full & ~c):
                        region = reach_mask(g, c, 1 << v)
                        for cp in range(full + 1):
                            space = reach_mask(g, c & cp, 1 << v)
                            out = games.contaminate(g, False, c, region, (cp,), False)
                            assert out == [(cp, space & ~cp)], serialize_graph(g)
                            [(_, rp)] = out
                            assert bool(rp & ~region) == bool(space & c & ~cp), serialize_graph(g)

    def test_restless_shortcut_matches_the_full_reach(self):
        # for every R closed in G - C and disjoint from C, and every C': the
        # step searches only from the vacated vertices with an in-neighbour
        # in R, none when no cop is lifted, and must agree with the full reach
        for n in range(1, 4):
            for g in _all_digraphs(n):
                full = g.full_mask
                for c in range(full + 1):
                    for r in range(full + 1):
                        if r & c or reach_mask(g, c, r) != r:
                            continue
                        for cp in range(full + 1):
                            rp = reach_mask(g, c & cp, r) & ~cp
                            out = games.contaminate(g, False, c, r, (cp,), False)
                            assert out == [(cp, rp)], serialize_graph(g)
        # seeded graphs of 5-7 vertices, R = Reach_{G-C}(seeds), and C' that
        # lift several cops at once
        rng = random.Random(0)
        lifts = set()
        for n in (5, 6, 7):
            for seed in range(8):
                g = gen_random_digraph(n, rng.choice((0.2, 0.35, 0.5)), seed)
                for _ in range(40):
                    c = rng.getrandbits(n)
                    r = reach_mask(g, c, rng.getrandbits(n) & ~c)
                    for cp in [rng.getrandbits(n) for _ in range(6)] + [c & rng.getrandbits(n)]:
                        rp = reach_mask(g, c & cp, r) & ~cp
                        out = games.contaminate(g, False, c, r, (cp,), False)
                        assert out == [(cp, rp)], serialize_graph(g)
                        if r:
                            lifts.add(min((c & ~cp).bit_count(), 3))
        # moves lifting no cop, one, two and three or more all occur
        assert lifts == {0, 1, 2, 3}


class TestInvisible:
    @pytest.mark.parametrize("variant", [Variant.KW, Variant.DPW])
    def test_empty_graph_cops_win_at_once(self, variant):
        out = solve_invisible(Graph([], []), GameConfig(variant, 0))
        assert (out.winner, out.witness, out.states) == (Winner.COPS, (), 0)

    def test_kw_self_loop_one_cop(self):
        g = Graph(["v"], [(0, 0)])
        out = solve_invisible(g, GameConfig(Variant.KW, 1))
        assert out.winner is Winner.COPS

    def test_kw_two_cycle(self):
        g = two_cycle()
        assert solve_invisible(g, GameConfig(Variant.KW, 1)).winner is Winner.ROBBER
        assert solve_invisible(g, GameConfig(Variant.KW, 2)).winner is Winner.COPS

    def test_dpw_dag_one_cop(self):
        g = gen_path(5)
        out = solve_invisible(g, GameConfig(Variant.DPW, 1))
        assert out.winner is Winner.COPS

    def test_witness_replays_as_certificate(self):
        small = (gen_cycle(4), gen_switch_all(1), two_cycle())
        seeded = [gen_random_digraph(6 + i % 2, 0.35, 500 + i) for i in range(6)]
        cases = [(v, g) for v in (Variant.KW, Variant.DPW) for g in small + tuple(seeded)]
        cases.append((Variant.KW, gen_zadeh(1)))
        replaced = False
        for variant, g in cases:
            k, out = first_win(g, variant)
            cert = SweepCertificate(k, tuple(out.witness))
            rep = verify_sweep(g, cert, variant)
            assert rep.cleared and rep.monotone, f"{variant.value}: {serialize_graph(g)}"
            replaced |= variant is Variant.KW and replaces_a_cop(out.witness)
        # the rebuilt sweep lifts the cops outside each step's guard; some
        # later guard must need one back on its already cleared vertex
        assert replaced

    def test_contaminated_set_search_matches_placement_search(self):
        for n in range(1, 4):
            for g in _all_digraphs(n):
                assert_searches_agree(g)

    def test_contaminated_set_search_matches_on_seeded_graphs(self):
        for i in range(40):
            assert_searches_agree(gen_random_digraph(4 + i % 4, 0.3 + 0.1 * (i % 3), 700 + i))

    def test_contaminated_set_search_matches_on_sparse_graphs(self):
        # p = 0.2 leaves several SCCs and weak components to split
        for i in range(30):
            assert_searches_agree(gen_random_digraph(6 + i % 3, 0.2, 900 + i))

    def test_states_count_contaminated_sets(self):
        # two cops lose kw on zadeh(1) after 300 connected contaminated sets
        # over its SCCs; the unsplit search walked 27,344 sets
        out = solve_invisible(gen_zadeh(1), GameConfig(Variant.KW, 2))
        assert out.winner is Winner.ROBBER and out.states == 300

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("shape", ["two_cycles", "joined_triangles"])
    def test_sweep_over_several_sccs_and_components(self, shape, order):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        if shape == "two_cycles":
            edges[2:] = [(2, 3), (3, 0), (4, 5), (5, 4)]
        else:
            edges.append((2, 3))
        if order == "reversed":
            edges = [(5 - a, 5 - b) for a, b in edges]
        g = Graph([str(v) for v in range(6)], edges)
        for variant in (Variant.KW, Variant.DPW):
            k, out = first_win(g, variant)
            assert k == 2
            assert all(len(p) <= k for p in out.witness)
            rep = verify_sweep(g, SweepCertificate(k, out.witness), variant)
            assert rep.cleared and rep.monotone, f"{variant.value}: {serialize_graph(g)}"

    def test_variant_guard(self):
        with pytest.raises(GraphError):
            solve_invisible(two_cycle(), GameConfig(Variant.TW, 1))


def assert_sweep_of(g, order):
    """The placements `_sweep_of` builds along a clearing order change one
    vertex each, hold exactly u's guard when they land on u, and replay
    cleared and monotone: restless guards under dpw and kw, inert guards
    under kw."""
    for inert, semantics in ((False, Variant.DPW), (False, Variant.KW), (True, Variant.KW)):
        placements = games._sweep_of(g, inert, order)
        cert = SweepCertificate(g.vertex_count, placements)  # one vertex per step
        shown = f"{semantics.value} inert={inert} order={order}: {serialize_graph(g)}"
        rep = verify_sweep(g, cert, semantics)
        assert rep.cleared and rep.monotone, shown
        masks = [mask_of(p) for p in placements]
        r = g.full_mask
        for u in order:
            landed = next(p for p in masks if p & u)
            assert landed == games._guard(g.succ_masks, inert, r, u) | u, shown
            r ^= u


class TestSweepOf:
    """`_sweep_of` on clearing orders other than the solvers' own."""

    def test_every_order_on_all_small_digraphs(self):
        for n in range(1, 4):
            for g in _all_digraphs(n):
                for order in permutations([1 << v for v in range(n)]):
                    assert_sweep_of(g, list(order))

    def test_shuffled_orders_on_seeded_graphs(self):
        rng = random.Random(0)
        for i in range(300):
            g = gen_random_digraph(4 + i % 5, 0.2 + 0.1 * (i % 4), 1300 + i)
            order = [1 << v for v in range(g.vertex_count)]
            for _ in range(5):
                rng.shuffle(order)
                assert_sweep_of(g, order)


def looped_digraph(n, p, seed):
    """A seeded digraph on n vertices whose ordered pairs (u, w), loops
    u == w included, are edges independently with probability p."""
    rng = random.Random(seed)
    edges = [(u, w) for u in range(n) for w in range(n) if rng.random() < p]
    return Graph([str(v) for v in range(n)], edges)


def union_bit_loop(succ, r):
    """The loop-free successor union over R, one vertex at a time."""
    into = 0
    for v in bits_of(r):
        into |= succ[v] & ~(1 << v)
    return into


def clearable_bit_loop(succ, pred, inert, k, r):
    """`_clearable` as it was before the `_union` tables: the restless guard
    by `_guard` and the lone vertex by a loop over the predecessor masks."""
    if inert:
        ok = 0
        todo = r
        while todo:
            u = todo & -todo
            todo ^= u
            space, out = games._spread(succ, r, u)
            if (out & ~r).bit_count() < k:
                ok |= space
                todo &= ~space
            else:
                todo &= ~games._spread(pred, r, u)[0]
    else:
        ok = r if games._guard(succ, False, r, r).bit_count() < k else 0
    todo = ok
    while todo:
        u = todo & -todo
        todo ^= u
        if not pred[u.bit_length() - 1] & r & ~u:
            return u
    return ok


SIZES = [1, 7, 8, 9, 16, 17, 42]  # a partial last chunk, whole chunks and one past


class TestUnionKernel:
    """The chunked `_union` tables of the contaminated-set search against
    the bit loops they replace."""

    @pytest.mark.parametrize("n", SIZES)
    def test_union_equals_the_bit_loop(self, n):
        rng = random.Random(n)
        for p in (0.1, 0.3, 0.6):
            g = looped_digraph(n, p, 7000 + n)
            _, succ, _, _, tables = games._scc_masks(g)
            masks = [0, g.full_mask, *(1 << v for v in range(n))]
            masks += [rng.getrandbits(n) for _ in range(200)]
            for r in masks:
                want = union_bit_loop(succ, r)
                assert games._union(tables, r) == want, f"r={r:b}: {serialize_graph(g)}"

    @pytest.mark.parametrize("variant", [Variant.KW, Variant.DPW, Variant.DAGW])
    @pytest.mark.parametrize("n", SIZES)
    def test_clearable_equals_the_bit_loop(self, n, variant):
        inert = variant is Variant.KW
        rng = random.Random(n)
        for p in (0.15, 0.3, 0.6):
            g = looped_digraph(n, p, 8000 + n)
            scopes, succ, pred, _, tables = games._scc_masks(g)
            for scope in scopes:
                for _ in range(40):
                    r = scope & rng.getrandbits(n)
                    if variant is Variant.DAGW and r:
                        # a robber region Reach_{G[R]}(w) of a random R
                        r = games._spread(succ, r, r & -r)[0]
                    for k in range(1, 5):
                        got = games._clearable(succ, pred, tables, inert, k, r)
                        want = clearable_bit_loop(succ, pred, inert, k, r)
                        assert got == want, f"k={k} r={r:b}: {serialize_graph(g)}"

    def test_a_vertex_whose_only_in_neighbour_in_r_is_itself_is_lone(self):
        # a 3-cycle with a loop on every vertex: in R = {0, 1} vertex 0 is
        # entered only by its own loop and by 2, which is cleared
        g = Graph(["0", "1", "2"], [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
        _, succ, pred, _, tables = games._scc_masks(g)
        for inert in (True, False):
            assert games._clearable(succ, pred, tables, inert, 2, 0b011) == 0b001

    def test_tables_live_in_the_one_graph_cache_only(self):
        # tables kept on graphs would live as long as every graph a caller
        # holds (the family certificate checks hold dozens); the cache keeps
        # the last solved graph's tables only
        games._scc_masks.cache_clear()
        first, second = gen_zadeh(2), gen_switch_all(1)
        fields = [getattr(first, name) for name in Graph.__slots__]
        assert solve(first, Variant.DPW, 1).winner is Winner.ROBBER
        tables = games._scc_masks(first)[4]
        assert len(tables) <= -(-first.vertex_count // 8)
        assert all(len(t) <= 256 for t in tables)
        assert [getattr(first, name) for name in Graph.__slots__] == fields
        assert solve(second, Variant.DPW, 1).winner is Winner.ROBBER
        info = games._scc_masks.cache_info()
        assert info.currsize == 1
        games._scc_masks(second)
        assert games._scc_masks.cache_info().hits == info.hits + 1
        games._scc_masks(first)  # rebuilt: the second solve dropped it
        assert games._scc_masks.cache_info().misses == info.misses + 1


class TestDagwOverRegions:
    def test_agrees_with_the_visible_game_on_all_small_digraphs(self):
        for n in range(1, 4):
            for g in _all_digraphs(n):
                assert_dagw_agrees(g)

    def test_agrees_with_the_visible_game_on_seeded_graphs(self):
        # p from 0.15 to 0.45: sparse graphs split into several SCCs and
        # regions, dense ones keep one SCC
        for i in range(300):
            assert_dagw_agrees(gen_random_digraph(4 + i % 5, 0.15 + 0.1 * (i % 4), 3000 + i))

    @pytest.mark.parametrize(
        "gen, value", [(gen_switch_all, 3), (gen_zadeh, 4)], ids=["switch_all_2", "zadeh_2"]
    )
    def test_family_value_at_n2(self, gen, value):
        # the visible game built 84,721 and 1,309,322 nodes over these scans
        g = gen(2)
        got, states = measure_detailed(g, Variant.DAGW)
        assert got == value and states < 10_000
        out = solve_visible(g, GameConfig(Variant.DAGW, value))
        assert replay_cop_strategy(g, Variant.DAGW, value, out.witness.moves)

    def test_states_count_regions(self):
        # two cops lose dagw on zadeh(1) after 72 regions over its SCCs,
        # where the visible game built 3,034 nodes
        out = solve_visible(gen_zadeh(1), GameConfig(Variant.DAGW, 2))
        assert out.winner is Winner.ROBBER and out.states == 72


class TestTreewidthAsKellyWidth:
    def test_agrees_with_the_visible_game_on_all_small_digraphs(self):
        for n in range(1, 4):
            for g in _all_digraphs(n):
                assert_tw_agrees(g)

    def test_agrees_with_the_visible_game_on_seeded_graphs(self):
        for i in range(96):
            assert_tw_agrees(gen_random_digraph(4 + i % 4, 0.2 + 0.1 * (i % 4), 1300 + i))

    def test_require_monotone_does_not_change_tw(self):
        # monotone and non-monotone tw coincide, so the non-monotone game on
        # the closure is also first won at tw + 1 cops
        g = gen_zadeh(1)
        tw = measure(g, Variant.TW)
        closure = symmetric_closure(g)
        for k, winner in ((tw, Winner.ROBBER), (tw + 1, Winner.COPS)):
            out = games._play_visible(closure, k, False, False)
            assert out.winner is winner, f"k={k}"

    def test_least_closure_win_replays_on_all_small_digraphs(self):
        # the visible game on the closure, played move by move, is first won
        # at tw + 1 cops, and its strategy replays there as dagw
        for n in range(1, 4):
            for g in _all_digraphs(n):
                closure = symmetric_closure(g)
                k = 0
                while (out := games._play_visible(closure, k, True, False)).winner is Winner.ROBBER:
                    k += 1
                where = serialize_graph(g)
                assert k - 1 == measure(g, "tw"), where
                assert replay_cop_strategy(closure, "dagw", k, out.witness.moves), where

    @pytest.mark.parametrize(
        "gen, value", [(gen_switch_all, 5), (gen_zadeh, 4)], ids=["switch_all_2", "zadeh_2"]
    )
    def test_family_value_at_n2(self, gen, value):
        # out of reach of the visible game: it lost k=5 on switch-all(2)
        # and k=4 on zadeh(2) after about a million nodes each
        g = gen(2)
        assert measure(g, Variant.TW) == value
        out = solve(g, Variant.TW, value + 1)
        rep = simulate_sweep(symmetric_closure(g), out.witness, Variant.KW)
        assert rep.cleared and rep.monotone
        assert all(len(p) <= value + 1 for p in out.witness)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lower_bound_on_the_families(self, n):
        # least-c minor-min-width meets tw on both families, so the scan
        # starts at the winning k
        assert games._tw_lower_bound(gen_switch_all(n)) == n + 3
        assert games._tw_lower_bound(gen_zadeh(n)) == n + 2

    @pytest.mark.parametrize(
        "gen, n, value, most",
        [(gen_switch_all, 2, 5, 1_000), (gen_switch_all, 3, 6, 10_000), (gen_zadeh, 3, 5, 10_000)],
        ids=["switch_all_2", "switch_all_3", "zadeh_3"],
    )
    def test_family_scan_starts_at_the_lower_bound(self, gen, n, value, most):
        # from k = 0 the scans took 69,857, 2,033,176 and 1,102,024 sets;
        # from the bound they solve the winning k alone (163, 3,604, 1,490)
        got, states = measure_detailed(gen(n), Variant.TW, budget=10_000)
        assert got == value and states < most

    def test_scan_builds_the_per_graph_set_up_once(self, monkeypatch):
        # the caches are keyed by graph equality, so an earlier solve of an
        # equal graph would already hold the set-up
        games._closure.cache_clear()
        games._scc_masks.cache_clear()
        calls = {"symmetric_closure": 0, "_components": 0}
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(games, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(games, name, counted)
        g = gen_zadeh(1)
        assert measure(g, Variant.TW) == 3
        assert calls == {"symmetric_closure": 1, "_components": 1}
        # the kw and dpw scans of one graph share its SCC masks
        assert (measure(g, Variant.KW), measure(g, Variant.DPW)) == (3, 2)
        assert calls == {"symmetric_closure": 1, "_components": 2}


class TestEntanglement:
    def test_acyclic_zero_cops(self):
        assert solve_entanglement(gen_path(4), 0).winner is Winner.COPS

    def test_single_vertex_no_edges_zero_cops(self):
        assert solve_entanglement(Graph(["a"], []), 0).winner is Winner.COPS

    def test_cycle_one_cop(self):
        assert solve_entanglement(gen_cycle(4), 1).winner is Winner.COPS

    def test_cycle_zero_cops_robber_loops(self):
        assert solve_entanglement(gen_cycle(4), 0).winner is Winner.ROBBER

    def test_self_loop_needs_one_cop(self):
        g = Graph(["a"], [(0, 0)])
        assert solve_entanglement(g, 0).winner is Winner.ROBBER
        assert solve_entanglement(g, 1).winner is Winner.COPS

    def test_switch_all_three_cops(self):
        out = solve_entanglement(gen_switch_all(1), 3)
        assert out.winner is Winner.COPS

    @pytest.mark.parametrize(
        "g",
        [gen_cycle(4), gen_switch_all(1), gen_zadeh(1), gen_zadeh(2)]
        + [gen_random_digraph(5 + i % 3, 0.4, 300 + i) for i in range(4)],
        ids=["cycle4", "switch_all1", "zadeh1", "zadeh2", "rand0", "rand1", "rand2", "rand3"],
    )
    def test_witness_replays_as_chase_strategy(self, g):
        # the witness covers the won part of a partly built game graph
        k = measure(g, Variant.ENT)
        assert_ent_witness_replays(g, k, solve_entanglement(g, k))

    def test_zadeh3_four_cops_win_within_the_default_budget(self):
        # the solve stops once every start is won: 90,000 nodes, where the
        # whole reachable game graph runs past the 5M budget
        g = gen_zadeh(3)
        out = solve_entanglement(g, 4)
        assert out.winner is Winner.COPS
        assert_ent_witness_replays(g, 4, out)

    def test_states_stop_once_every_start_is_won(self):
        # bounds, not counts: the whole reachable game graphs of these scans
        # have 130,287 and 2,538 nodes on zadeh(2) and zadeh(1)
        for g, width, bound in ((gen_zadeh(1), 2, 1_300), (gen_zadeh(2), 3, 30_000)):
            value, states = measure_detailed(g, Variant.ENT)
            assert value == width and states < bound

    def test_matches_the_naive_fixpoint(self):
        graphs = [g for n in range(1, 4) for g in _all_digraphs(n)]
        graphs += [gen_random_digraph(4 + i % 2, 0.4 + 0.15 * (i % 3), 1100 + i) for i in range(20)]
        for g in graphs:
            for k in range(g.vertex_count + 1):
                out = solve_entanglement(g, k)
                assert (out.winner is Winner.COPS) == ent_cops_win(g, k), f"k={k}: {serialize_graph(g)}"
                if out.winner is Winner.COPS:
                    assert_ent_witness_replays(g, k, out)


def eager_solve_cop_game(n, regions, budget):
    """The game graph solve that `games._solve_cop_game` replaced, kept as
    its reference: nodes are expanded breadth-first in the order they are
    built, and a robber node (C', R) builds every (C', w), w in R, at once
    and waits on all of them."""
    tables = ({}, {})
    keys, is_cop, preds, pending, won = [], [], [], [], []
    moves = {}
    starts = 0

    def intern(key, cop):
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
    for nid, (c, x) in enumerate(keys):
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
        for i in ready:
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
        return games.SolveOutcome(Winner.ROBBER, None, len(keys))
    return games.SolveOutcome(Winner.COPS, games.CopStrategy(moves), len(keys))


def assert_full_move_witness_replays(g, k, out, mono):
    """A full-move visible-game witness wins: every move is a placement of
    at most k cops, and every play ends in capture."""

    def replies(c, v):
        cp = out.witness.moves.get((c, v))
        if cp is None or cp.bit_count() > k or cp & ~g.full_mask:
            return "undefined or illegal cop move"
        step = games.contaminate(g, False, c, reach_mask(g, c, 1 << v), (cp,), mono)
        return step[0] if step else "the robber reaches a vacated vertex"

    assert certificates._replay_positional(0, g.full_mask, replies) is None, (
        f"k={k} mono={mono}: {serialize_graph(g)}"
    )


class TestLocalSolveMatchesTheEagerReference:
    """`_solve_cop_game`, whose robber nodes wait on one successor not yet
    won, decides every game it is given like the eager solve it replaced,
    and each of its cops' wins replays."""

    GRAPHS = [g for n in range(1, 4) for g in _all_digraphs(n)] + [
        gen_random_digraph(4 + i % 4, (0.25, 0.4, 0.55)[i % 3], 4200 + i) for i in range(12)
    ]

    @staticmethod
    def games_of(g, k):
        """(game, mono, solve) of every game played on `_solve_cop_game`: the
        entanglement game, and the visible game, monotone or not, with
        normalized moves and, on at most 5 vertices, with full moves."""
        yield "ent", None, partial(solve_entanglement, g, k)
        for mono in (True, False):
            yield "visible", mono, partial(games._play_visible, g, k, mono, False)
            if g.vertex_count <= 5:
                yield "full", mono, partial(games._play_visible, g, k, mono, True)

    def test_same_winner_and_the_wins_replay(self, monkeypatch):
        outcomes = set()
        for g in self.GRAPHS:
            for k in range(g.vertex_count + 1):
                for game, mono, play in self.games_of(g, k):
                    out = play()
                    with monkeypatch.context() as m:
                        m.setattr(games, "_solve_cop_game", eager_solve_cop_game)
                        ref = play()
                    where = f"{game} mono={mono} k={k}: {serialize_graph(g)}"
                    assert out.winner is ref.winner, where
                    outcomes.add((game, mono, out.winner))
                    if out.winner is not Winner.COPS:
                        continue
                    if game == "ent":
                        assert_ent_witness_replays(g, k, out)
                    elif game == "visible":
                        moves = out.witness.moves
                        assert replay_cop_strategy(g, Variant.DAGW, k, moves, require_monotone=mono), where
                    else:
                        assert_full_move_witness_replays(g, k, out, mono)
        # every game is won by each side somewhere
        assert len(outcomes) == 2 * 5


class TestMeasure:
    def test_tw_of_bipartite_cliques(self):
        assert measure(gen_complete_bipartite(3, 3), Variant.TW) == 3
        assert measure(gen_complete_bipartite(2, 2), Variant.TW) == 2

    def test_ent_of_isolated_vertex(self):
        assert measure(Graph(["a"], []), Variant.ENT) == 0

    def test_kw_of_two_cycle(self):
        assert measure(two_cycle(), Variant.KW) == 2

    def test_empty_graph_is_zero_everywhere(self):
        g = Graph([], [])
        for variant in Variant:
            assert measure(g, variant) == 0

    def test_offsets_on_a_path(self):
        g = gen_path(4)
        assert measure(g, Variant.TW) == 1  # two cops, reported minus one
        assert measure(g, Variant.DPW) == 0
        assert measure(g, Variant.DAGW) == 1
        assert measure(g, Variant.KW) == 1
        assert measure(g, Variant.ENT) == 0

    def test_switch_all_small_instance_values(self):
        g = gen_switch_all(1)
        assert measure(g, Variant.DPW) == 1
        assert measure(g, Variant.DAGW) == 2
        assert measure(g, Variant.KW) == 2
        assert measure(g, Variant.TW) == 4
        assert measure(g, Variant.ENT) == 1

    def test_str_variant_reads_as_its_variant(self):
        # dpw has the k-1 offset, so a str must be read before the offset too
        g = gen_cycle(3)
        assert measure(g, "kw") == measure(g, Variant.KW)
        for variant in Variant:
            assert measure_detailed(g, variant.value) == measure_detailed(g, variant)
            assert solve(g, variant.value, 2).winner is solve(g, variant, 2).winner
        assert GameConfig("dagw", 2) == GameConfig(Variant.DAGW, 2)
        assert solve_visible(g, GameConfig("dagw", 2)).winner is Winner.COPS

    def test_detailed_counts_states(self):
        value, states = measure_detailed(gen_cycle(3), Variant.DAGW)
        assert value == 2
        assert states > 0


class TestSubgraphMonotonicity:
    """Deleting an edge or a vertex never raises any of the five measures:
    a cop strategy on G plays on a subgraph H, where the robber's options
    are a subset of his options in G."""

    def test_deletion_never_raises_a_measure(self):
        graphs = [g for n in range(1, 4) for g in _all_digraphs(n)]
        graphs += [gen_random_digraph(4 + i % 3, 0.2 + 0.1 * (i % 4), 1700 + i) for i in range(60)]
        for g in graphs:
            names = [g.names[v] for v in range(g.vertex_count)]
            edges = g.edges()
            subgraphs = [Graph(names, edges[:i] + edges[i + 1:]) for i in range(len(edges))]
            subgraphs += [
                induced_subgraph(g, [w for w in range(g.vertex_count) if w != v])
                for v in range(g.vertex_count)
            ]
            for variant in Variant:
                value = measure(g, variant)
                for h in subgraphs:
                    assert measure(h, variant) <= value, f"{variant.value}: {serialize_graph(h)}"


class TestBudget:
    def test_exhaustion_raises(self):
        g = gen_switch_all(2)
        with pytest.raises(BudgetExceededError) as info:
            solve_visible(g, GameConfig(Variant.DAGW, 4), budget=10)
        assert info.value.budget == 10

    def test_exhaustion_from_measure(self):
        with pytest.raises(BudgetExceededError):
            measure(gen_switch_all(2), Variant.DAGW, budget=10)

    def test_tw_of_switch_all_fits_a_small_budget(self):
        # the kw search on the symmetric closure takes 17 sets: the scan
        # starts at the winning k (2,037 sets from k = 0)
        value, states = measure_detailed(gen_switch_all(1), Variant.TW, budget=100)
        assert value == 4 and states < 100

    def test_kw_of_zadeh_fits_a_small_budget(self):
        # the unsplit contaminated-set search lost two cops after 27,344
        # sets; the placement search walked 930,760 states there
        assert measure(gen_zadeh(1), Variant.KW, budget=30_000) == 3

    def test_kw_of_zadeh_fits_the_split_search_budget(self):
        # the scan takes 330 sets over zadeh(1)'s SCCs and weak components
        assert measure(gen_zadeh(1), Variant.KW, budget=2_000) == 3

    @pytest.mark.parametrize(
        "g, variant, value",
        [(gen_switch_all(2), Variant.KW, 3), (gen_switch_all(3), Variant.DPW, 3)],
        ids=["kw_switch_all_2", "dpw_switch_all_3"],
    )
    def test_family_value_with_replayed_witness(self, g, variant, value):
        assert measure(g, variant) == value
        k, out = first_win(g, variant)
        rep = verify_sweep(g, SweepCertificate(k, out.witness), variant)
        assert rep.cleared and rep.monotone

    @pytest.mark.parametrize("budget", ["5", None, True, 2.5, 0, -1], ids=repr)
    def test_bad_budget_rejected_by_every_solver(self, budget):
        # measure reaches all three solvers: kw, dpw and tw solve_invisible,
        # dagw solve_visible, ent solve_entanglement; the empty graph, which
        # no solver sees, is checked as well
        message = re.escape(f"budget must be a positive integer, got {budget!r}") + "$"
        for g in (gen_cycle(3), Graph([], [])):
            for variant in Variant:
                with pytest.raises(GraphError, match=message):
                    measure(g, variant, budget=budget)

    def test_invisible_exhaustion_carries_the_budget(self):
        with pytest.raises(BudgetExceededError) as info:
            solve_invisible(gen_switch_all(1), GameConfig(Variant.KW, 2), budget=7)
        assert info.value.budget == 7


class TestDeterminacyConsistency:
    @pytest.mark.parametrize("seed", range(12))
    def test_cops_win_is_monotone_in_budget(self, seed):
        g = gen_random_digraph(1 + seed % 5, 0.4, 1000 + seed)
        n = g.vertex_count
        for variant in Variant:
            prev = False
            for k in range(n + 1):
                won = solve(g, variant, k).winner is Winner.COPS
                assert not (prev and not won), f"{variant} lost at k={k} after winning"
                prev = won


class TestDispatch:
    def test_measure_and_solve_call_the_module_bindings(self, monkeypatch):
        # wrappers swapped into the games module, as benchmark tracing does,
        # must see every solve, with (graph, config or k) passed positionally
        seen = []
        for name in ("solve_visible", "solve_invisible", "solve_entanglement"):

            def wrapper(graph, arg, *, _name=name, _fn=getattr(games, name), **kwargs):
                seen.append(_name)
                return _fn(graph, arg, **kwargs)

            monkeypatch.setattr(games, name, wrapper)
        expected = {
            Variant.TW: "solve_invisible",
            Variant.DAGW: "solve_visible",
            Variant.KW: "solve_invisible",
            Variant.DPW: "solve_invisible",
            Variant.ENT: "solve_entanglement",
        }
        for variant, name in expected.items():
            seen.clear()
            assert measure(gen_cycle(3), variant) >= 0
            assert seen and set(seen) == {name}
            seen.clear()
            assert solve(gen_cycle(3), variant, 3).winner is Winner.COPS
            assert seen == [name]

    def test_solve_visible_sees_only_dagw(self, monkeypatch):
        # tw reaches the closure through solve_invisible, so the visible
        # solver, and the benchmark's games.visible metrics, see dagw alone
        configs = []
        real = games.solve_visible

        def recorded(graph, config, **kwargs):
            configs.append(config)
            return real(graph, config, **kwargs)

        monkeypatch.setattr(games, "solve_visible", recorded)
        for g in (gen_cycle(3), gen_random_digraph(5, 0.4, 7), gen_switch_all(1)):
            for variant in Variant:
                measure(g, variant)
                for k in range(g.vertex_count + 1):
                    solve(g, variant, k)
        assert configs and {c.variant for c in configs} == {Variant.DAGW}
