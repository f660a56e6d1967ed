"""Sweep certificates, chase strategies, and structural characterizations."""

import json
import random

import pytest

from copwidth import (
    EntVerifyReport,
    GameConfig,
    Graph,
    GraphError,
    SweepCertificate,
    SweepReport,
    Variant,
    Winner,
    entanglement_is_one,
    feedback_chase_strategy,
    gen_cycle,
    gen_path,
    gen_random_digraph,
    gen_switch_all,
    dpw_sweep_certificate_switch_all,
    ent_strategy_switch_all,
    replay_cop_strategy,
    simulate_sweep,
    solve_visible,
    verify_ent_strategy,
    verify_sweep,
)
from copwidth.graphs import (
    _components, _is_acyclic, _is_id, bits_of, is_acyclic, mask_of, reach_mask, symmetric_closure
)
from copwidth.report_cli.report import _all_digraphs
from copwidth.pursuit import certificates, games
from copwidth.pursuit.games import (
    _play_visible,
    contaminate,
    ent_moves,
    normalized_moves,
)


class TestSweepCertificateType:
    def test_budget_violation_rejected(self):
        with pytest.raises(GraphError, match="placement 0"):
            SweepCertificate(1, (frozenset({0, 1}),))

    def test_multi_change_step_rejected(self):
        with pytest.raises(GraphError, match="placement 1"):
            SweepCertificate(3, (frozenset({0}), frozenset({1, 2})))

    def test_first_placement_must_be_single_add(self):
        with pytest.raises(GraphError, match="placement 0"):
            SweepCertificate(3, (frozenset({0, 1}),))

    def test_negative_budget_rejected(self):
        with pytest.raises(GraphError):
            SweepCertificate(-1, ())

    @pytest.mark.parametrize("placement", [{0}, (0,), [0]], ids=["set", "tuple", "list"])
    def test_placement_must_be_a_frozenset(self, placement):
        with pytest.raises(GraphError, match="placement 1 must be a frozenset of vertex ids"):
            SweepCertificate(2, (frozenset({0}), placement))

    def test_non_int_budget_rejected_naming_it(self):
        with pytest.raises(GraphError, match="got '2'"):
            SweepCertificate("2", ())


class TestSweepVerification:
    def test_empty_sequence_clears_nothing(self):
        g = gen_cycle(3)
        rep = verify_sweep(g, SweepCertificate(4, ()), Variant.DPW)
        assert rep.cleared is False and rep.steps == 0 and rep.ok is False

    def test_self_loop_single_placement_under_inert(self):
        g = Graph(["v"], [(0, 0)])
        rep = verify_sweep(g, SweepCertificate(1, (frozenset({0}),)), Variant.KW)
        assert rep.cleared and rep.monotone
        assert rep.ok

    def test_semantics_accepts_strings(self):
        g = Graph(["v"], [(0, 0)])
        rep = simulate_sweep(g, [{0}], "kw")
        assert rep.cleared

    def test_rejects_non_sweep_variant(self):
        g = gen_cycle(3)
        with pytest.raises(GraphError):
            verify_sweep(g, SweepCertificate(1, ()), Variant.TW)

    @pytest.mark.parametrize("vertex, shown", [("a", "'a'"), (1.0, "1.0")])
    def test_non_int_vertex_rejected_naming_it(self, vertex, shown):
        with pytest.raises(GraphError, match=f"got {shown}"):
            simulate_sweep(gen_cycle(3), [[vertex]], "kw")

    @pytest.mark.parametrize("placement", [3, None])
    def test_placement_that_is_not_iterable_rejected_naming_the_step(self, placement):
        wanted = f"^placement 1 must be an iterable of vertex ids, got {placement}$"
        with pytest.raises(GraphError, match=wanted):
            simulate_sweep(gen_cycle(3), [{0}, placement], "kw")

    def test_certificate_with_a_non_int_vertex_rejected(self):
        cert = SweepCertificate(1, (frozenset({"a"}),))
        with pytest.raises(GraphError, match="got 'a'"):
            verify_sweep(gen_cycle(3), cert, "kw")

    def test_steps_count_the_placements_replayed(self):
        g = gen_cycle(3)
        assert simulate_sweep(g, [], "kw").steps == 0
        assert simulate_sweep(g, ({0}, {0, 1}, {1}), "dpw").steps == 3
        # a generator is consumed once, and its placements are still counted
        assert simulate_sweep(g, ({v} for v in range(3)), "kw").steps == 3
        cert = dpw_sweep_certificate_switch_all(2)
        assert verify_sweep(gen_switch_all(2), cert, "dpw").steps == len(cert.placements)

    def test_recontamination_flagged_with_step(self):
        # u keeps itself contaminated through its loop; x is cleared behind
        # the guard on g, and dropping that guard re-contaminates x
        g = Graph(["u", "g", "x"], [(0, 0), (0, 1), (1, 2)])
        placements = (
            frozenset({2}),
            frozenset({2, 1}),
            frozenset({1}),
            frozenset(),
        )
        rep = simulate_sweep(g, placements, Variant.DPW)
        assert not rep.cleared
        assert not rep.monotone
        assert rep.step_of_first_violation == 3
        assert not rep.ok
        relaxed = simulate_sweep(g, placements, Variant.DPW, require_monotone=False)
        assert not relaxed.monotone
        assert relaxed.ok is relaxed.cleared

    def test_vacated_guard_falling_back_is_not_monotone(self):
        # the cop on b leaves and the restless robber from a walks in: R
        # grows from {a} to {a, b}, the same move the solvers prune
        g = Graph(["a", "b"], [(0, 1)])
        rep = simulate_sweep(g, [{1}, set()], "dpw")
        assert not rep.monotone
        assert rep.step_of_first_violation == 1


def _reference_sweep(graph, placements, semantics, require_monotone=True):
    """The per-step loop simulate_sweep replaced, kept as its reference:
    every step is `contaminate` under the semantics' own rule."""
    inert = Variant(semantics) is Variant.KW
    c, r = 0, graph.full_mask
    first_bad = None
    for step, placement in enumerate(placements):
        [(c, rp)] = contaminate(graph, inert, c, r, (mask_of(placement),), strict=False)
        if rp & ~r and first_bad is None:
            first_bad = step
        r = rp
    monotone = first_bad is None
    return SweepReport(
        steps=len(placements),
        cleared=r == 0,
        monotone=monotone,
        step_of_first_violation=first_bad,
        ok=r == 0 and (monotone or not require_monotone),
    )


def _random_placements(rng, n, length):
    """A placement sequence of single cops added and lifted, with now and
    then a jump to an arbitrary placement."""
    c = set()
    out = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.15:
            c = {v for v in range(n) if rng.random() < 0.4}
        elif c and roll < 0.5:
            c.discard(rng.choice(sorted(c)))
        elif n:
            c.add(rng.randrange(n))
        out.append(frozenset(c))
    return out


class TestSweepMatchesThePerStepReference:
    """simulate_sweep, which steps kw restless while R is closed and the
    restless step is monotone, reports what the plain per-step loop does."""

    def test_small_and_seeded_graphs(self, monkeypatch):
        inert_calls = []
        real = certificates.contaminate

        def logged(graph, inert, *args, **kwargs):
            inert_calls.append(inert)
            return real(graph, inert, *args, **kwargs)

        monkeypatch.setattr(certificates, "contaminate", logged)
        graphs = [g for n in range(4) for g in _all_digraphs(n)] + [
            gen_random_digraph(n, p, seed)
            for n in range(4, 8) for p in (0.2, 0.35, 0.5) for seed in range(3)
        ]
        shortcuts = fallbacks = 0
        kinds = set()
        for i, g in enumerate(graphs):
            rng = random.Random(i)
            for _ in range(3):
                placements = _random_placements(rng, g.vertex_count, 2 * g.vertex_count + 2)
                for sem in ("kw", "dpw"):
                    for mono in (True, False):
                        inert_calls.clear()
                        rep = simulate_sweep(g, placements, sem, require_monotone=mono)
                        assert rep == _reference_sweep(g, placements, sem, mono)
                        kinds.add((sem, rep.cleared, rep.monotone))
                        if sem == "kw":
                            # one restless call per step until the first
                            # non-monotone one, which the inert step retakes
                            fell_back = True in inert_calls
                            shortcuts += inert_calls.count(False) - fell_back
                            fallbacks += fell_back
                        else:
                            assert True not in inert_calls
        assert shortcuts and fallbacks
        assert kinds == {(sem, a, b) for sem in ("kw", "dpw") for a in (0, 1) for b in (0, 1)}


@pytest.mark.parametrize("semantics", ["kw", "dpw"])
def test_switch_all_sweep_replays_without_a_search(semantics, monkeypatch):
    calls = []
    real = games.reach_mask

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(games, "reach_mask", counted)
    # the wrapper sees the replay's searches: lifting the guard on b is a
    # restless step that searches from b, under kw too before it retakes it
    simulate_sweep(Graph(["a", "b"], [(0, 1)]), [{1}, set()], semantics)
    assert len(calls) == 1
    calls.clear()
    for n in (1, 8, 32):
        assert verify_sweep(gen_switch_all(n), dpw_sweep_certificate_switch_all(n), semantics)
    assert calls == []


class TestFamilySweep:
    def test_first_three_placements(self):
        g = gen_switch_all(1)
        cert = dpw_sweep_certificate_switch_all(1)
        names = [frozenset(g.names[v] for v in p) for p in cert.placements[:3]]
        assert names == [
            frozenset({"r"}),
            frozenset({"r", "s"}),
            frozenset({"r", "s", "e1"}),
        ]

    def test_final_placement_sweeps_c_last(self):
        g = gen_switch_all(1)
        cert = dpw_sweep_certificate_switch_all(1)
        last = frozenset(g.names[v] for v in cert.placements[-1])
        assert "c" in last
        for p in cert.placements[:-1]:
            assert g.id_of("c") not in p

    @pytest.mark.parametrize("n", [*range(1, 9), 16, 32])
    def test_budget_four_everywhere(self, n):
        g = gen_switch_all(n)
        cert = dpw_sweep_certificate_switch_all(n)
        assert cert.cops == 4 == max(len(p) for p in cert.placements)
        # the declared clearing order, as the order of first placements
        order = ["r", "s"] + [f"{v}{i}" for i in range(1, n + 1) for v in "edgfhk"]
        order += ["x"] + [f"{v}{j}" for j in range(2 * n, 0, -1) for v in "at"] + ["c"]
        first = dict.fromkeys(g.names[v] for p in cert.placements for v in p)
        assert list(first) == order

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("semantics", [Variant.DPW, Variant.KW])
    def test_clears_monotonically(self, n, semantics):
        g = gen_switch_all(n)
        rep = verify_sweep(g, dpw_sweep_certificate_switch_all(n), semantics)
        assert rep.cleared and rep.monotone
        assert rep.step_of_first_violation is None


class TestChaseStrategy:
    def test_cycle_one_cop(self):
        g = gen_cycle(5)
        strat = feedback_chase_strategy(g, 1)
        assert verify_ent_strategy(g, strat, 1).ok

    def test_cycle_zero_cops_fails(self):
        g = gen_cycle(5)
        strat = feedback_chase_strategy(g, 0)
        rep = verify_ent_strategy(g, strat, 0)
        assert not rep.ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_switch_all_three_cops(self, n):
        g = gen_switch_all(n)
        rep = verify_ent_strategy(g, ent_strategy_switch_all(n), 3)
        assert rep.ok
        assert rep.failure_position is None

    def test_non_int_anchor_rejected_naming_it(self):
        with pytest.raises(GraphError, match="got 'a'"):
            feedback_chase_strategy(gen_cycle(3), 1, anchors=("a",))

    def test_anchors_may_be_an_iterator(self):
        g = gen_switch_all(2)  # the chase needs its anchors from n=2 on
        anchors = (g.id_of("r"), g.id_of("s"))
        assert verify_ent_strategy(g, feedback_chase_strategy(g, 3, anchors=iter(anchors)), 3)

    @pytest.mark.parametrize("k, shown", [("1", "'1'"), (1.0, "1.0"), (True, "True"), (-1, "-1")])
    def test_cop_count_that_is_not_a_non_negative_int_rejected(self, k, shown):
        g = gen_cycle(3)
        with pytest.raises(GraphError, match=f"got {shown}$"):
            verify_ent_strategy(g, lambda c, v: c, k)
        with pytest.raises(GraphError, match=f"got {shown}$"):
            feedback_chase_strategy(g, k)

    def test_bool_vertex_in_a_cop_move_is_illegal(self):
        # True would count as vertex 1: one cop entering 1 wins the 2-cycle
        def strategy(c, v):
            return frozenset({True}) if v == 1 else c

        rep = verify_ent_strategy(gen_cycle(2), strategy, 1)
        assert not rep.ok
        assert rep.reason == "illegal cop move [] -> [True] against robber at 1"
        assert verify_ent_strategy(gen_cycle(2), lambda c, v: frozenset({1}) if v == 1 else c, 1)

    def test_illegal_strategy_reported_with_position(self):
        g = gen_cycle(3)

        def greedy_everywhere(c, v):  # jumps two cops at once from empty
            return frozenset({v, (v + 1) % 3})

        rep = verify_ent_strategy(g, greedy_everywhere, 2)
        assert not rep.ok
        assert rep.failure_position is not None
        assert "illegal" in rep.reason

    @pytest.mark.parametrize("placed", [False, True])
    @pytest.mark.parametrize("vertex", [99, -1, "a", 2.0])
    def test_cop_move_to_a_non_vertex_reported_as_illegal(self, vertex, placed):
        # the strategy is caller code: a bad vertex fails the check, never raises
        def strategy(c, v):  # with placed, one legal move comes first
            return c | {v} if placed and not c else c | {vertex}

        rep = verify_ent_strategy(gen_cycle(3), strategy, 2)
        assert not rep.ok
        assert "illegal" in rep.reason
        assert rep.failure_position == (((0,), 1) if placed else ((), 0))

    @pytest.mark.parametrize("move", [5, None, [[0]]])
    def test_cop_move_that_is_no_set_of_vertices_reported_as_illegal(self, move):
        rep = verify_ent_strategy(gen_cycle(3), lambda c, v: move, 1)
        assert not rep.ok
        assert rep.reason == f"illegal cop move [] -> {move!r} against robber at 0"
        assert rep.failure_position == ((), 0)

    def test_stay_with_equal_non_int_vertices_plays_on(self):
        # {0.0} == {0}: the stay is legal and play goes on from the int placement
        def strategy(c, v):
            return frozenset({v}) if not c else frozenset(float(x) for x in c)

        assert verify_ent_strategy(gen_cycle(3), strategy, 1).ok

    def test_idle_strategy_loses_on_a_cycle(self):
        g = gen_cycle(3)
        rep = verify_ent_strategy(g, lambda c, v: c, 1)
        assert not rep.ok

    def test_failure_report_is_json_serializable(self):
        rep = verify_ent_strategy(gen_cycle(3), lambda c, v: c, 1)
        doc = json.loads(json.dumps({"reason": rep.reason, "failure_position": rep.failure_position}))
        # the robber walks 0 -> 1 -> 2 and is back at 0 with no cop placed
        assert doc["failure_position"] == [[], 0]
        assert "infinite play" in doc["reason"]


class TestEntanglementIsOne:
    def test_cycle(self):
        assert entanglement_is_one(gen_cycle(6))

    def test_acyclic(self):
        assert not entanglement_is_one(gen_path(4))

    def test_two_cycles_sharing_a_vertex(self):
        # b->a->b and a->c->a share a; removing a kills both cycles
        g = Graph(["a", "b", "c"], [(0, 1), (1, 0), (0, 2), (2, 0)])
        assert entanglement_is_one(g)

    def test_two_disjoint_cycles(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert entanglement_is_one(g)

    def test_complete_digraph_on_three_needs_more(self):
        g = Graph(["a", "b", "c"], [(u, w) for u in range(3) for w in range(3) if u != w])
        assert not entanglement_is_one(g)

    def test_self_loop_only(self):
        assert entanglement_is_one(Graph(["a"], [(0, 0)]))

    def test_matches_the_definition_on_every_component(self):
        # the definition asks every component, acyclic singletons included,
        # for a feedback vertex; the check skips those that have no cycle
        graphs = [Graph([f"v{i}" for i in range(n)], [
            (u, w) for u in range(n) for w in range(n) if m >> (u * n + w) & 1
        ]) for n in range(1, 4) for m in range(1 << (n * n))]
        graphs += [gen_random_digraph(n, 0.3, seed) for n in (4, 5, 6) for seed in range(20)]
        for g in graphs:
            comps = _components(g, g.full_mask)
            for c in comps:
                assert certificates._cyclic(g, c) is not _is_acyclic(g, c)
            want = not is_acyclic(g) and all(
                certificates._feedback_vertex(g, c) is not None for c in comps
            )
            assert entanglement_is_one(g) is want, g.edges()


def _reference_replay(starts, replies):
    """The positional replay with one colour per (placement, robber) position
    in a dict, the oracle for the mask-per-placement search: replies(pos)
    returns the child positions, or a string saying why the move is illegal."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {}
    for start in starts:
        if colour.get(start, WHITE) is not WHITE:
            continue
        stack = [(start, False)]
        while stack:
            pos, processed = stack.pop()
            if processed:
                colour[pos] = BLACK
                continue
            if colour.get(pos, WHITE) is BLACK:
                continue
            colour[pos] = GREY
            stack.append((pos, True))
            children = replies(pos)
            if isinstance(children, str):
                return children, pos
            for child in children:
                st = colour.get(child, WHITE)
                if st is GREY:
                    return certificates._REPEATS, child
                if st is WHITE:
                    stack.append((child, False))
    return None


def _reference_verify_ent(graph, strategy, k):
    succ = graph.succ_masks
    vertices = frozenset(range(graph.vertex_count))

    def replies(pos):
        c, v = pos
        cp = frozenset(strategy(c, v))
        if cp == c:
            cp = c
        elif not (
            cp <= vertices
            and all(_is_id(w) for w in cp)
            and mask_of(cp) in ent_moves(mask_of(c), v, k)
        ):
            shown = sorted(cp, key=None if cp <= vertices else str)
            return f"illegal cop move {sorted(c)} -> {shown} against robber at {v}"
        return [(cp, w) for w in bits_of(succ[v] & ~mask_of(cp))]

    failure = _reference_replay([(frozenset(), v) for v in range(graph.vertex_count)], replies)
    if failure is None:
        return EntVerifyReport(ok=True)
    reason, (c, v) = failure
    return EntVerifyReport(ok=False, reason=reason, failure_position=(tuple(sorted(c)), v))


def _reference_cop_replay(g, cops, strategy_moves, require_monotone):
    def replies(pos):
        c, v = pos
        cp = strategy_moves.get(pos)
        if cp is None or cp not in normalized_moves(c, cops, g.full_mask):
            return "undefined or illegal cop move"
        moves = contaminate(g, False, c, reach_mask(g, c, 1 << v), (cp,), require_monotone)
        if not moves:
            return "the robber reaches a vacated vertex"
        return [(cp, w) for w in bits_of(moves[0][1])]

    return _reference_replay([(0, v) for v in range(g.vertex_count)], replies)


def _logged(strategy, log):
    def asked(c, v):
        log.append((tuple(sorted(c)), v))
        return strategy(c, v)

    return asked


class _LoggedMoves(dict):
    """A strategy_moves table that logs the positions looked up."""

    def __init__(self, moves, log):
        super().__init__(moves)
        self.log = log

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)


def _random_strategy(seed, k, n, illegal):
    """A positional entanglement strategy drawn per position from a seeded
    generator: a random legal move, and with `illegal` now and then a move
    no rule allows (too many cops, two cops entering, a vertex off the
    graph, or a vertex that is not an int)."""

    def strategy(c, v):
        rng = random.Random(f"{seed}/{sorted(c)}/{v}")
        if illegal and rng.random() < 0.05:
            return rng.choice([
                frozenset(range(k + 1)),
                c | {v, (v + 1) % n},
                c | {n},
                c | {str(v)},
                c | {float(v)},
            ])
        return frozenset(bits_of(rng.choice(ent_moves(mask_of(c), v, k))))

    return strategy


_SMALL_GRAPHS = [
    gen_random_digraph(n, p, seed) for n in (2, 3, 4, 5) for p in (0.3, 0.6) for seed in range(3)
] + [gen_cycle(4), gen_switch_all(1)]


def _least_winning_strategy(g, mono):
    """The least k the cops win the visible game on g at, monotone or not,
    and their winning strategy."""
    def play(k):
        if mono:
            return solve_visible(g, GameConfig(Variant.DAGW, k))
        return _play_visible(g, k, False, False)

    k = 0
    while (out := play(k)).winner is not Winner.COPS:
        k += 1
    return k, out.witness.moves


class TestReplayMatchesTheDictPerPositionReference:
    """The mask-per-placement search gives the report, the failure position
    and the sequence of strategy calls of the dict-per-position DFS."""

    def assert_ent_matches(self, g, strategy, k):
        new_log, ref_log = [], []
        rep = verify_ent_strategy(g, _logged(strategy, new_log), k)
        assert rep == _reference_verify_ent(g, _logged(strategy, ref_log), k)
        assert new_log == ref_log
        return rep

    @pytest.mark.parametrize("illegal", [False, True], ids=["legal", "illegal"])
    def test_random_ent_strategies(self, illegal):
        reasons = set()
        for g in _SMALL_GRAPHS:
            for k in (1, 2, 3):
                for seed in range(3):
                    strategy = _random_strategy(seed, k, g.vertex_count, illegal)
                    rep = self.assert_ent_matches(g, strategy, k)
                    reasons.add(rep.reason.split(" ")[0])
        # wins, infinite plays, and with `illegal` illegal moves all occur
        assert reasons == ({"", "the", "illegal"} if illegal else {"", "the"})

    def test_chase_and_idle_strategies(self):
        oks = set()
        for g in _SMALL_GRAPHS:
            for k in (0, 1, 2):
                oks.add(self.assert_ent_matches(g, lambda c, v: c, k).ok)
                for anchors in ((), (0,), (0, 1)[: g.vertex_count]):
                    strategy = feedback_chase_strategy(g, k, anchors=anchors)
                    oks.add(self.assert_ent_matches(g, strategy, k).ok)
        assert oks == {True, False}

    def test_cop_strategies_and_corrupted_ones(self, monkeypatch):
        failures = []
        real = certificates._replay_positional

        def recorded(*args):
            failures.append(real(*args))
            return failures[-1]

        monkeypatch.setattr(certificates, "_replay_positional", recorded)
        rng = random.Random(0)
        outcomes = set()
        for g in _SMALL_GRAPHS:
            # the visible game of tw is the one on the closure
            for played_on in (symmetric_closure(g), g):
                for mono in (True, False):
                    k, moves = _least_winning_strategy(played_on, mono)
                    corrupted = dict(moves)
                    if moves:
                        pos = rng.choice(sorted(moves))
                        full = played_on.full_mask
                        corrupted[pos] = rng.choice(
                            [m for m in normalized_moves(pos[0], k, full) if m != moves[pos]]
                            + [full, 1 << g.vertex_count]
                        )
                    for table in (moves, corrupted):
                        new_log, ref_log = [], []
                        ok = replay_cop_strategy(
                            played_on, Variant.DAGW, k, _LoggedMoves(table, new_log),
                            require_monotone=mono,
                        )
                        ref = _reference_cop_replay(
                            played_on, k, _LoggedMoves(table, ref_log), mono
                        )
                        assert ok is (ref is None)
                        assert failures[-1] == ref
                        assert new_log == ref_log
                        outcomes.add(ref[0] if ref else "ok")
        assert outcomes == {
            "ok",
            "undefined or illegal cop move",
            "the robber reaches a vacated vertex",
            certificates._REPEATS,
        }


@pytest.mark.parametrize("n, asked", [(1, 67), (2, 197), (4, 621), (8, 2165), (32, 30917)])
def test_switch_all_chase_asks_each_reachable_position_once(n, asked):
    # the sum over n = 1..32 is the benchmark's certificates.ent_chase.positions
    log = []
    rep = verify_ent_strategy(gen_switch_all(n), _logged(ent_strategy_switch_all(n), log), 3)
    assert rep.ok
    assert len(log) == asked
    assert len(set(log)) == asked
