"""Game solvers: frozen small-instance oracles, witnesses, and consistency."""

import pytest

import copwidth.pursuit.games as games
from copwidth import (
    BudgetExceededError,
    GameConfig,
    Graph,
    GraphError,
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
    solve,
    solve_entanglement,
    solve_invisible,
    solve_visible,
    verify_ent_strategy,
    verify_sweep,
)
from copwidth.graphs import bits_of, mask_of


def two_cycle():
    return Graph(["a", "b"], [(0, 1), (1, 0)])


class TestVisible:
    def test_tw_k22(self):
        g = gen_complete_bipartite(2, 2)
        assert solve_visible(g, GameConfig(Variant.TW, 3)).winner is Winner.COPS
        assert solve_visible(g, GameConfig(Variant.TW, 2)).winner is Winner.ROBBER

    def test_dagw_single_vertex(self):
        g = Graph(["a"], [])
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.COPS

    def test_dagw_three_cycle(self):
        g = gen_cycle(3)
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.ROBBER
        assert solve_visible(g, GameConfig(Variant.DAGW, 2)).winner is Winner.COPS

    def test_tw_plays_on_symmetrization(self):
        # one directed edge behaves like an undirected one under TW
        g = Graph(["a", "b"], [(0, 1)])
        assert solve_visible(g, GameConfig(Variant.TW, 2)).winner is Winner.COPS
        # but under DAGW one cop already corners the robber
        assert solve_visible(g, GameConfig(Variant.DAGW, 1)).winner is Winner.COPS

    def test_variant_guard(self):
        with pytest.raises(GraphError):
            solve_visible(two_cycle(), GameConfig(Variant.KW, 1))

    def test_empty_graph_cops_win(self):
        g = Graph([], [])
        assert solve_visible(g, GameConfig(Variant.TW, 0)).winner is Winner.COPS

    def test_cop_budget_guard(self):
        with pytest.raises(GraphError):
            solve_visible(two_cycle(), GameConfig(Variant.TW, 3))

    def test_witness_replays(self):
        cases = [(g, True) for g in (gen_cycle(4), gen_complete_bipartite(2, 2), gen_switch_all(1))]
        cases += [(gen_cycle(4), False), (gen_switch_all(1), False)]
        for variant in (Variant.TW, Variant.DAGW):
            for g, mono in cases:
                k = 0
                while True:
                    out = solve_visible(g, GameConfig(variant, k, require_monotone=mono))
                    if out.winner is Winner.COPS:
                        break
                    k += 1
                assert replay_cop_strategy(g, variant, k, out.witness.moves, require_monotone=mono)

    def test_replay_rejects_lifting_a_reachable_cop(self):
        # one cop on the two-cycle: place it on a, then lift it while the
        # robber sits on b, who can reach a
        moves = {(0, 0): 0b01, (0, 1): 0b01, (0b01, 1): 0}
        assert not replay_cop_strategy(two_cycle(), Variant.DAGW, 1, moves)

    def test_replay_rejects_an_undefined_position(self):
        # placing on a leaves the robber on b, where the strategy says nothing
        moves = {(0, 0): 0b01, (0, 1): 0b01}
        assert not replay_cop_strategy(two_cycle(), Variant.DAGW, 1, moves)

    def test_replay_rejects_a_cop_off_the_graph(self):
        # vertex 5 does not exist in a one-vertex graph
        moves = {(0, 0): 1 << 5, (1 << 5, 0): (1 << 5) | 1}
        assert not replay_cop_strategy(Graph(["a"], []), Variant.DAGW, 2, moves)

    def test_full_moves_same_winner_spot_check(self):
        g = gen_random_digraph(4, 0.5, 99)
        for variant in (Variant.TW, Variant.DAGW):
            for k in range(5):
                cfg = GameConfig(variant, k)
                assert (
                    solve_visible(g, cfg).winner
                    is solve_visible(g, cfg, full_moves=True).winner
                )


class TestInvisible:
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

    def test_monotone_flag_can_matter_for_pruning(self):
        g = two_cycle()
        relaxed = solve_invisible(g, GameConfig(Variant.KW, 2, require_monotone=False))
        assert relaxed.winner is Winner.COPS

    def test_witness_replays_as_certificate(self):
        for variant in (Variant.KW, Variant.DPW):
            for g in (gen_cycle(4), gen_switch_all(1), two_cycle()):
                k = 0
                while True:
                    out = solve_invisible(g, GameConfig(variant, k))
                    if out.winner is Winner.COPS:
                        break
                    k += 1
                cert = SweepCertificate(k, tuple(out.witness))
                rep = verify_sweep(g, cert, variant)
                assert rep.cleared and rep.monotone

    def test_variant_guard(self):
        with pytest.raises(GraphError):
            solve_invisible(two_cycle(), GameConfig(Variant.TW, 1))


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
        "g", [gen_cycle(4), gen_switch_all(1), gen_zadeh(1)], ids=["cycle4", "switch_all1", "zadeh1"]
    )
    def test_witness_replays_as_chase_strategy(self, g):
        k = measure(g, Variant.ENT)
        moves = solve_entanglement(g, k).witness.moves

        def strategy(placement, robber):
            return frozenset(bits_of(moves[(mask_of(placement), robber)]))

        rep = verify_ent_strategy(g, strategy, k)
        assert rep.ok, rep.reason


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

    def test_detailed_counts_states(self):
        value, states = measure_detailed(gen_cycle(3), Variant.DAGW)
        assert value == 2
        assert states > 0


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
        # the largest single solve of the scan (k=5) builds about 40k nodes
        assert measure(gen_switch_all(1), Variant.TW, budget=70_000) == 4


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
            Variant.TW: "solve_visible",
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
