"""Sweep certificates, chase strategies, and structural characterizations."""

import json

import pytest

from copwidth import (
    Graph,
    GraphError,
    SweepCertificate,
    Variant,
    entanglement_is_one,
    feedback_chase_strategy,
    gen_cycle,
    gen_path,
    gen_switch_all,
    dpw_sweep_certificate_switch_all,
    ent_strategy_switch_all,
    simulate_sweep,
    verify_ent_strategy,
    verify_sweep,
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
        assert not rep.cleared
        assert rep.final_contaminated == frozenset(range(3))

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


class TestFamilySweep:
    def test_first_three_placements(self):
        g = gen_switch_all(1)
        cert = dpw_sweep_certificate_switch_all(1)
        names = [frozenset(g.name_of(v) for v in p) for p in cert.placements[:3]]
        assert names == [
            frozenset({"r"}),
            frozenset({"r", "s"}),
            frozenset({"r", "s", "e1"}),
        ]

    def test_final_placement_sweeps_c_last(self):
        g = gen_switch_all(1)
        cert = dpw_sweep_certificate_switch_all(1)
        last = frozenset(g.name_of(v) for v in cert.placements[-1])
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
        first = dict.fromkeys(g.name_of(v) for p in cert.placements for v in p)
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
