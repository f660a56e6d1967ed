"""Acceptance gate: one test per shipped guarantee, each with its time limit.

Run with -v to get one pass/fail line per guarantee.  Every test does its own
timing and fails if it blows the stated allowance, so a pass here certifies
both the mathematics and the performance envelope.
"""

import math
import time

from copwidth import (
    GameConfig,
    Variant,
    Winner,
    dpw_sweep_certificate_switch_all,
    ent_strategy_switch_all,
    gen_complete_bipartite,
    gen_switch_all,
    gen_zadeh,
    lemma_bipartite_witness,
    measure,
    run_report,
    solve_entanglement,
    solve_invisible,
    solve_visible,
    symmetric_closure,
    verify_ent_strategy,
    verify_family_expr,
    verify_sweep,
)


def suite(summary, name):
    """The suite called name in a `run_property_suites` summary."""
    return next(s for s in summary.suites if s.name == name)


def test_01_generator_vertex_and_edge_counts():
    for n in range(1, 17):
        assert gen_switch_all(n).vertex_count == 10 * n + 4
        assert gen_zadeh(n).vertex_count == 13 * n + 3
    assert gen_switch_all(1).edge_count == 27
    z = gen_zadeh(3)
    clique = [z.id_of(f"k{i}") for i in range(1, 4)]
    for u in clique:
        for w in clique:
            if u != w:
                assert z.has_edge(u, w) and z.has_edge(w, u)


def test_02_treewidth_grows_without_bound():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        wn, left, right = lemma_bipartite_witness(k)
        assert wn == math.ceil(k / 2) + k - 1
        assert len(left) == len(right) == k
        h = symmetric_closure(gen_switch_all(wn))
        for a in left:
            for b in right:
                assert h.has_edge(a, b) and h.has_edge(b, a)
    for k in (2, 3):
        assert measure(gen_complete_bipartite(k, k), Variant.TW) == k
    assert time.perf_counter() - t0 < 30


def test_03_four_cop_sweep_clears_under_restless_semantics():
    t0 = time.perf_counter()
    for n in range(1, 9):
        cert = dpw_sweep_certificate_switch_all(n)
        assert cert.cops == 4
        rep = verify_sweep(gen_switch_all(n), cert, Variant.DPW)
        assert rep.cleared and rep.monotone, f"n={n}: {rep}"
    out = solve_invisible(gen_switch_all(1), GameConfig(Variant.DPW, 4))
    assert out.winner is Winner.COPS
    assert time.perf_counter() - t0 < 60


def test_04_same_sweep_clears_under_inert_semantics():
    t0 = time.perf_counter()
    for n in range(1, 9):
        rep = verify_sweep(
            gen_switch_all(n), dpw_sweep_certificate_switch_all(n), Variant.KW
        )
        assert rep.cleared and rep.monotone, f"n={n}: {rep}"
    assert time.perf_counter() - t0 < 60


def test_05_four_cops_beat_the_visible_robber():
    t0 = time.perf_counter()
    out = solve_visible(gen_switch_all(1), GameConfig(Variant.DAGW, 4))
    assert out.winner is Winner.COPS
    entry = {
        e.measure: e for e in run_report("switch-all", n_exact=1, n_cert=2).entries
    }["dagw"]
    assert entry.provenance == "certificate" and entry.verified
    assert "carried over" in entry.note
    assert time.perf_counter() - t0 < 300


def test_06_three_cops_win_the_entanglement_game():
    t0 = time.perf_counter()
    assert solve_entanglement(gen_switch_all(1), 3).winner is Winner.COPS
    for n in range(1, 5):
        rep = verify_ent_strategy(gen_switch_all(n), ent_strategy_switch_all(n), 3)
        assert rep.ok, f"n={n}: {rep.reason}"
    assert time.perf_counter() - t0 < 300


def test_07_expressions_match_generators_with_fixed_colour_budgets():
    t0 = time.perf_counter()
    for n in range(1, 9):
        sw = verify_family_expr("switch-all", n)
        assert sw.equal and sw.colour_count == 10, f"n={n}: {sw}"
        za = verify_family_expr("zadeh", n)
        assert za.equal and za.colour_count == 9, f"n={n}: {za}"
    assert time.perf_counter() - t0 < 10


def test_08_visible_and_inert_widths_stay_within_one_of_restless(property_suites):
    result = suite(property_suites, "width-inequality")
    assert result.cases == 200
    assert result.passed, result.failures[:3]
    assert result.seconds < 600


def test_09_entanglement_one_characterization_matches_the_game(property_suites):
    result = suite(property_suites, "entanglement-one")
    assert result.cases == 66166
    assert result.passed, result.failures[:3]
    assert result.seconds < 600


def test_10_acyclic_graphs_have_entanglement_zero(property_suites):
    result = suite(property_suites, "acyclic-entanglement")
    assert result.cases == 50
    assert result.passed, result.failures[:3]
    assert result.seconds < 60


def test_11_move_normalization_preserves_winners(property_suites):
    result = suite(property_suites, "move-normalization")
    assert result.cases == 100
    assert result.passed, result.failures[:3]
    assert result.seconds < 600
