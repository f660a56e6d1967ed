"""Bound-table reports, property suites, and the command-line front end."""

import argparse
import ast
import dataclasses
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import copwidth
from copwidth import (
    CLAIMED_BOUNDS,
    GraphError,
    MeasureEntry,
    MeasureReport,
    REFERENCE_NOTE,
    SolveOutcome,
    Variant,
    Winner,
    gen_random_dag,
    gen_random_digraph,
    gen_switch_all,
    measure,
    run_report,
    serialize_graph,
    solve,
)
from copwidth import cliquewidth, families, graphs
from copwidth.pursuit import certificates, games
from copwidth.report_cli import cli, report
from copwidth.report_cli.cli import build_parser, main

# The modules that declare the public API, in the order copwidth.__all__ lists them.
PUBLIC_MODULES = (graphs, families, games, certificates, cliquewidth, report)

# Report JSON at n_exact=1, n_cert=2 with `seconds` stripped.  Regenerate a
# file only for an intended change to the report, and say so in the change.
GOLDEN = Path(__file__).resolve().parent / "golden"


def subparser(parser, name):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(x) for x in obj]
    return obj


def assert_matches_golden(rep, name):
    text = json.dumps(strip_seconds(dataclasses.asdict(rep)), indent=2) + "\n"
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def switch_all_report():
    return run_report("switch-all", n_exact=1, n_cert=2)


@pytest.fixture(scope="module")
def zadeh_report():
    return run_report("zadeh", n_exact=1, n_cert=2)


class TestSwitchAllReport:
    def test_all_verified(self, switch_all_report):
        assert switch_all_report.all_verified

    def test_entry_order(self, switch_all_report):
        assert [e.measure for e in switch_all_report.entries] == [
            "tw", "dpw", "dagw", "kw", "ent", "cw",
        ]

    def test_claims(self, switch_all_report):
        claims = {e.measure: e.claimed for e in switch_all_report.entries}
        assert claims == {
            "tw": "unbounded", "dpw": 3, "dagw": 4, "kw": 4, "ent": 3, "cw": 10,
        }

    def test_small_instance_exact_values(self, switch_all_report):
        exact = {e.measure: e.exact for e in switch_all_report.entries}
        assert exact == {
            "tw": 4, "dpw": 1, "dagw": 2, "kw": 2, "ent": 1, "cw": None,
        }

    def test_exact_refinements_never_exceed_integer_claims(self, switch_all_report):
        for e in switch_all_report.entries:
            if isinstance(e.claimed, int) and e.exact is not None:
                assert e.exact <= e.claimed

    def test_provenances(self, switch_all_report):
        prov = {e.measure: e.provenance for e in switch_all_report.entries}
        assert prov == {
            "tw": "witness-subgraph",
            "dpw": "certificate",
            "dagw": "certificate",
            "kw": "certificate",
            "ent": "certificate",
            "cw": "cw-expression",
        }

    def test_reference_rows(self, switch_all_report):
        rows = switch_all_report.reference_rows
        assert [r["family"] for r in rows] == [
            "switch-best", "random-edge", "random-facet", "least-considered", "snare",
        ]
        for r in rows:
            assert r["provenance"] == "not-checked"
            assert r["note"] == REFERENCE_NOTE
        snare = rows[-1]["claimed"]
        assert snare["cw"] == "unknown"
        assert snare["tw"] == "unbounded"

    def test_json_schema(self, switch_all_report):
        doc = dataclasses.asdict(switch_all_report)
        assert doc["family"] == "switch-all"
        assert doc["all_verified"] is True
        assert isinstance(doc["n_exact"], int) and isinstance(doc["n_cert"], int)
        for e in doc["entries"]:
            assert set(e) == {
                "measure", "claimed", "obtained", "exact",
                "provenance", "verified", "seconds", "note",
            }
            assert isinstance(e["seconds"], (int, float))
            assert isinstance(e["verified"], bool)
            for key in ("obtained", "exact"):
                assert e[key] is None or isinstance(e[key], int)
            assert isinstance(e["claimed"], (int, str))

    def test_matches_golden_report(self, switch_all_report):
        assert_matches_golden(switch_all_report, "report-switch-all.json")

    def test_deterministic_up_to_timing(self, switch_all_report):
        again = run_report("switch-all", n_exact=1, n_cert=2)
        assert strip_seconds(dataclasses.asdict(again)) == strip_seconds(
            dataclasses.asdict(switch_all_report)
        )


class TestZadehReport:
    def test_all_verified(self, zadeh_report):
        assert zadeh_report.all_verified

    def test_matches_golden_report(self, zadeh_report):
        assert_matches_golden(zadeh_report, "report-zadeh.json")

    def test_every_game_measure_unbounded(self, zadeh_report):
        claims = {e.measure: e.claimed for e in zadeh_report.entries}
        assert claims == {
            "tw": "unbounded", "dpw": "unbounded", "dagw": "unbounded",
            "kw": "unbounded", "ent": "unbounded", "cw": 9,
        }

    def test_small_instance_exact_values(self, zadeh_report):
        exact = {e.measure: e.exact for e in zadeh_report.entries}
        assert exact["dpw"] == 2
        assert exact["dagw"] == 3
        assert exact["kw"] == 3
        assert exact["ent"] == 2

    def test_colour_budget_is_nine(self, zadeh_report):
        cw = zadeh_report.entries[-1]
        assert cw.measure == "cw"
        assert cw.obtained == 9 and cw.verified


class TestBudgetStarvation:
    def test_tiny_budget_degrades_without_failing(self):
        rep = run_report("switch-all", n_exact=1, n_cert=2, budget=5)
        assert rep.all_verified  # not-checked entries are exempt
        by_measure = {e.measure: e for e in rep.entries}
        assert by_measure["cw"].verified
        starved = [e for e in rep.entries if e.provenance == "not-checked"]
        assert starved
        for e in starved:
            assert "budget" in e.note
            assert not e.verified and e.obtained is None and e.exact is None

    # (measure, provenance, verified, obtained, exact, note) of every entry of
    # run_report("switch-all", n_exact=1, n_cert=2, budget=b), pinned: which
    # entries a starved budget downgrades, and how their notes read
    _UNCHECKED = "state budget {b} exhausted before the entry could be checked"
    _SPENT = "state budget {b} exhausted during the exact solve; "
    _TW = (
        "k-by-k bipartite witness embeds in the symmetric closure for k<=3, and "
        "the measure of the standalone k-by-k graph is exactly k for k in {{2,3}}; "
        "the witness order grows with n"
    )
    _KW = "the same 4-cop sweep replays cleared and monotone under inert semantics for n in 1..2"
    _CW = ("cw", "cw-expression", True, 10, None, "expression evaluates to the generator "
           "edge-for-edge with exactly 10 colours for n in 1..2")
    _PINNED = {
        5: [
            ("tw", "not-checked", False, None, None, _UNCHECKED),
            ("dpw", "not-checked", False, None, None, _UNCHECKED),
            ("dagw", "not-checked", False, None, None, _UNCHECKED),
            ("kw", "certificate", True, 4, None, _SPENT + _KW),
            ("ent", "not-checked", False, None, None, _UNCHECKED),
            _CW,
        ],
        10: [
            ("tw", "witness-subgraph", True, None, None, _SPENT + _TW),
            ("dpw", "not-checked", False, None, None, _UNCHECKED),
            ("dagw", "not-checked", False, None, None, _UNCHECKED),
            ("kw", "certificate", True, 4, None, _SPENT + _KW),
            ("ent", "not-checked", False, None, None, _UNCHECKED),
            _CW,
        ],
        50: [
            ("tw", "witness-subgraph", True, None, 4, _TW),
            ("dpw", "not-checked", False, None, None, _UNCHECKED),
            ("dagw", "not-checked", False, None, None, _UNCHECKED),
            ("kw", "certificate", True, 4, None, _SPENT + _KW),
            ("ent", "not-checked", False, None, None, _UNCHECKED),
            _CW,
        ],
        200: [
            ("tw", "witness-subgraph", True, None, 4, _TW),
            ("dpw", "certificate", True, 3, 1,
             "4-cop sweep replays cleared and monotone for n in 1..2; "
             "exact solve at n=1 confirms 4 cops win"),
            ("dagw", "certificate", True, 4, 2,
             "bound carried over from the restless-sweep certificate: a monotone "
             "open-loop clearing also wins the visible game with the same cop count; "
             "cross-checked by an exact visible-game solve at n=1"),
            ("kw", "certificate", True, 4, 2, _KW),
            ("ent", "not-checked", False, None, None, _UNCHECKED),
            _CW,
        ],
    }

    @pytest.mark.parametrize("budget", sorted(_PINNED))
    def test_starved_entries_are_pinned(self, budget):
        rep = run_report("switch-all", n_exact=1, n_cert=2, budget=budget)
        got = [
            (e.measure, e.provenance, e.verified, e.obtained, e.exact, e.note)
            for e in rep.entries
        ]
        want = [(*row[:5], row[5].format(b=budget)) for row in self._PINNED[budget]]
        assert got == want

    def test_exact_solve_rows_exhausted_in_the_solve_are_not_checked(self):
        # zadeh's dpw, dagw, kw and ent rows rest on the exact solve alone
        rep = run_report("zadeh", n_exact=1, n_cert=2, budget=5)
        assert rep.all_verified
        by_measure = {e.measure: e for e in rep.entries}
        for name in ("dpw", "dagw", "kw", "ent"):
            e = by_measure[name]
            assert (e.provenance, e.verified, e.obtained, e.exact, e.note) == (
                "not-checked", False, None, None,
                "state budget 5 exhausted during the exact solve",
            )


class TestCrossChecks:
    def test_each_game_is_solved_once(self, monkeypatch):
        # every (variant, cop count) solved on the small instance, seen
        # through the solver bindings in the games module
        small = gen_switch_all(1)
        solved = []
        for name in ("solve_visible", "solve_invisible", "solve_entanglement"):

            def wrapper(graph, arg, *, _fn=getattr(games, name), **kwargs):
                if graph == small:  # arg is a GameConfig, or the cop count for ent
                    key = (Variant.ENT, arg) if isinstance(arg, int) else (arg.variant, arg.cops)
                    solved.append(key)
                return _fn(graph, arg, **kwargs)

            monkeypatch.setattr(games, name, wrapper)
        run_report("switch-all", n_exact=1, n_cert=2)
        least_winning = {Variant.DPW: 2, Variant.DAGW: 2, Variant.KW: 2, Variant.ENT: 1}
        for variant, k_star in least_winning.items():
            assert sorted(k for v, k in solved if v is variant) == list(range(k_star + 1))

    def test_claimed_cop_counts_win_on_the_small_instance(self):
        # the fixed-k verdicts the cross-checks used to solve, now implied by
        # the exact values being within the claims
        g = gen_switch_all(1)
        for variant, k in ((Variant.DPW, 4), (Variant.DAGW, 4), (Variant.ENT, 3)):
            assert solve(g, variant, k).winner is Winner.COPS
        for variant in (Variant.DPW, Variant.DAGW, Variant.KW, Variant.ENT):
            assert measure(g, variant) <= CLAIMED_BOUNDS["switch-all"][variant.value]

    def test_budget_for_the_exact_scan_verifies(self):
        # 3,000 states cover every solve of the dagw and ent scans; the
        # 3-cop ent game, which the scan does not play, builds 1,048 nodes
        rep = run_report("switch-all", n_exact=1, n_cert=2, budget=3_000)
        by_measure = {e.measure: e for e in rep.entries}
        for name, exact in (("dagw", 2), ("ent", 1)):
            e = by_measure[name]
            assert (e.provenance, e.verified, e.exact) == ("certificate", True, exact)
            assert e.obtained == e.claimed

    def test_exhausted_exact_scan_leaves_the_cross_check_undone(self):
        # dpw's winning k=2 takes 64 contaminated sets on switch-all(1)
        rep = run_report("switch-all", n_exact=1, n_cert=2, budget=50)
        dpw = {e.measure: e for e in rep.entries}["dpw"]
        assert (dpw.provenance, dpw.verified, dpw.obtained, dpw.exact) == (
            "not-checked", False, None, None,
        )
        assert dpw.note == "state budget 50 exhausted before the entry could be checked"


class TestClaimsAreChecked:
    # each certificate's cop count, in the measure's offset, meets its claim
    # exactly (dpw 4-1, dagw 4, kw 4, ent 3), so a claim one lower must fail
    @pytest.mark.parametrize("name", ["dpw", "dagw", "kw", "ent", "cw"])
    def test_lowered_claim_fails_exactly_that_entry(self, name, monkeypatch):
        claims = CLAIMED_BOUNDS["switch-all"]
        monkeypatch.setitem(claims, name, claims[name] - 1)
        rep = run_report("switch-all", n_exact=1, n_cert=2)
        assert [e.measure for e in rep.entries if not e.verified] == [name]
        assert {e.measure: e for e in rep.entries}[name].obtained is None
        assert not rep.all_verified

    def test_lowered_claim_makes_the_report_command_fail(self, monkeypatch, capsys):
        monkeypatch.setitem(CLAIMED_BOUNDS["switch-all"], "kw", 3)
        rc = main(["report", "--family", "switch-all", "--n-exact", "1", "--n-cert", "2"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        kw = next(e for e in doc["entries"] if e["measure"] == "kw")
        assert (kw["claimed"], kw["obtained"], kw["verified"]) == (3, None, False)

    @pytest.mark.parametrize("name", ["dpw", "kw", "ent"])
    def test_note_names_the_certificate_cop_count(self, name):
        # "4-cop sweep", "confirms 3 cops win": each count written in a note
        # is the one its certificate replay returns
        rows = {row[0]: row for row in report._ROWS[copwidth.FamilyId.SWITCH_ALL][1]}
        counts = re.findall(r"(\d+)-cop|confirms (\d+) cops", rows[name][3])
        cops, _ = certificates._CERTIFICATES[copwidth.FamilyId.SWITCH_ALL, Variant(name)](1)
        assert counts and all(int(a or b) == cops for a, b in counts)


class TestMeasureEntryValidation:
    def test_unknown_measure_rejected(self):
        with pytest.raises(GraphError, match="measure"):
            MeasureEntry("pw", 1, 1, None, "exact-solve", True, 0.0)

    def test_unknown_provenance_rejected(self):
        with pytest.raises(GraphError, match="provenance"):
            MeasureEntry("tw", 1, 1, None, "hearsay", True, 0.0)

    def test_obtained_above_claim_rejected(self):
        with pytest.raises(GraphError, match="exceeds"):
            MeasureEntry("dpw", 3, 4, None, "exact-solve", True, 0.0)

    def test_not_checked_entries_are_exempt(self):
        e = MeasureEntry("dpw", 3, None, None, "not-checked", False, 0.0)
        assert not e.verified
        rep = MeasureReport("switch-all", 1, 1, [e])
        assert rep.all_verified


class TestRunReportSizes:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_cert": "2"}, "n_cert must be a positive integer, got '2'"),
            ({"n_cert": True}, "n_cert must be a positive integer, got True"),
            ({"n_cert": 2.5}, "n_cert must be a positive integer, got 2.5"),
            ({"n_cert": 0}, "n_cert must be a positive integer, got 0"),
            ({"n_exact": 1.0}, "n_exact must be a positive integer, got 1.0"),
            ({"n_exact": 0}, "n_exact must be a positive integer, got 0"),
            ({"budget": True}, "budget must be a positive integer, got True"),
            ({"budget": "5"}, "budget must be a positive integer, got '5'"),
            ({"budget": 2.5}, "budget must be a positive integer, got 2.5"),
            ({"budget": 0}, "budget must be a positive integer, got 0"),
        ],
    )
    def test_bad_size_names_its_argument(self, kwargs, message):
        with pytest.raises(GraphError) as err:
            run_report("zadeh", **kwargs)
        assert str(err.value) == message

    def test_family_without_a_bound_row_rejected(self):
        with pytest.raises(GraphError, match="no bound row for family 'cycle'"):
            run_report("cycle")


class TestSuiteFailures:
    """A suite whose check is made to disagree reports each failing case
    with the serialized graph, and does not pass."""

    @staticmethod
    def assert_failed(res, first_graph, detail):
        doc = dataclasses.asdict(res)
        assert doc["passed"] is False and not res.passed
        assert doc["failures"][0] == {
            "graph": serialize_graph(first_graph).decode("ascii"),
            "detail": detail,
        }

    def test_width_inequality(self, monkeypatch):
        values = {Variant.TW: 1, Variant.DPW: 0, Variant.DAGW: 2, Variant.KW: 2}
        monkeypatch.setattr(report, "measure", lambda g, variant: values[variant])
        res = report._suite_width_inequality(0)
        assert len(res.failures) == 2 * res.cases == 400
        self.assert_failed(res, gen_random_digraph(1, 0.15, 0), "dagw 2 > dpw 0 + 1")
        assert res.failures[1]["detail"] == "kw 2 > dpw 0 + 1"

    def test_width_inequality_against_tw(self, monkeypatch):
        values = {Variant.TW: 0, Variant.DPW: 1, Variant.DAGW: 2, Variant.KW: 2}
        monkeypatch.setattr(report, "measure", lambda g, variant: values[variant])
        res = report._suite_width_inequality(0)
        assert len(res.failures) == 2 * res.cases == 400
        self.assert_failed(res, gen_random_digraph(1, 0.15, 0), "dagw 2 > tw 0 + 1")
        assert res.failures[1]["detail"] == "kw 2 > tw 0 + 1"

    def test_entanglement_one(self, monkeypatch):
        # the exhaustive part cut to the two one-vertex digraphs per size
        one_vertex = report._all_digraphs
        monkeypatch.setattr(report, "_all_digraphs", lambda n: one_vertex(1))
        real = report.entanglement_is_one
        monkeypatch.setattr(report, "entanglement_is_one", lambda g: not real(g))
        res = report._suite_entanglement_one(0)
        assert len(res.failures) == res.cases == 4 * 2 + 100
        first = next(one_vertex(1))
        self.assert_failed(res, first, "characterization True but game False")

    def test_acyclic_entanglement(self, monkeypatch):
        monkeypatch.setattr(report, "measure", lambda g, variant: 1)
        res = report._suite_acyclic_entanglement(0)
        assert len(res.failures) == res.cases == 50
        self.assert_failed(res, gen_random_dag(1, 0.4, 0), "acyclic graph measured ent 1")

    def test_move_normalization(self, monkeypatch):
        lost = SolveOutcome(Winner.ROBBER, None, 0)
        monkeypatch.setattr(report, "_play_visible", lambda *args: lost)
        res = report._suite_move_normalization(0)
        # the first graph is one vertex, where one cop wins both games
        self.assert_failed(
            res, gen_random_digraph(1, 0.35, 0), "tw at k=1: normalized cops vs full robber"
        )


class TestCliGen:
    def test_json_to_stdout(self, capsys):
        assert main(["gen", "--family", "switch-all", "--n", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["vertices"]) == 14

    def test_dot_to_file(self, tmp_path):
        out = tmp_path / "g.dot"
        rc = main(
            ["gen", "--family", "zadeh", "--n", "1",
             "--format", "dot", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith("digraph")

    def test_bipartite_second_side(self, capsys):
        assert main(["gen", "--family", "bipartite", "--n", "2", "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["vertices"]) == 5
        assert len(doc["edges"]) == 12

    def test_bad_n_exits_nonzero(self, capsys):
        assert main(["gen", "--family", "cycle", "--n", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [(["bipartite", "--n", "2", "--k", "0"], "--k", 0),
         (["bipartite", "--n", "0"], "--n", 0),
         (["random", "--n", "-1"], "--n", -1)],
    )
    def test_bad_size_names_the_flag(self, argv, flag, value, capsys):
        # the generators' own checks would name their parameters (b, a, v)
        assert main(["gen", "--family", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be a positive integer, got {value}\n"

    @pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
    def test_bad_edge_probability_names_the_flag(self, p, capsys):
        # the generator's own check would name its parameter p
        assert main(["gen", "--family", "random", "--n", "3", "--p", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --p must be a number in [0,1], got {float(p)}\n"

    def test_random_draws_from_the_seed(self, capsys):
        argv = ["gen", "--family", "random", "--n", "5", "--p", "0.5", "--seed", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip() == serialize_graph(gen_random_digraph(5, 0.5, 3)).decode("ascii")


    @pytest.mark.parametrize(
        "family, flag",
        [("cycle", "--k"), ("switch-all", "--k"), ("random", "--k"), ("path", "--p"),
         ("bipartite", "--p"), ("zadeh", "--seed"), ("cycle", "--seed")],
    )
    def test_flag_the_family_does_not_take_exits_nonzero(self, family, flag, capsys):
        assert main(["gen", "--family", family, "--n", "3", flag, "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} does not apply to family {family!r}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [(["certify", "--measure", "dpw", "--family", "switch-all", "--n"], "--n"),
     (["cw", "verify", "--family", "zadeh", "--n"], "--n"),
     (["report", "--family", "switch-all", "--n-exact"], "--n-exact"),
     (["report", "--family", "switch-all", "--n-cert"], "--n-cert")],
)
def test_bad_size_names_the_flag(argv, flag, capsys):
    # the library's own checks would name its parameters (n, n_exact, n_cert)
    assert main([*argv, "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be a positive integer, got 0\n"


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("copwidth ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestCliSolve:
    @pytest.fixture()
    def path4(self, tmp_path):
        f = tmp_path / "path.json"
        assert main(["gen", "--family", "path", "--n", "4", "--out", str(f)]) == 0
        return str(f)

    def test_measure_value(self, path4, capsys):
        assert main(["solve", "--measure", "tw", "--graph", path4]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["measure"] == "tw"
        assert doc["value"] == 1
        assert doc["states_explored"] > 0

    def test_fixed_k_winner(self, path4, capsys):
        rc = main(["solve", "--measure", "dpw", "--graph", path4, "--k", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 1
        assert doc["winner"] == "cops"

    def test_budget_exhaustion_reports_error(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        main(["gen", "--family", "switch-all", "--n", "1", "--out", str(f)])
        rc = main(
            ["solve", "--measure", "dagw", "--graph", str(f), "--budget", "5"]
        )
        assert rc == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", ["solve", "report"])
    def test_non_positive_budget_rejected(self, command, budget, path4, capsys):
        args = {
            "solve": ["solve", "--measure", "kw", "--graph", path4],
            "report": ["report", "--family", "switch-all"],
        }[command]
        assert main(args + ["--budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --budget must be a positive state count, got {budget}\n"

    @pytest.mark.parametrize(
        "k, wanted",
        [("-1", "a non-negative integer"), ("-5", "a non-negative integer"),
         ("5", "at most the vertex count 4")],
        ids=["-1", "-5", "5"],
    )
    def test_bad_k_names_the_flag(self, k, wanted, path4, capsys):
        # the solver's own check would say "cop count"
        assert main(["solve", "--measure", "kw", "--graph", path4, "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --k must be {wanted}, got {k}\n"

    def test_non_monotone_flag_is_gone(self, path4, capsys):
        # every width is the cops' least monotone win, so there is no other game
        with pytest.raises(SystemExit) as info:
            main(["solve", "--measure", "kw", "--graph", path4, "--non-monotone"])
        assert info.value.code == 2
        assert "unrecognized arguments: --non-monotone" in capsys.readouterr().err

    def test_zero_k_is_decided(self, path4, capsys):
        assert main(["solve", "--measure", "kw", "--graph", path4, "--k", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["winner"] == "robber"

    def test_missing_file_reports_error(self, capsys):
        rc = main(["solve", "--measure", "tw", "--graph", "/nonexistent.json"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"vertices": [], "edges": 5}',
            b'{"vertices": [], "edges": null}',
            b"\xff\xfe",
            b"[" * 100_000,
            b'{"vertices":[{"id":0,"name":"\\ud800"}],"edges":[]}',
        ],
        ids=["edges-int", "edges-null", "not-utf8", "deep-nesting", "lone-surrogate"],
    )
    def test_malformed_graph_reports_one_line_error(self, doc, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_bytes(doc)
        assert main(["solve", "--measure", "tw", "--graph", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCliCertify:
    @pytest.mark.parametrize("measure", ["dpw", "kw"])
    def test_sweep_certificates_verify(self, measure, capsys):
        rc = main(
            ["certify", "--measure", measure, "--family", "switch-all", "--n", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["cleared"] and doc["monotone"]
        assert doc["cops"] == 4
        assert doc["step_of_first_violation"] is None

    def test_chase_strategy_verifies(self, capsys):
        rc = main(
            ["certify", "--measure", "ent", "--family", "switch-all", "--n", "1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["cops"] == 3 and not doc["reason"]

    def test_choices_are_the_certificate_table_keys(self):
        certify = subparser(build_parser(), "certify")
        choices = {a.dest: a.choices for a in certify._actions if a.choices}
        keys = list(certificates._CERTIFICATES)
        assert choices["family"] == list(dict.fromkeys(f.value for f, _ in keys))
        assert choices["measure"] == list(dict.fromkeys(m.value for _, m in keys))

    @pytest.mark.parametrize("measure", ["dpw", "kw"])
    def test_sweep_output_is_pinned(self, measure, capsys):
        assert main(["certify", "--measure", measure, "--family", "switch-all", "--n", "2"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            '  "family": "switch-all",\n'
            '  "n": 2,\n'
            f'  "measure": "{measure}",\n'
            '  "cops": 4,\n'
            '  "steps": 45,\n'
            '  "cleared": true,\n'
            '  "monotone": true,\n'
            '  "step_of_first_violation": null,\n'
            '  "ok": true\n'
            '}\n'
        )

    def test_chase_output_is_pinned(self, capsys):
        assert main(["certify", "--measure", "ent", "--family", "switch-all", "--n", "2"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            '  "family": "switch-all",\n'
            '  "n": 2,\n'
            '  "measure": "ent",\n'
            '  "cops": 3,\n'
            '  "ok": true,\n'
            '  "reason": "",\n'
            '  "failure_position": null\n'
            '}\n'
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "key", list(certificates._CERTIFICATES), ids=lambda key: "-".join(k.value for k in key)
    )
    def test_every_certificate_prints_its_own_report(self, key, n, capsys):
        family, measure = key
        _, rep = certificates._CERTIFICATES[key](n)
        argv = ["certify", "--measure", measure.value, "--family", family.value, "--n", str(n)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        fields = [f.name for f in dataclasses.fields(type(rep))]
        assert list(doc) == ["family", "n", "measure", "cops", *fields]

    def test_failed_sweep_replay_exits_1(self, monkeypatch, capsys):
        def empty_sweep(n):
            cert = certificates.SweepCertificate(4, ())
            return 4, certificates.verify_sweep(gen_switch_all(n), cert, Variant.DPW)

        key = copwidth.FamilyId.SWITCH_ALL, Variant.DPW
        monkeypatch.setitem(certificates._CERTIFICATES, key, empty_sweep)
        assert main(["certify", "--measure", "dpw", "--family", "switch-all", "--n", "2"]) == 1
        assert capsys.readouterr().out == (
            '{\n'
            '  "family": "switch-all",\n'
            '  "n": 2,\n'
            '  "measure": "dpw",\n'
            '  "cops": 4,\n'
            '  "steps": 0,\n'
            '  "cleared": false,\n'
            '  "monotone": true,\n'
            '  "step_of_first_violation": null,\n'
            '  "ok": false\n'
            '}\n'
        )

    def test_failed_chase_replay_exits_1(self, monkeypatch, capsys):
        def two_cop_chase(n):
            g, strategy = gen_switch_all(n), certificates.ent_strategy_switch_all(n)
            return 2, certificates.verify_ent_strategy(g, strategy, 2)

        key = copwidth.FamilyId.SWITCH_ALL, Variant.ENT
        monkeypatch.setitem(certificates._CERTIFICATES, key, two_cop_chase)
        assert main(["certify", "--measure", "ent", "--family", "switch-all", "--n", "2"]) == 1
        assert list(json.loads(capsys.readouterr().out).items()) == [
            ("family", "switch-all"),
            ("n", 2),
            ("measure", "ent"),
            ("cops", 2),
            ("ok", False),
            ("reason", "illegal cop move [1, 18] -> [1, 3, 18] against robber at 3"),
            ("failure_position", [[1, 18], 3]),
        ]


class TestCliCw:
    def test_family_choices_are_the_expression_builders(self):
        verify = subparser(subparser(build_parser(), "cw"), "verify")
        (family,) = [a for a in verify._actions if a.dest == "family"]
        assert family.choices == [f.value for f in cliquewidth._BUILDERS]

    @pytest.mark.parametrize("family, colours", [("switch-all", 10), ("zadeh", 9)])
    def test_verify_output_is_pinned(self, family, colours, capsys):
        assert main(["cw", "verify", "--family", family, "--n", "1"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            f'  "family": "{family}",\n'
            '  "n": 1,\n'
            '  "equal": true,\n'
            f'  "colour_count": {colours},\n'
            '  "missing_edges": [],\n'
            '  "extra_edges": [],\n'
            '  "name_issues": []\n'
            '}\n'
        )

    def test_verify_switch_all(self, capsys):
        assert main(["cw", "verify", "--family", "switch-all", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equal"] and doc["colour_count"] == 10
        assert doc["missing_edges"] == [] and doc["extra_edges"] == []

    def test_verify_zadeh(self, capsys):
        assert main(["cw", "verify", "--family", "zadeh", "--n", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equal"] and doc["colour_count"] == 9


class TestCliReport:
    def test_report_writes_json_and_verifies(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["report", "--family", "switch-all", "--n-exact", "1",
             "--n-cert", "2", "--json", str(out)]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out.read_text())
        assert printed == on_disk
        assert on_disk["all_verified"] is True
        assert len(on_disk["entries"]) == 6

    def test_stdout_is_the_report_as_a_dict(self, monkeypatch, capsys):
        reports = []

        def run(*args, **kwargs):
            reports.append(run_report(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_report", run)
        assert main(["report", "--family", "zadeh", "--n-exact", "1", "--n-cert", "2"]) == 0
        (rep,) = reports
        assert capsys.readouterr().out == json.dumps(dataclasses.asdict(rep), indent=2) + "\n"

    def test_unwritable_json_path_fails_before_any_solve(self, tmp_path, monkeypatch, capsys):
        def no_report(*args, **kwargs):
            raise AssertionError("the report ran before its --json file was opened")

        monkeypatch.setattr(cli, "run_report", no_report)
        missing = tmp_path / "no-such-dir" / "r.json"
        assert main(["report", "--family", "switch-all", "--json", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(missing) in captured.err

    def test_starved_report_still_exits_zero(self, capsys):
        rc = main(
            ["report", "--family", "switch-all", "--n-exact", "1",
             "--n-cert", "2", "--budget", "5"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["provenance"] == "not-checked" for e in doc["entries"])


class TestCliSuite:
    def test_suites_pass_and_report_counts(self, capsys, monkeypatch, property_suites):
        # the suites themselves run once per session, in the shared fixture
        seeds = []

        def run(seed):
            seeds.append(seed)
            return property_suites

        monkeypatch.setattr(cli, "run_property_suites", run)
        assert main(["suite", "--seed", "0"]) == 0
        assert seeds == [0]
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True
        # the key order the README documents
        assert list(doc) == ["seed", "suites", "all_passed"]
        for s in doc["suites"]:
            assert list(s) == ["name", "cases", "passed", "failures", "seconds"]
        by_name = {s["name"]: s for s in doc["suites"]}
        assert by_name["width-inequality"]["cases"] == 200
        assert by_name["entanglement-one"]["cases"] == 66166
        assert by_name["acyclic-entanglement"]["cases"] == 50
        assert by_name["move-normalization"]["cases"] == 100
        for s in doc["suites"]:
            assert s["passed"] and s["failures"] == []


    def test_stdout_is_the_summary_as_a_dict(self, capsys, monkeypatch, property_suites):
        monkeypatch.setattr(cli, "run_property_suites", lambda seed: property_suites)
        assert main(["suite"]) == 0
        want = json.dumps(dataclasses.asdict(property_suites), indent=2) + "\n"
        assert capsys.readouterr().out == want


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["copwidth", "copwidth.report_cli.cli"])
    def test_python_m_copwidth_runs_the_cli(self, module):
        # run from a source checkout: src/ on the path, nothing installed
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: copwidth")


def test_public_api_names_resolve():
    assert len(copwidth.__all__) == 61
    assert len(set(copwidth.__all__)) == 61
    assert [n for n in copwidth.__all__ if not hasattr(copwidth, n)] == []


def _top_level_names(module) -> set:
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda m: m.__name__)
def test_public_names_are_defined_where_declared(module):
    # no re-exports: each name in a module's __all__ is defined in that module
    assert set(module.__all__) <= _top_level_names(module)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


def test_package_all_concatenates_the_module_lists():
    declared = [name for module in PUBLIC_MODULES for name in module.__all__]
    assert copwidth.__all__ == declared + ["__version__"]
    assert len(copwidth.__all__) == 61


def _api_sources() -> list:
    """The code that calls the public API: src/, perfbench/ and the README's
    python example."""
    root = Path(__file__).resolve().parents[1]
    files = [p for d in ("src", "perfbench") for p in (root / d).rglob("*.py")]
    sources = [p.read_text(encoding="utf-8") for p in files]
    readme = (root / "README.md").read_text(encoding="utf-8")
    return sources + re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)


def _names_used(source: str) -> set:
    """The names the code loads, reads as an attribute or imports, leaving
    out each definition's uses of its own name.  Docstrings and comments are
    no code, so a name they mention is not used."""
    used = set()
    stack = [(ast.parse(source), frozenset())]
    while stack:
        node, own = stack.pop()
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        if name is not None and name not in own:
            used.add(name)
        stack.extend((child, own) for child in ast.iter_child_nodes(node))
    return used


def test_every_public_name_is_used():
    # A public name nothing calls is dead code that the API pins keep alive.
    # induced_subgraph stays for the induced cores of ROADMAP item 2; drop it
    # from the expected list once they call it.
    used = set().union(*map(_names_used, _api_sources()))
    unused = [n for n in copwidth.__all__ if n not in used and n != "__version__"]
    assert unused == ["induced_subgraph"]


def test_every_public_method_and_property_is_used():
    # The same scan over the methods and properties of the public classes.
    # Dunders are exempt: Python calls them, as bool() calls __bool__.
    used = set().union(*map(_names_used, _api_sources()))
    members = [
        f"{name}.{member}"
        for name in copwidth.__all__
        if inspect.isclass(cls := getattr(copwidth, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and isinstance(value, (types.FunctionType, property, staticmethod, classmethod))
    ]
    assert members
    assert [m for m in members if m.split(".")[1] not in used] == []


def _passed_arguments(sources: list) -> dict:
    """Callee name -> (the positional counts, the keywords) its calls pass,
    a `**` as the keyword None; `partial(f, ...)` counts as a call of f."""
    passed = {}
    for node in (n for source in sources for n in ast.walk(ast.parse(source))):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if getattr(func, "id", None) == "partial" and args:
            func, args = args[0], args[1:]
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        counts, keywords = passed.setdefault(name, (set(), set()))
        counts.add(float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args))
        keywords.update(k.arg for k in node.keywords)
    return passed


def test_every_public_option_is_passed():
    # A defaulted parameter no call passes is an option nobody uses: its
    # default is the only behaviour, and the other branch is dead code.
    passed = _passed_arguments(_api_sources())
    unpassed = []
    for name in copwidth.__all__:
        obj = getattr(copwidth, name)
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
            continue  # enums, constants and __version__
        counts, keywords = passed.get(name, (set(), set()))
        for i, p in enumerate(inspect.signature(obj).parameters.values()):
            if p.default is inspect.Parameter.empty:
                continue
            by_position = p.kind is not p.KEYWORD_ONLY and any(n > i for n in counts)
            if not (by_position or p.name in keywords or None in keywords):
                unpassed.append(f"{name}: {p.name}")
    assert unpassed == []
