"""Colouring-expression calculus: evaluation rules, builders, serialization."""

import itertools

import pytest
from hypothesis import given, strategies as st

from copwidth import (
    Connect,
    GraphError,
    Port,
    Recolour,
    Union,
    build_switch_all_expr,
    build_zadeh_expr,
    colour_set,
    colours_used,
    eval_expr,
    gen_switch_all,
    gen_zadeh,
    parse_sexpr,
    sexpr,
    verify_family_expr,
)


# parentheses, letters, operator heads (so that some draws parse) and every
# whitespace character (none lies above U+3000)
SEXPR_TOKENS = ["(", ")", "a", "b", "(port a b)", "(union", "(recolour a b", "(connect a b"] + [
    chr(c) for c in range(0x3001) if chr(c).isspace()
]


def edge_names(result):
    g = result.graph
    return {(g.name_of(u), g.name_of(w)) for u, w in g.edges()}


def colour_map(result):
    return dict(zip(result.graph.names, result.colours))


class TestEvalRules:
    def test_port(self):
        r = eval_expr(Port("a", "u"))
        assert r.graph.names == ("u",)
        assert r.colours == ("a",)
        assert r.graph.edge_count == 0

    def test_union_keeps_both_sides(self):
        r = eval_expr(Union(Port("a", "u"), Port("b", "v")))
        assert colour_map(r) == {"u": "a", "v": "b"}
        assert r.graph.edge_count == 0

    def test_union_rejects_shared_names(self):
        with pytest.raises(GraphError, match="^duplicate vertex name 'u'$"):
            eval_expr(Union(Port("a", "u"), Port("b", "u")))

    def test_vertices_numbered_in_port_order(self):
        # the Connect's subtree is the suffix v, w of the numbering
        inner = Connect("b", "c", Union(Port("b", "v"), Port("c", "w")))
        r = eval_expr(Union(Port("a", "u"), inner))
        assert r.graph.names == ("u", "v", "w")
        assert list(r.graph.edges()) == [(1, 2)]
        assert r.colours == ("a", "b", "c")

    def test_connect_two_ports(self):
        r = eval_expr(Connect("a", "b", Union(Port("a", "u"), Port("b", "v"))))
        assert edge_names(r) == {("u", "v")}

    def test_connect_is_directed(self):
        r = eval_expr(Connect("b", "a", Union(Port("a", "u"), Port("b", "v"))))
        assert edge_names(r) == {("v", "u")}

    def test_connect_same_colour_makes_self_loops(self):
        r = eval_expr(Connect("a", "a", Port("a", "x")))
        assert edge_names(r) == {("x", "x")}

    def test_connect_adds_no_duplicates(self):
        inner = Connect("a", "b", Union(Port("a", "u"), Port("b", "v")))
        r = eval_expr(Connect("a", "b", inner))
        assert edge_names(r) == {("u", "v")}

    def test_recolour(self):
        r = eval_expr(Recolour("a", "b", Port("a", "u")))
        assert r.colours == ("b",)

    def test_recolour_identity_when_same(self):
        r = eval_expr(Recolour("a", "a", Port("a", "u")))
        assert r.colours == ("a",)

    def test_recolour_touches_only_matching(self):
        r = eval_expr(Recolour("a", "b", Union(Port("a", "u"), Port("c", "v"))))
        assert colour_map(r) == {"u": "b", "v": "c"}


class TestColourAccounting:
    def test_single_port(self):
        assert colours_used(Port("a", "u")) == 1

    def test_counts_all_mentions(self):
        e = Recolour("a", "b", Connect("a", "c", Port("a", "u")))
        assert colour_set(e) == frozenset({"a", "b", "c"})
        assert colours_used(e) == 3

    def test_switch_all_budget(self):
        assert colours_used(build_switch_all_expr(3)) == 10

    def test_zadeh_budget(self):
        assert colours_used(build_zadeh_expr(3)) == 9

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_budgets_constant_in_n(self, n):
        assert colours_used(build_switch_all_expr(n)) == 10
        assert colours_used(build_zadeh_expr(n)) == 9


class TestBuilders:
    def test_switch_all_n1_vertex_count(self):
        r = eval_expr(build_switch_all_expr(1))
        assert r.graph.vertex_count == 14

    def test_zadeh_n1_vertex_count(self):
        r = eval_expr(build_zadeh_expr(1))
        assert r.graph.vertex_count == 16

    def test_switch_all_n2_has_cross_layer_edge(self):
        r = eval_expr(build_switch_all_expr(2))
        g = r.graph
        assert g.has_edge(g.id_of("k1"), g.id_of("g2"))

    def test_zadeh_t_self_loop(self):
        r = eval_expr(build_zadeh_expr(2))
        g = r.graph
        assert g.has_edge(g.id_of("t"), g.id_of("t"))

    @pytest.mark.parametrize("family,n", [("switch-all", n) for n in range(1, 5)]
                             + [("zadeh", n) for n in range(1, 5)])
    def test_edge_exact_against_generator(self, family, n):
        rep = verify_family_expr(family, n)
        assert rep.equal
        assert not rep.missing_edges and not rep.extra_edges and not rep.name_issues

    def test_truncated_expression_fails_with_missing_edges(self):
        whole = build_switch_all_expr(1)
        rep = verify_family_expr("switch-all", 1, expr=whole.child)
        assert not rep.equal
        assert rep.missing_edges

    def test_unknown_family_rejected(self):
        with pytest.raises((GraphError, ValueError)):
            verify_family_expr("bipartite", 1)

    def test_unknown_and_missing_names_are_reported(self):
        rep = verify_family_expr("zadeh", 1, expr=Port("a", "zz"))
        assert not rep.equal
        assert rep.name_issues == (
            "unknown vertex name 'zz' produced by the expression",
            *(f"vertex {nm!r} missing from the expression" for nm in sorted(gen_zadeh(1).names)),
        )


class TestSexpr:
    def test_port_golden(self):
        assert sexpr(Port("a", "u")) == "(port a u)"

    def test_nested_golden(self):
        e = Connect("a", "b", Union(Port("a", "u"), Port("b", "v")))
        assert sexpr(e) == "(connect a b (union (port a u) (port b v)))"

    def test_recolour_golden(self):
        assert sexpr(Recolour("a", "b", Port("a", "u"))) == "(recolour a b (port a u))"

    def test_parse_round_trip_builders(self):
        for e in (build_switch_all_expr(1), build_zadeh_expr(1)):
            assert parse_sexpr(sexpr(e)) == e

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(GraphError):
            parse_sexpr("(union (port a u))")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(recolour a (port a u))", "recolour expects (recolour OLD NEW E)"),
            ("(recolour a b c)", "recolour expects (recolour OLD NEW E)"),
            ("(connect a b (port a u) (port b v))", "connect expects (connect SRC DST E)"),
            ("(connect (port a u) b (port b v))", "connect expects (connect SRC DST E)"),
        ],
    )
    def test_relabel_arity_messages(self, text, message):
        with pytest.raises(GraphError) as err:
            parse_sexpr(text)
        assert str(err.value) == message

    def test_parse_rejects_trailing_junk(self):
        with pytest.raises(GraphError):
            parse_sexpr("(port a u) (port b v)")

    def test_parse_rejects_unknown_operator(self):
        with pytest.raises(GraphError):
            parse_sexpr("(paint a b (port a u))")

    @pytest.mark.parametrize("atom", ["a\rb", "a\x0bb", "a\xa0b", "a\u2028b", 5, ("a",)])
    def test_whitespace_atoms_rejected(self, atom):
        # parse_sexpr splits on every str.isspace() character and reads
        # every atom back as a str
        for e in (Port(atom, "u"), Port("a", atom), Recolour(atom, "b", Port("a", "u"))):
            with pytest.raises(GraphError, match="not printable"):
                sexpr(e)

    @pytest.mark.parametrize(
        "e",
        [Connect("a", "b", "x"), Recolour("a", "b", ")"), Union(Port("a", "u"), " ")],
        ids=["connect", "recolour", "union"],
    )
    def test_str_child_rejected_as_a_node(self, e):
        # a str child is no node, even one that reads as sexpr's own output
        for fn in (sexpr, eval_expr, colours_used):
            with pytest.raises(GraphError, match="not a cliquewidth expression node"):
                fn(e)

    @pytest.mark.parametrize("text", [b"(port a u)", None], ids=["bytes", "none"])
    def test_parse_rejects_non_str(self, text):
        with pytest.raises(GraphError, match="expression text must be a str"):
            parse_sexpr(text)

    @given(st.lists(st.sampled_from(SEXPR_TOKENS)).map("".join))
    def test_parse_fuzz(self, text):
        try:
            e = parse_sexpr(text)
        except GraphError:
            return
        assert parse_sexpr(sexpr(e)) == e


def expr_shapes(colours=st.sampled_from("abc")):
    return st.recursive(
        st.tuples(st.just("port"), colours),
        lambda kids: st.one_of(
            st.tuples(st.just("union"), kids, kids),
            st.tuples(st.just("recolour"), colours, colours, kids),
            st.tuples(st.just("connect"), colours, colours, kids),
        ),
        max_leaves=6,
    )


def realize(shape, counter):
    kind = shape[0]
    if kind == "port":
        return Port(shape[1], f"p{next(counter)}")
    if kind == "union":
        return Union(realize(shape[1], counter), realize(shape[2], counter))
    if kind == "recolour":
        return Recolour(shape[1], shape[2], realize(shape[3], counter))
    return Connect(shape[1], shape[2], realize(shape[3], counter))


class TestExpressionAlgebra:
    @given(expr_shapes(), st.sampled_from("abc"), st.sampled_from("abc"))
    def test_connect_idempotent(self, shape, a, b):
        e = realize(shape, itertools.count())
        once = eval_expr(Connect(a, b, e))
        twice = eval_expr(Connect(a, b, Connect(a, b, e)))
        assert edge_names(once) == edge_names(twice)
        assert colour_map(once) == colour_map(twice)

    @given(expr_shapes(), st.sampled_from("abc"), st.sampled_from("abc"))
    def test_recolour_leaves_no_source_ports(self, shape, a, b):
        e = realize(shape, itertools.count())
        r = eval_expr(Recolour(a, b, e))
        if a != b:
            assert a not in set(r.colours)

    @given(expr_shapes(), expr_shapes())
    def test_union_commutes_up_to_renaming(self, left_shape, right_shape):
        counter = itertools.count()
        left = realize(left_shape, counter)
        right = realize(right_shape, counter)
        lr = eval_expr(Union(left, right))
        rl = eval_expr(Union(right, left))
        assert colour_map(lr) == colour_map(rl)
        assert edge_names(lr) == edge_names(rl)

    @given(expr_shapes(st.sampled_from("abc") | st.text()))
    def test_sexpr_round_trip(self, shape):
        e = realize(shape, itertools.count())
        try:
            text = sexpr(e)
        except GraphError:
            return
        assert parse_sexpr(text) == e
