"""Colouring-expression calculus: evaluation rules, colour accounting, builders."""

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from copwidth import (
    Connect,
    CwVerifyReport,
    FamilyId,
    Graph,
    GraphError,
    Port,
    Recolour,
    Union,
    build_switch_all_expr,
    build_zadeh_expr,
    colours_used,
    eval_expr,
    gen_switch_all,
    gen_zadeh,
    verify_family_expr,
)


def children(node):
    """The subexpressions of a node, left to right; the reference's own
    reading of the four operators, apart from the walk it checks."""
    if isinstance(node, Port):
        return ()
    if isinstance(node, Union):
        return (node.left, node.right)
    if isinstance(node, (Recolour, Connect)):
        return (node.child,)
    raise GraphError(f"not a cliquewidth expression node: {node!r}")


def edge_names(g):
    return {(g.names[u], g.names[w]) for u, w in g.edges()}


def scan_eval(expr):
    """The evaluator eval_expr replaced, kept as its reference: the ports are
    numbered left to right, so a subtree's vertices are the ids numbered
    since it was entered, and each Recolour and Connect rescans them.
    Returns the graph and each vertex's final colour, which eval_expr does
    not keep."""
    names, cols, edges = [], [], set()
    stack = [(expr, -1)]
    while stack:
        node, start = stack.pop()
        if start < 0:
            if isinstance(node, Port):
                names.append(node.name)
                cols.append(node.colour)
            elif not isinstance(node, Union):
                stack.append((node, len(names)))
            stack.extend((ch, -1) for ch in reversed(children(node)))
        elif isinstance(node, Recolour):
            cols[start:] = [node.new if c == node.old else c for c in cols[start:]]
        else:
            src = [i for i, c in enumerate(cols[start:], start) if c == node.src]
            dst = [i for i, c in enumerate(cols[start:], start) if c == node.dst]
            edges.update(itertools.product(src, dst))
    return Graph(names, edges), tuple(cols)


def colour_map(expr):
    """Vertex name -> final colour, by the reference evaluator."""
    g, colours = scan_eval(expr)
    return dict(zip(g.names, colours))


def name_pair_difference(expr, want):
    """(missing, extra): the edges between shared names that the generator
    graph want has and the expression lacks, and the other way round."""
    got, _ = scan_eval(expr)
    shared = set(got.names) & set(want.names)

    def pairs(g):
        return {(g.names[u], g.names[w]) for u, w in g.edges()
                if g.names[u] in shared and g.names[w] in shared}

    return tuple(sorted(pairs(want) - pairs(got))), tuple(sorted(pairs(got) - pairs(want)))


def mirrored(expr):
    """The expression with the two sides of every Union swapped."""
    if isinstance(expr, Port):
        return expr
    if isinstance(expr, Union):
        return Union(mirrored(expr.right), mirrored(expr.left))
    return dataclasses.replace(expr, child=mirrored(expr.child))


class TestEvalRules:
    def test_port(self):
        g = eval_expr(Port("a", "u"))
        assert g.names == ("u",)
        assert g.edge_count == 0
        assert colour_map(Port("a", "u")) == {"u": "a"}

    def test_union_keeps_both_sides(self):
        e = Union(Port("a", "u"), Port("b", "v"))
        assert colour_map(e) == {"u": "a", "v": "b"}
        assert eval_expr(e).edge_count == 0

    def test_union_rejects_shared_names(self):
        with pytest.raises(GraphError, match="^duplicate vertex name 'u'$"):
            eval_expr(Union(Port("a", "u"), Port("b", "u")))

    def test_vertices_numbered_in_port_order(self):
        # the Connect's subtree is the suffix v, w of the numbering
        e = Union(Port("a", "u"), Connect("b", "c", Union(Port("b", "v"), Port("c", "w"))))
        g = eval_expr(e)
        assert g.names == ("u", "v", "w")
        assert list(g.edges()) == [(1, 2)]
        assert scan_eval(e)[1] == ("a", "b", "c")

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
        assert colour_map(Recolour("a", "b", Port("a", "u"))) == {"u": "b"}

    def test_recolour_identity_when_same(self):
        assert colour_map(Recolour("a", "a", Port("a", "u"))) == {"u": "a"}

    def test_recolour_touches_only_matching(self):
        e = Recolour("a", "b", Union(Port("a", "u"), Port("c", "v")))
        assert colour_map(e) == {"u": "b", "v": "c"}

    def test_connect_reaches_only_its_subtree(self):
        # u has colour a but lies outside the Connect, so it gets no edge
        r = eval_expr(Union(Port("a", "u"), Connect("a", "b", Union(Port("a", "v"), Port("b", "w")))))
        assert edge_names(r) == {("v", "w")}

    def test_connect_sees_the_recoloured_class(self):
        r = eval_expr(Connect("b", "c", Recolour("a", "b", Union(Port("a", "u"), Port("c", "v")))))
        assert edge_names(r) == {("u", "v")}

    @pytest.mark.parametrize("atom", ["a\rb", "a\x0bb", "a\xa0b", "a\u2028b"])
    def test_whitespace_atoms_kept_verbatim(self, atom):
        # names and colours are opaque strings: whitespace inside them is kept
        e = Connect(atom, atom, Union(Port(atom, atom), Port("b", "v")))
        assert colour_map(e) == {atom: atom, "v": "b"}
        assert edge_names(eval_expr(e)) == {(atom, atom)}
        # split on its whitespace, the atom would be the colours a and b
        assert colours_used(Connect("a", "b", Port(atom, "u"))) == 3

    @pytest.mark.parametrize("name", [5, ("a",), ""], ids=["int", "tuple", "empty"])
    def test_non_str_or_empty_name_rejected(self, name):
        with pytest.raises(GraphError, match="^vertex 1 has an empty or non-string name$"):
            eval_expr(Union(Port("a", "u"), Port("a", name)))

    @pytest.mark.parametrize("fn", [eval_expr, colours_used], ids=["eval_expr", "colours_used"])
    def test_deep_nesting_needs_no_recursion(self, fn):
        # ten thousand levels, far past the default recursion limit
        e = Port("a", "u")
        for i in range(5000):
            e = Recolour("a", "b", Connect("a", "a", e))
        if fn is eval_expr:
            assert edge_names(fn(e)) == {("u", "u")}
            assert colour_map(e) == {"u": "b"}
        else:
            assert fn(e) == 2

    @pytest.mark.parametrize(
        "e, bad",
        [
            (Connect("a", "b", "x"), "x"),
            (Recolour("a", "b", ")"), ")"),
            (Union(Port("a", "u"), " "), " "),
            (Union(Port("a", "u"), Recolour("a", "b", 5)), 5),
        ],
        ids=["connect", "recolour", "union", "nested"],
    )
    def test_str_child_rejected_as_a_node(self, e, bad):
        # a str child is no node, even one that could pass for a name or
        # colour, nor is an int below a valid prefix
        message = f"not a cliquewidth expression node: {bad!r}"
        for fn in (eval_expr, colours_used, lambda e: verify_family_expr("switch-all", 1, e)):
            with pytest.raises(GraphError) as info:
                fn(e)
            assert str(info.value) == message


class TestColourAccounting:
    def test_single_port(self):
        assert colours_used(Port("a", "u")) == 1

    def test_counts_all_mentions(self):
        e = Recolour("a", "b", Connect("a", "c", Port("a", "u")))
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
        assert eval_expr(build_switch_all_expr(1)).vertex_count == 14

    def test_zadeh_n1_vertex_count(self):
        assert eval_expr(build_zadeh_expr(1)).vertex_count == 16

    def test_switch_all_n2_has_cross_layer_edge(self):
        g = eval_expr(build_switch_all_expr(2))
        assert g.has_edge(g.id_of("k1"), g.id_of("g2"))

    def test_zadeh_t_self_loop(self):
        g = eval_expr(build_zadeh_expr(2))
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
        # exactly the generator's edges the expression lacks: r -> x
        want = name_pair_difference(whole.child, gen_switch_all(1))
        assert (rep.missing_edges, rep.extra_edges) == want
        assert rep.missing_edges == (("r", "x"),)
        # zadeh(2) without its last four Connects: each b misses k1, k2 and t
        cut = build_zadeh_expr(2).child.child.child.child
        rep = verify_family_expr("zadeh", 2, expr=cut)
        assert (rep.missing_edges, rep.extra_edges) == name_pair_difference(cut, gen_zadeh(2))
        assert {("b1,0^0", "k1"), ("b1,0^0", "k2"), ("b1,0^0", "t")} <= set(rep.missing_edges)

    @pytest.mark.parametrize("builder", [build_switch_all_expr, build_zadeh_expr])
    @pytest.mark.parametrize("n", [0, -1])
    def test_builders_reject_non_positive_n(self, builder, n):
        with pytest.raises(GraphError, match=f"^n must be a positive integer, got {n}$"):
            builder(n)

    def test_report_counts_colours_and_is_truthy_when_equal(self):
        rep = verify_family_expr(FamilyId.ZADEH, 2)
        assert rep and rep.equal
        assert rep.colour_count == colours_used(build_zadeh_expr(2)) == 9

    def test_extra_connect_fails_with_extra_edges(self):
        # every pair among the spent vertices: nothing missing, only extras
        whole = build_switch_all_expr(1)
        spent = {nm for nm, c in colour_map(whole).items() if c == "spent"}
        rep = verify_family_expr("switch-all", 1, expr=Connect("spent", "spent", whole))
        assert not rep
        assert not rep.missing_edges and not rep.name_issues
        assert rep.extra_edges
        assert {nm for edge in rep.extra_edges for nm in edge} <= spent
        expr = Connect("spent", "spent", whole)
        assert (rep.missing_edges, rep.extra_edges) == name_pair_difference(expr, gen_switch_all(1))

    def test_missing_vertex_leaves_its_edges_out_of_the_difference(self):
        # switch-all(1) without x: x is reported, and the edges at x are not
        without_x = build_switch_all_expr(1).child.child.child.child.left
        rep = verify_family_expr("switch-all", 1, expr=without_x)
        assert rep.name_issues == ("vertex 'x' missing from the expression",)
        assert rep.missing_edges == () and rep.extra_edges == ()
        assert name_pair_difference(without_x, gen_switch_all(1)) == ((), ())

    @pytest.mark.parametrize("family, builder, generator", [
        ("switch-all", build_switch_all_expr, gen_switch_all),
        ("zadeh", build_zadeh_expr, gen_zadeh),
    ])
    def test_ports_in_another_order_than_the_generator_ids(self, family, builder, generator):
        # every Union's sides swapped: the same named graph, ports reversed
        expr = mirrored(builder(2))
        assert eval_expr(expr).names == tuple(reversed(eval_expr(builder(2)).names))
        assert eval_expr(expr).names != generator(2).names
        rep = verify_family_expr(family, 2, expr=expr)
        assert rep.equal
        assert not rep.missing_edges and not rep.extra_edges and not rep.name_issues

    def test_unknown_vertex_with_edges_reports_its_name_only(self):
        # zz has a self-loop and an edge to r, and neither is an edge difference
        whole = build_switch_all_expr(1)
        expr = Connect("q", "hub-r", Connect("q", "q", Union(whole, Port("q", "zz"))))
        assert {("zz", "zz"), ("zz", "r")} <= edge_names(eval_expr(expr))
        rep = verify_family_expr("switch-all", 1, expr=expr)
        assert not rep
        assert rep.name_issues == ("unknown vertex name 'zz' produced by the expression",)
        assert rep.missing_edges == () and rep.extra_edges == ()

    def test_unknown_and_missing_vertices_beside_an_extra_edge(self):
        # zz has edges from and to known vertices, x is missing, r -> t2 is
        # extra: only the edge between known names is a difference
        without_x = build_switch_all_expr(1).child.child.child.child.left
        e = Connect("q", "hub-r", Connect("q", "q", Union(without_x, Port("q", "zz"))))
        e = Connect("hub-r", "chain-head", Connect("hub-s", "q", e))
        rep = verify_family_expr("switch-all", 1, expr=e)
        assert rep == CwVerifyReport(
            equal=False,
            colour_count=11,
            missing_edges=(),
            extra_edges=(("r", "t2"),),
            name_issues=(
                "unknown vertex name 'zz' produced by the expression",
                "vertex 'x' missing from the expression",
            ),
        )
        assert (rep.missing_edges, rep.extra_edges) == name_pair_difference(e, gen_switch_all(1))

    @pytest.mark.parametrize("extra, message", [
        (Port("a", "r"), "duplicate vertex name 'r'"),
        (Union(Port("a", "zz"), Port("b", "zz")), "duplicate vertex name 'zz'"),
        (Port("a", ""), "vertex 14 has an empty or non-string name"),
        (Port("a", 3), "vertex 14 has an empty or non-string name"),
        (Port("a", ["x"]), "vertex 14 has an empty or non-string name"),
    ], ids=["duplicate-known", "duplicate-unknown", "empty", "int", "unhashable"])
    def test_bad_port_names_rejected_as_eval_expr_rejects_them(self, extra, message):
        # switch-all(1) has 14 vertices, so the added port is vertex 14
        e = Union(build_switch_all_expr(1), extra)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            eval_expr(e)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            verify_family_expr("switch-all", 1, expr=e)

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


def expr_shapes(max_leaves=6):
    colours = st.sampled_from("abc")
    return st.recursive(
        st.tuples(st.just("port"), colours),
        lambda kids: st.one_of(
            st.tuples(st.just("union"), kids, kids),
            st.tuples(st.just("recolour"), colours, colours, kids),
            st.tuples(st.just("connect"), colours, colours, kids),
        ),
        max_leaves=max_leaves,
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
        once, twice = Connect(a, b, e), Connect(a, b, Connect(a, b, e))
        assert edge_names(eval_expr(once)) == edge_names(eval_expr(twice))
        assert colour_map(once) == colour_map(twice)

    @given(expr_shapes(), st.sampled_from("abc"), st.sampled_from("abc"))
    def test_recolour_leaves_no_source_ports(self, shape, a, b):
        e = realize(shape, itertools.count())
        _, colours = scan_eval(Recolour(a, b, e))
        if a != b:
            assert a not in colours

    @given(expr_shapes(), expr_shapes())
    def test_union_commutes_up_to_renaming(self, left_shape, right_shape):
        counter = itertools.count()
        left = realize(left_shape, counter)
        right = realize(right_shape, counter)
        lr, rl = Union(left, right), Union(right, left)
        assert colour_map(lr) == colour_map(rl)
        assert edge_names(eval_expr(lr)) == edge_names(eval_expr(rl))

    @given(expr_shapes())
    def test_one_vertex_per_port(self, shape):
        e = realize(shape, itertools.count())
        assert eval_expr(e).vertex_count == str(shape).count("'port'")

    @given(expr_shapes())
    def test_final_colours_are_counted_in_colours_used(self, shape):
        # a final colour c is among the labels iff mentioning it again adds none
        e = realize(shape, itertools.count())
        used = colours_used(e)
        assert all(colours_used(Recolour(c, c, e)) == used for c in scan_eval(e)[1])


class TestEvalMatchesTheScanReference:
    """The class-mask evaluator returns the graph of the scan-based one it
    replaced (`scan_eval`): the same names in port order and the same
    edges."""

    @pytest.mark.parametrize("builder", [build_switch_all_expr, build_zadeh_expr])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_builders(self, builder, n):
        e = builder(n)
        assert eval_expr(e) == scan_eval(e)[0]

    @given(expr_shapes(max_leaves=40))
    def test_larger_random_expressions(self, shape):
        e = realize(shape, itertools.count())
        assert eval_expr(e) == scan_eval(e)[0]

    @pytest.mark.parametrize("e", [
        Recolour("a", "a", Union(Port("a", "u"), Port("b", "v"))),
        Connect("a", "b", Recolour("b", "b", Union(Port("a", "u"), Port("b", "v")))),
        Connect("a", "a", Union(Port("a", "u"), Union(Port("b", "v"), Port("a", "w")))),
        Connect("b", "b", Recolour("a", "b", Union(Port("a", "u"), Port("b", "v")))),
        Connect("c", "a", Union(Port("a", "u"), Port("b", "v"))),
        Connect("a", "c", Union(Port("a", "u"), Port("b", "v"))),
        Connect("a", "b", Recolour("b", "a", Union(Port("a", "u"), Port("b", "v")))),
        Union(Connect("a", "b", Port("a", "u")), Connect("a", "b", Port("b", "v"))),
    ], ids=[
        "recolour-old-is-new", "recolour-same-then-connect", "connect-src-is-dst",
        "connect-src-is-dst-after-merge", "connect-from-empty", "connect-to-empty",
        "connect-after-class-emptied", "connect-in-each-side-only",
    ])
    def test_edge_cases(self, e):
        assert eval_expr(e) == scan_eval(e)[0]


class TestColourCountOfTheEvaluatingWalk:
    """verify_family_expr counts the colours in the walk that evaluates the
    expression; the count is colours_used's."""

    @pytest.mark.parametrize("family, builder", [
        (FamilyId.SWITCH_ALL, build_switch_all_expr), (FamilyId.ZADEH, build_zadeh_expr),
    ], ids=["switch-all", "zadeh"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_builders(self, family, builder, n):
        e = builder(n)
        assert verify_family_expr(family, n, e).colour_count == colours_used(e)

    @pytest.mark.parametrize("e", [
        Port("a", "u"),
        Recolour("a", "b", Connect("a", "c", Port("a", "u"))),
        Recolour("z", "y", Port("a", "u")),
        Connect("p", "q", Union(Port("a", "u"), Port("a", "v"))),
        Connect("a", "a", Recolour("b", "a", Union(Port("a", "u"), Port("b", "v")))),
    ], ids=["port", "all-mentions", "recolour-of-absent", "connect-of-absent", "merged"])
    def test_hand_made(self, e):
        assert verify_family_expr("zadeh", 1, e).colour_count == colours_used(e)

    @given(expr_shapes(max_leaves=20))
    def test_random_expressions(self, shape):
        e = realize(shape, itertools.count())
        assert verify_family_expr("switch-all", 1, e).colour_count == colours_used(e)
