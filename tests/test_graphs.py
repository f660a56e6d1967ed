"""Core graph type: construction, reachability, SCCs, serialization."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from copwidth import (
    Graph,
    GraphError,
    gen_cycle,
    gen_random_digraph,
    gen_switch_all,
    gen_zadeh,
    induced_subgraph,
    is_acyclic,
    parse_graph,
    serialize_graph,
    symmetric_closure,
    to_dot,
)
from copwidth.graphs import _components, bits_of, mask_of, reach_mask
from copwidth.report_cli.report import _all_digraphs


def small_graphs(max_n=5):
    """Random digraphs as (names, edges) built from a hypothesis edge mask."""

    def build(n, mask):
        edges = [(i, j) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1]
        return Graph([f"v{i}" for i in range(n)], edges)

    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << (n * n)) - 1).map(lambda m: build(n, m))
    )


def json_shaped():
    """JSON documents over the graph format's keys: near-graphs and junk."""
    ids = st.integers(-1, 3)
    names = st.sampled_from(["", "x", "y", "\ud800"]) | st.text(max_size=3)
    leaves = st.none() | st.booleans() | ids | st.floats(allow_nan=False) | names
    keys = st.sampled_from(["vertices", "edges", "id", "name"])
    junk = st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(keys, kids, max_size=4),
        max_leaves=20,
    )
    vertices = st.lists(names, max_size=4).map(
        lambda ns: [{"id": i, "name": nm} for i, nm in enumerate(ns)]
    )
    edges = st.lists(st.lists(ids, min_size=2, max_size=2), max_size=4)
    return st.fixed_dictionaries({"vertices": vertices, "edges": edges}) | junk


def assert_rejects_or_round_trips(data):
    try:
        g = parse_graph(data)
    except GraphError:
        return
    assert parse_graph(serialize_graph(g)) == g


class TestConstruction:
    def test_basic_accessors(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert list(bits_of(g.succ_masks[0])) == [1]
        assert g.id_of("b") == 1
        assert g.names[1] == "b"

    def test_self_loop_allowed(self):
        g = Graph(["x"], [(0, 0)])
        assert g.has_edge(0, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex name 'c'"):
            Graph(["a", "b"], [(0, 1)]).id_of("c")

    def test_duplicate_name_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(["a", "a"], [])

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            Graph([""], [])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(["a"], [(0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(["a", "b"], [(0, 1), (0, 1)])

    @pytest.mark.parametrize(
        "names, edge, shown",
        [
            (["a", "b"], ("0", 1), "('0', 1)"),
            (["a"], (0.0, 0), "(0.0, 0)"),
            (["a", "b"], (0, 1.0), "(0, 1.0)"),
            (["a"], 5, "5"),
            (["a"], (0, 0, 0), "(0, 0, 0)"),
            # bool is an int subclass that the range check alone would pass
            (["a", "b"], (True, 0), "(True, 0)"),
            (["a", "b"], (0, False), "(0, False)"),
        ],
    )
    def test_edge_that_is_not_a_pair_of_int_ids_rejected_naming_it(self, names, edge, shown):
        with pytest.raises(GraphError) as info:
            Graph(names, [edge])
        assert str(info.value) == f"edge {shown} must be a pair of vertex ids"

    def test_immutable(self):
        g = Graph(["a"], [])
        with pytest.raises(AttributeError):
            g.names = ("b",)

    def test_equality_and_hash(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["a", "b"], [(0, 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != Graph(["a", "b"], [(1, 0)])


def edge_lists():
    """(n, edges) for every digraph with at most 3 vertices, then 200 seeded
    ones on 4-8 vertices; edges in lexicographic order."""
    for n in range(4):
        for m in range(1 << (n * n)):
            yield n, [(u, w) for u in range(n) for w in range(n) if m >> (u * n + w) & 1]
    rng = random.Random(19)
    for i in range(200):
        n, p = 4 + i % 5, (0.2, 0.35, 0.5)[i % 3]
        yield n, [(u, w) for u in range(n) for w in range(n) if rng.random() < p]


class TestMaskAdjacency:
    def test_masks_match_an_edge_list_oracle(self):
        rng = random.Random(7)
        for n, edges in edge_lists():
            names = [f"v{i}" for i in range(n)]
            shuffled = rng.sample(edges, len(edges))
            g = Graph(names, shuffled)
            shown = (n, shuffled)
            edge_set = set(edges)
            for u in range(n):
                for w in range(n):
                    has = (u, w) in edge_set
                    assert bool(g.succ_masks[u] >> w & 1) is has, shown
                    assert bool(g.pred_masks[w] >> u & 1) is has, shown
            assert g.edges() == edges and g.edge_count == len(edges), shown
            for v in range(n):
                assert list(bits_of(g.succ_masks[v])) == [w for u, w in edges if u == v], shown
            assert symmetric_closure(g).edges() == sorted(edge_set | {(w, u) for u, w in edges})
            keep = [v for v in range(n) if rng.random() < 0.6]
            index = {v: i for i, v in enumerate(keep)}
            h = induced_subgraph(g, rng.sample(keep, len(keep)))
            assert h.names == tuple(names[v] for v in keep), shown
            assert h.edges() == [(index[u], index[w]) for u, w in edges if u in index and w in index]
            again = Graph(names, rng.sample(edges, len(edges)))
            assert again == g and hash(again) == hash(g), shown
            if edges:
                assert Graph(names, shuffled[1:]) != g, shown


class TestFromMasks:
    """The constructor of the builders that hold successor masks: the same
    graph as from the edges, with the name checks of the edge constructor
    and a range check on each mask."""

    def test_matches_the_edge_constructor(self):
        for n, edges in edge_lists():
            names = [f"v{i}" for i in range(n)]
            succ = [0] * n
            for u, w in edges:
                succ[u] |= 1 << w
            g, want = Graph._from_masks(names, succ), Graph(names, edges)
            assert g == want and g.pred_masks == want.pred_masks, (n, edges)
            assert [g.id_of(nm) for nm in names] == list(range(n))

    @pytest.mark.parametrize("names", [["a", "a"], [""], ["a", 1], ["a", None]])
    def test_name_checks_match_the_edge_constructor(self, names):
        with pytest.raises(GraphError) as want:
            Graph(names, [])
        with pytest.raises(GraphError) as got:
            Graph._from_masks(names, [0] * len(names))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "succ, message",
        [
            ([0b100, 0], "successor mask 0 must be an int of bits 0..1, got 4"),
            ([0, 1 << 64], f"successor mask 1 must be an int of bits 0..1, got {1 << 64}"),
            ([-1, 0], "successor mask 0 must be an int of bits 0..1, got -1"),
            ([0, 1.0], "successor mask 1 must be an int of bits 0..1, got 1.0"),
            ([True, 0], "successor mask 0 must be an int of bits 0..1, got True"),
            ([0], "1 successor masks for 2 vertices"),
            ([0, 0, 0], "3 successor masks for 2 vertices"),
        ],
    )
    def test_bad_masks_rejected(self, succ, message):
        with pytest.raises(GraphError) as info:
            Graph._from_masks(["a", "b"], succ)
        assert str(info.value) == message


class TestReachMask:
    def test_successor_closure(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert reach_mask(g, 0, 0b01) == 0b11

    def test_blocked_target(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert reach_mask(g, 0b10, 0b01) == 0b01

    def test_blocked_source_contributes_nothing(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert reach_mask(g, 0b01, 0b01) == 0
        assert reach_mask(g, 0b01, 0b11) == 0b10

    def test_self_loop_only_reaches_itself(self):
        g = gen_switch_all(1)
        x = 1 << g.id_of("x")
        assert reach_mask(g, 0, x) == x

    @given(small_graphs())
    def test_monotone_in_sources(self, g):
        small = mask_of(range(0, g.vertex_count, 2))
        assert reach_mask(g, 0, small) & ~reach_mask(g, 0, g.full_mask) == 0

    @given(small_graphs())
    def test_antitone_in_blocked(self, g):
        large = mask_of(range(1, g.vertex_count, 2))
        assert reach_mask(g, large, 1) & ~reach_mask(g, 0, 1) == 0


class TestSymmetricClosure:
    def test_single_edge(self):
        g = symmetric_closure(Graph(["a", "b"], [(0, 1)]))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_two_cycle_unchanged(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0)])
        assert symmetric_closure(g) == g

    def test_switch_all_gains_reverse_edge(self):
        g = gen_switch_all(1)
        h = symmetric_closure(g)
        e1, f1 = g.id_of("e1"), g.id_of("f1")
        assert not g.has_edge(e1, f1)
        assert h.has_edge(e1, f1)

    @given(small_graphs())
    def test_idempotent_and_contains_original(self, g):
        h = symmetric_closure(g)
        assert symmetric_closure(h) == h
        assert set(g.edges()) <= set(h.edges())


def components_of(g, within=None):
    """The components of G[within] as ascending vertex lists."""
    return [list(bits_of(c)) for c in _components(g, g.full_mask if within is None else within)]


class TestComponents:
    def test_three_cycle_one_component(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        assert components_of(g) == [[0, 1, 2]]

    def test_dag_all_singletons(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
        assert components_of(g) == [[v] for v in range(4)]

    def test_switch_all_pocket_is_nontrivial(self):
        g = gen_switch_all(1)
        hubs = mask_of([g.id_of("r"), g.id_of("s")])
        d1, e1 = g.id_of("d1"), g.id_of("e1")
        assert sorted([d1, e1]) in components_of(g, g.full_mask & ~hubs)

    @given(small_graphs())
    def test_edges_respect_component_order(self, g):
        comps = components_of(g)
        index = {}
        for i, comp in enumerate(comps):
            for v in comp:
                index[v] = i
        for u, w in g.edges():
            assert index[u] <= index[w]

    def test_components_are_the_mutual_reach_classes(self):
        # all 530 digraphs with at most 3 vertices, then 200 seeded ones on 4-12
        graphs = [g for n in range(1, 4) for g in _all_digraphs(n)]
        graphs += [gen_random_digraph(4 + i % 9, (0.1, 0.2, 0.3, 0.5)[i % 4], i) for i in range(200)]
        for g in graphs:
            n = g.vertex_count
            comps = components_of(g)
            assert sorted(v for comp in comps for v in comp) == list(range(n))
            reach = [reach_mask(g, 0, 1 << v) for v in range(n)]
            index = {v: i for i, comp in enumerate(comps) for v in comp}
            for u in range(n):
                for w in range(n):
                    assert (index[u] == index[w]) == bool(reach[u] >> w & reach[w] >> u & 1)
            assert all(index[u] <= index[w] for u, w in g.edges())
            # a cycle is a vertex that one of its successors reaches
            has_cycle = any(reach_mask(g, 0, g.succ_masks[v]) >> v & 1 for v in range(n))
            assert is_acyclic(g) is not has_cycle, serialize_graph(g)

    # Pinned as Tarjan's algorithm returned them: the component order fixes
    # the order of the contaminated-set search, so its witnesses and the
    # state counts of a losing k.
    def test_switch_all_2_pinned(self):
        assert components_of(gen_switch_all(2)) == [list(range(1, 22)), [22], [23], [0]]

    def test_zadeh_2_pinned(self):
        assert components_of(gen_zadeh(2)) == [
            [0, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23, 24, 25, 26, 27],
            [9], [28], [2], [22], [1],
        ]


class TestInducedSubgraph:
    def test_keep_all_is_identity(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert induced_subgraph(g, frozenset({0, 1})) == g

    def test_cycle_to_single_edge(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        h = induced_subgraph(g, frozenset({0, 1}))
        assert h.vertex_count == 2
        assert list(h.edges()) == [(0, 1)]
        assert h.names == ("a", "b")

    def test_switch_all_minus_hubs(self):
        g = gen_switch_all(1)
        keep = frozenset(range(g.vertex_count)) - {g.id_of("r"), g.id_of("s")}
        assert induced_subgraph(g, keep).vertex_count == 12

    def test_non_int_id_rejected_naming_it(self):
        with pytest.raises(GraphError, match="got 'a'"):
            induced_subgraph(gen_cycle(3), ["a", 1])


class TestIsAcyclic:
    def test_isolated_vertex(self):
        assert is_acyclic(Graph(["a"], []))

    def test_self_loop_is_a_cycle(self):
        assert not is_acyclic(Graph(["a"], [(0, 0)]))

    def test_switch_all_has_cycles(self):
        assert not is_acyclic(gen_switch_all(1))


class TestSerialization:
    def test_golden_single_vertex_loop(self):
        g = Graph(["x"], [(0, 0)])
        assert serialize_graph(g) == b'{"vertices":[{"id":0,"name":"x"}],"edges":[[0,0]]}'

    def test_parse_golden(self):
        g = parse_graph(b'{"vertices":[{"id":0,"name":"x"}],"edges":[[0,0]]}')
        assert g == Graph(["x"], [(0, 0)])

    def test_round_trip_byte_identity(self):
        g = gen_switch_all(2)
        blob = serialize_graph(g)
        assert serialize_graph(parse_graph(blob)) == blob

    @given(small_graphs())
    def test_round_trip_equality(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_edges_sorted_in_output(self):
        g = Graph(["a", "b", "c"], [(2, 0), (0, 1), (1, 2)])
        doc = json.loads(serialize_graph(g))
        assert doc["edges"] == sorted(doc["edges"])

    def test_malformed_json_rejected(self):
        for doc in (
            b"{nope",
            b'{"vertices": [], "edges": 5}',
            b'{"vertices": [], "edges": null}',
            b"\xff\xfe",  # not UTF-8
            b"[" * 100_000,  # deeper than the decoder's recursion limit
            b'{"vertices": [], "edges": [' + b"1" * 5000 + b"]}",  # past the int digit limit
        ):
            with pytest.raises(GraphError):
                parse_graph(doc)

    def test_lone_surrogate_name_rejected(self):
        # json decodes the escape to a str that serialize_graph cannot encode
        doc = b'{"vertices":[{"id":0,"name":"\\ud800"}],"edges":[]}'
        with pytest.raises(GraphError, match="vertex entry 0"):
            parse_graph(doc)

    @given(st.binary())
    def test_fuzz_bytes(self, data):
        assert_rejects_or_round_trips(data)

    @given(st.text())
    def test_fuzz_text(self, text):
        assert_rejects_or_round_trips(text)

    @given(json_shaped())
    def test_fuzz_json_shaped(self, doc):
        assert_rejects_or_round_trips(json.dumps(doc))

    def test_dangling_endpoint_rejected(self):
        doc = b'{"vertices":[{"id":0,"name":"x"}],"edges":[[0,1]]}'
        with pytest.raises(GraphError, match="dangling") as info:
            parse_graph(doc)
        # the constructor's message: parse_graph leaves the range check to it
        assert str(info.value) == "edge (0,1) has a dangling endpoint (vertex_count=1)"

    @pytest.mark.parametrize(
        "entry", [b'{"name":"x"}', b'{"id":0}', b'"x"'], ids=["no-id", "no-name", "not-an-object"]
    )
    def test_vertex_entry_without_id_or_name_rejected(self, entry):
        doc = b'{"vertices":[' + entry + b'],"edges":[]}'
        with pytest.raises(GraphError, match="vertex entry 0 must have 'id' and 'name'"):
            parse_graph(doc)

    def test_sparse_ids_rejected(self):
        doc = b'{"vertices":[{"id":1,"name":"x"}],"edges":[]}'
        with pytest.raises(GraphError):
            parse_graph(doc)

    def test_duplicate_names_rejected(self):
        doc = b'{"vertices":[{"id":0,"name":"x"},{"id":1,"name":"x"}],"edges":[]}'
        with pytest.raises(GraphError, match="duplicate"):
            parse_graph(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"vertices":[{"id":0,"name":"x"},{"id":1,"name":"y"}],"edges":[[true,false]]}',
            b'{"vertices":[{"id":0,"name":"x"},{"id":true,"name":"y"}],"edges":[]}',
        ],
        ids=["edge", "vertex"],
    )
    def test_boolean_ids_rejected(self, doc):
        # JSON true/false must not pass as the ids 1 and 0
        with pytest.raises(GraphError):
            parse_graph(doc)


class TestDot:
    def test_deterministic_and_labelled(self):
        g = Graph(["a", "b"], [(0, 1)])
        out = to_dot(g)
        assert out == to_dot(Graph(["a", "b"], [(0, 1)]))
        assert 'label="a"' in out
        assert "0 -> 1;" in out

    def test_line_breaks_in_names_stay_on_one_line(self):
        # splitlines breaks at a raw \r as well as at \n
        out = to_dot(Graph(["a\nb", "c\r\nd", "e"], [(0, 1)]))
        assert out.splitlines() == [
            "digraph {",
            '  0 [label="a\\nb"];',
            '  1 [label="c\\r\\nd"];',
            '  2 [label="e"];',
            "  0 -> 1;",
            "}",
        ]
