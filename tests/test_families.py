"""Family generators: hand-enumerated adjacency oracles and shape contracts."""

import re

import pytest

from copwidth import (
    Graph,
    GraphError,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_dag,
    gen_random_digraph,
    gen_switch_all,
    gen_zadeh,
    is_acyclic,
    lemma_bipartite_witness,
    parse_graph,
    serialize_graph,
    symmetric_closure,
)
from copwidth.graphs import bits_of


def successor_names(g, v):
    return {g.names[w] for w in bits_of(g.succ_masks[v])}


# The full 14-vertex instance written out edge by edge.
SWITCH_ALL_1 = {
    "x": {"x"},
    "s": {"x", "f1"},
    "c": {"s", "r"},
    "r": {"x", "g1"},
    "t1": {"s", "r", "c"},
    "t2": {"s", "r", "t1"},
    "a1": {"t1"},
    "a2": {"t2"},
    "d1": {"s", "r", "e1", "a1", "a2"},
    "e1": {"d1", "h1"},
    "f1": {"e1"},
    "g1": {"f1", "k1"},
    "h1": {"k1"},
    "k1": {"x"},
}


class TestSwitchAll:
    def test_rejects_zero(self):
        with pytest.raises(GraphError):
            gen_switch_all(0)

    def test_vertex_counts(self):
        for n in range(1, 17):
            assert gen_switch_all(n).vertex_count == 10 * n + 4
        assert gen_switch_all(3).vertex_count == 34

    def test_canonical_vertex_order(self):
        g = gen_switch_all(2)
        want = [
            "x", "s", "c", "r",
            "t1", "t2", "t3", "t4", "a1", "a2", "a3", "a4",
            "d1", "e1", "f1", "g1", "h1", "k1",
            "d2", "e2", "f2", "g2", "h2", "k2",
        ]
        assert list(g.names) == want

    def test_full_adjacency_at_n1(self):
        g = gen_switch_all(1)
        got = {g.names[v]: successor_names(g, v) for v in range(g.vertex_count)}
        assert got == SWITCH_ALL_1
        assert g.edge_count == 27

    def test_d2_successors(self):
        g = gen_switch_all(2)
        d2 = g.id_of("d2")
        got = successor_names(g, d2)
        assert got == {"s", "r", "e2", "a1", "a2", "a3", "a4"}

    def test_k_vertices_feed_later_g(self):
        g = gen_switch_all(3)
        k1 = g.id_of("k1")
        got = successor_names(g, k1)
        assert got == {"x", "g2", "g3"}


class TestZadeh:
    def test_rejects_zero(self):
        with pytest.raises(GraphError):
            gen_zadeh(0)

    def test_vertex_counts(self):
        for n in range(1, 9):
            assert gen_zadeh(n).vertex_count == 13 * n + 3
        assert gen_zadeh(3).vertex_count == 42

    def test_edge_count_at_n1(self):
        assert gen_zadeh(1).edge_count == 33

    def test_k_clique_bidirectional_no_self_loops(self):
        g = gen_zadeh(4)
        ks = [g.id_of(f"k{i}") for i in range(1, 5)]
        for u in ks:
            assert not g.has_edge(u, u)
            for w in ks:
                if u != w:
                    assert g.has_edge(u, w) and g.has_edge(w, u)

    def test_h0_successors(self):
        g = gen_zadeh(3)
        h10 = g.id_of("h1^0")
        got = successor_names(g, h10)
        assert got == {"t", "k3"}

    def test_h0_empty_tail_range(self):
        g = gen_zadeh(1)
        h10 = g.id_of("h1^0")
        assert successor_names(g, h10) == {"t"}

    def test_t_self_loop(self):
        g = gen_zadeh(2)
        t = g.id_of("t")
        assert g.has_edge(t, t)


class TestEmbeddings:
    """Each family instance sits inside the next one under the same vertex
    names, so a measure at n bounds it from below at every larger n."""

    @staticmethod
    def named_edges(g):
        return {(g.names[u], g.names[w]) for u, w in g.edges()}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_switch_all_is_an_induced_subgraph_of_the_next(self, n):
        small, big = gen_switch_all(n), gen_switch_all(n + 1)
        assert set(small.names) <= set(big.names)
        kept = {(u, w) for u, w in self.named_edges(big) if {u, w} <= set(small.names)}
        assert kept == self.named_edges(small)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zadeh_is_a_subgraph_of_the_next(self, n):
        small, big = gen_zadeh(n), gen_zadeh(n + 1)
        assert set(small.names) <= set(big.names)
        assert self.named_edges(small) <= self.named_edges(big)


def reference_switch_all(n):
    """The edge-list generator that the mask-built gen_switch_all replaced,
    frozen as its reference."""
    names = ["x", "s", "c", "r"]
    names += [f"t{i}" for i in range(1, 2 * n + 1)]
    names += [f"a{i}" for i in range(1, 2 * n + 1)]
    for i in range(1, n + 1):
        names += [f"d{i}", f"e{i}", f"f{i}", f"g{i}", f"h{i}", f"k{i}"]
    ix = {nm: i for i, nm in enumerate(names)}

    edges = []

    def add(a, b):
        edges.append((ix[a], ix[b]))

    add("x", "x")
    add("c", "s")
    add("c", "r")
    add("s", "x")
    add("r", "x")
    for j in range(1, n + 1):
        add("s", f"f{j}")
        add("r", f"g{j}")
    for i in range(1, 2 * n + 1):
        add(f"a{i}", f"t{i}")
        add(f"t{i}", "s")
        add(f"t{i}", "r")
        add(f"t{i}", "c" if i == 1 else f"t{i - 1}")
    for i in range(1, n + 1):
        add(f"d{i}", "s")
        add(f"d{i}", "r")
        add(f"d{i}", f"e{i}")
        for j in range(1, 2 * i + 1):
            add(f"d{i}", f"a{j}")
        add(f"e{i}", f"d{i}")
        add(f"e{i}", f"h{i}")
        add(f"f{i}", f"e{i}")
        add(f"g{i}", f"f{i}")
        add(f"g{i}", f"k{i}")
        add(f"h{i}", f"k{i}")
        add(f"k{i}", "x")
        for j in range(i + 1, n + 1):
            add(f"k{i}", f"g{j}")
    return Graph(names, edges)


def reference_zadeh(n):
    """The edge-list generator that the mask-built gen_zadeh replaced,
    frozen as its reference."""
    names = ["s", "t", f"k{n + 1}"]
    for i in range(1, n + 1):
        names.append(f"k{i}")
        for j in (0, 1):
            names += [f"c{i}^{j}", f"A{i}^{j}", f"b{i},0^{j}", f"b{i},1^{j}",
                      f"d{i}^{j}", f"h{i}^{j}"]
    ix = {nm: i for i, nm in enumerate(names)}

    edges = []

    def add(a, b):
        edges.append((ix[a], ix[b]))

    add("t", "t")
    add("s", "t")
    add(f"k{n + 1}", "t")
    for m in range(1, n + 1):
        add("s", f"k{m}")
    for i in range(1, n + 1):
        add(f"k{i}", f"c{i}^0")
        add(f"k{i}", f"c{i}^1")
        add(f"k{i}", "t")
        for m in range(1, n + 1):
            if m != i:
                add(f"k{i}", f"k{m}")
        add(f"h{i}^0", "t")
        for j in range(i + 2, n + 1):
            add(f"h{i}^0", f"k{j}")
        add(f"h{i}^1", f"k{i + 1}")
        for j in (0, 1):
            add(f"c{i}^{j}", f"A{i}^{j}")
            add(f"A{i}^{j}", f"d{i}^{j}")
            add(f"A{i}^{j}", f"b{i},0^{j}")
            add(f"A{i}^{j}", f"b{i},1^{j}")
            add(f"d{i}^{j}", f"h{i}^{j}")
            add(f"d{i}^{j}", "s")
            for b in (f"b{i},0^{j}", f"b{i},1^{j}"):
                add(b, "t")
                add(b, f"A{i}^{j}")
                for m in range(1, n + 1):
                    add(b, f"k{m}")
    return Graph(names, edges)


class TestMaskBuiltGenerators:
    """The generators set bits in successor masks and keep the graph of the
    last n; the graphs are those of the edge-list reference."""

    @pytest.mark.parametrize(
        "gen, reference",
        [(gen_switch_all, reference_switch_all), (gen_zadeh, reference_zadeh)],
        ids=["switch-all", "zadeh"],
    )
    def test_match_the_edge_list_reference(self, gen, reference):
        for n in range(1, 13):
            g, want = gen(n), reference(n)
            assert g.names == want.names, n
            assert g.succ_masks == want.succ_masks, n
            assert g.pred_masks == want.pred_masks, n

    @pytest.mark.parametrize("gen", [gen_switch_all, gen_zadeh], ids=["switch-all", "zadeh"])
    def test_the_last_graph_is_shared(self, gen):
        g = gen(3)
        assert gen(3) is g
        assert gen(2) == gen(2) and gen(3) is not g and gen(3) == g

    @pytest.mark.parametrize("gen", [gen_switch_all, gen_zadeh], ids=["switch-all", "zadeh"])
    @pytest.mark.parametrize("bad", [True, [1], 0, 1.0], ids=["bool", "list", "zero", "float"])
    def test_bad_n_rejected_after_a_cached_one(self, gen, bad):
        # a list is no cache key, and neither True nor 1.0 may pass as 1
        gen(1)
        with pytest.raises(GraphError) as info:
            gen(bad)
        assert str(info.value) == f"n must be a positive integer, got {bad!r}"


class TestBipartiteAndWitness:
    def test_k11(self):
        g = gen_complete_bipartite(1, 1)
        assert g.vertex_count == 2
        assert g.edge_count == 2

    def test_k22(self):
        g = gen_complete_bipartite(2, 2)
        assert g.vertex_count == 4
        assert g.edge_count == 8

    def test_k33_already_symmetric(self):
        g = gen_complete_bipartite(3, 3)
        assert symmetric_closure(g) == g

    def test_witness_small_values(self):
        n, a, b = lemma_bipartite_witness(2)
        assert n == 2
        g = gen_switch_all(2)
        assert {g.names[v] for v in a} == {"a1", "a2"}
        assert {g.names[v] for v in b} == {"d1", "d2"}

        n, a, b = lemma_bipartite_witness(3)
        assert n == 4
        assert len(a) == len(b) == 3

        n, a, b = lemma_bipartite_witness(1)
        assert n == 1
        g = gen_switch_all(1)
        assert {g.names[v] for v in a} == {"a1"}
        assert {g.names[v] for v in b} == {"d1"}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_witness_adjacency_and_independence(self, k):
        n, a, b = lemma_bipartite_witness(k)
        h = symmetric_closure(gen_switch_all(n))
        for u in a:
            for w in b:
                assert h.has_edge(u, w) and h.has_edge(w, u)
        for side in (a, b):
            for u in side:
                for w in side:
                    assert not h.has_edge(u, w)


class TestSmallShapes:
    def test_cycle(self):
        g = gen_cycle(4)
        assert g.vertex_count == 4
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_path(self):
        g = gen_path(3)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert is_acyclic(g)

    def test_match_the_edge_list_build(self):
        # the generators set successor masks; the edge lists say the same
        for n in range(1, 7):
            vs = [f"v{i}" for i in range(n)]
            assert gen_cycle(n) == Graph(vs, [(i, (i + 1) % n) for i in range(n)]), n
            assert gen_path(n) == Graph(vs, [(i, i + 1) for i in range(n - 1)]), n
            for b in range(1, 7):
                names = [f"l{i}" for i in range(1, n + 1)] + [f"r{i}" for i in range(1, b + 1)]
                edges = [e for u in range(n) for w in range(n, n + b) for e in ((u, w), (w, u))]
                assert gen_complete_bipartite(n, b) == Graph(names, edges), (n, b)

    @pytest.mark.parametrize(
        "gen", [gen_cycle, gen_path, gen_switch_all, gen_zadeh, gen_complete_bipartite]
    )
    def test_rejects_a_bool_n(self, gen):
        # True is an int subclass and must not pass as n=1
        args = (True, 1) if gen is gen_complete_bipartite else (True,)
        with pytest.raises(GraphError, match="must be a positive integer, got True$"):
            gen(*args)


class TestRandom:
    def test_p_zero_edgeless(self):
        assert gen_random_digraph(6, 0.0, 1).edge_count == 0

    def test_p_one_complete(self):
        assert gen_random_digraph(3, 1.0, 1).edge_count == 6

    def test_deterministic(self):
        a = gen_random_digraph(8, 0.4, 123)
        b = gen_random_digraph(8, 0.4, 123)
        assert a == b
        assert a != gen_random_digraph(8, 0.4, 124)

    def test_no_self_loops(self):
        g = gen_random_digraph(7, 0.9, 5)
        assert all(u != w for u, w in g.edges())

    @pytest.mark.parametrize("gen", [gen_random_digraph, gen_random_dag])
    @pytest.mark.parametrize(
        "p, seed, message",
        [
            ("0.3", 1, "p must be a number in [0,1], got '0.3'"),
            (True, 1, "p must be a number in [0,1], got True"),
            (None, 1, "p must be a number in [0,1], got None"),
            (1.5, 1, "p must be a number in [0,1], got 1.5"),
            (float("nan"), 1, "p must be a number in [0,1], got nan"),
            (0.3, "1", "seed must be an integer, got '1'"),
            (0.3, 1.5, "seed must be an integer, got 1.5"),
            (0.3, None, "seed must be an integer, got None"),
            (0.3, True, "seed must be an integer, got True"),
        ],
    )
    def test_bad_argument_named(self, gen, p, seed, message):
        with pytest.raises(GraphError, match=re.escape(message) + "$"):
            gen(5, p, seed)

    def test_int_p_and_negative_seed(self):
        assert gen_random_digraph(4, 1, 7).edge_count == 12
        assert gen_random_dag(4, 0, 7).edge_count == 0
        assert gen_random_digraph(6, 0.5, -1) == gen_random_digraph(6, 0.5, 2**64 - 1)

    def test_dag_is_acyclic(self):
        for seed in range(10):
            assert is_acyclic(gen_random_dag(9, 0.5, seed))

    # Golden edge sets: the seeded corpora of the property suites and the
    # benchmark depend on these exact draws, so any change to the drawing
    # scheme shows up here.  The last seed exercises the reduction mod 2^64.
    @pytest.mark.parametrize(
        "gen, args, edges",
        [
            (gen_random_digraph, (5, 0.3, 1), [(2, 0), (3, 4)]),
            (gen_random_digraph, (6, 0.5, 12345), [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (1, 4),
                (2, 0), (2, 1), (3, 0), (3, 5), (4, 0), (4, 1), (4, 2), (4, 3),
                (4, 5), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4),
            ]),
            (gen_random_digraph, (8, 0.25, 2**64 + 7), [
                (0, 2), (0, 6), (1, 2), (1, 4), (3, 0), (3, 6), (4, 3),
                (5, 1), (5, 3), (5, 4), (6, 1), (6, 2), (7, 3), (7, 6),
            ]),
            (gen_random_dag, (5, 0.3, 1), [(2, 4)]),
            (gen_random_dag, (6, 0.5, 12345), [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5),
                (2, 4), (2, 5),
            ]),
            (gen_random_dag, (8, 0.25, 2**64 + 7), [
                (0, 2), (0, 6), (1, 3), (1, 5), (3, 7), (5, 7),
            ]),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_golden_draws(self, gen, args, edges):
        v = args[0]
        expected = Graph([f"v{i}" for i in range(v)], edges)
        assert serialize_graph(gen(*args)) == serialize_graph(expected)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "g",
        [
            gen_switch_all(2),
            gen_zadeh(2),
            gen_complete_bipartite(2, 3),
            gen_cycle(5),
            gen_random_digraph(6, 0.5, 42),
        ],
        ids=["switch-all", "zadeh", "bipartite", "cycle", "random"],
    )
    def test_json_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g
