"""Deterministic graph generators: the two counterexample families plus
auxiliary instances (bipartite, cycle, path, seeded random) for the property
suites.

Canonical vertex orders are part of the public contract: certificates and
cliquewidth verification reference vertices by name, so the generators must
assign ids identically on every run.
"""

from __future__ import annotations

import enum
import math

from .graphs import Graph, GraphError


class FamilyId(enum.Enum):
    SWITCH_ALL = "switch-all"
    ZADEH = "zadeh"
    COMPLETE_BIPARTITE = "bipartite"
    DIRECTED_CYCLE = "cycle"
    DIRECTED_PATH = "path"
    RANDOM_DIGRAPH = "random"


def _positive(n: int, what: str) -> None:
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"{what} must be a positive integer, got {n!r}")


def gen_switch_all(n: int) -> Graph:
    """The switch-all counterexample graph with parameter n.

    10n+4 vertices in canonical order: x, s, c, r, t1..t_{2n}, a1..a_{2n},
    then per layer i=1..n: d_i, e_i, f_i, g_i, h_i, k_i.  The adjacency:

        t_1 -> s, r, c            t_i -> s, r, t_{i-1}   (i > 1)
        a_i -> t_i                c   -> s, r
        d_i -> s, r, e_i, and a_j for all j <= 2i
        e_i -> d_i, h_i           f_i -> e_i
        g_i -> f_i, k_i           h_i -> k_i
        k_i -> x, and g_j for i < j <= n
        s   -> x, and f_j for all j
        r   -> x, and g_j for all j
        x   -> x
    """
    _positive(n, "n")
    names = ["x", "s", "c", "r"]
    names += [f"t{i}" for i in range(1, 2 * n + 1)]
    names += [f"a{i}" for i in range(1, 2 * n + 1)]
    for i in range(1, n + 1):
        names += [f"d{i}", f"e{i}", f"f{i}", f"g{i}", f"h{i}", f"k{i}"]
    ix = {nm: i for i, nm in enumerate(names)}

    edges: list[tuple[int, int]] = []

    def add(a: str, b: str) -> None:
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


def gen_zadeh(n: int) -> Graph:
    """The least-entered counterexample graph with parameter n.

    13n+3 vertices in canonical order: s, t, k_{n+1}, then per layer i=1..n:
    k_i, then for j=0,1: c_i^j, A_i^j, b_{i,0}^j, b_{i,1}^j, d_i^j, h_i^j.
    The adjacency:

        d_i^j -> h_i^j, s         A_i^j -> d_i^j, b_{i,0}^j, b_{i,1}^j
        b_{i,*}^j -> t, A_i^j, and k_1..k_n
        c_i^j -> A_i^j            t -> t
        s -> t, and k_1..k_n      k_{n+1} -> t
        k_i -> c_i^0, c_i^1, t, and every k_m with m != i (1 <= m <= n)
        h_i^0 -> t, and k_j for i+2 <= j <= n
        h_i^1 -> k_{i+1}

    The k_i carry no self-loops: the clique on {k_1..k_n} is bidirectional
    between distinct vertices only.
    """
    _positive(n, "n")
    names = ["s", "t", f"k{n + 1}"]
    for i in range(1, n + 1):
        names.append(f"k{i}")
        for j in (0, 1):
            names += [f"c{i}^{j}", f"A{i}^{j}", f"b{i},0^{j}", f"b{i},1^{j}",
                      f"d{i}^{j}", f"h{i}^{j}"]
    ix = {nm: i for i, nm in enumerate(names)}

    edges: list[tuple[int, int]] = []

    def add(a: str, b: str) -> None:
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


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} as a symmetric digraph; left side l1..la, right side r1..rb."""
    _positive(a, "a")
    _positive(b, "b")
    names = [f"l{i}" for i in range(1, a + 1)] + [f"r{i}" for i in range(1, b + 1)]
    edges = []
    for u in range(a):
        for w in range(a, a + b):
            edges.append((u, w))
            edges.append((w, u))
    return Graph(names, edges)


def lemma_bipartite_witness(k: int) -> tuple[int, frozenset[int], frozenset[int]]:
    """A complete-bipartite K_{k,k} witness inside the switch-all family.

    Returns (n, A, B) with n = ceil(k/2)+k-1 such that in
    symmetric_closure(gen_switch_all(n)) every A-vertex is adjacent to every
    B-vertex while A and B are independent sets: A = {a_1..a_k},
    B = {d_i : ceil(k/2) <= i <= ceil(k/2)+k-1}.
    """
    _positive(k, "k")
    lo = math.ceil(k / 2)
    n = lo + k - 1
    g = gen_switch_all(n)
    a_ids = frozenset(g.id_of(f"a{j}") for j in range(1, k + 1))
    b_ids = frozenset(g.id_of(f"d{i}") for i in range(lo, lo + k))
    return n, a_ids, b_ids


def gen_cycle(n: int) -> Graph:
    """Directed cycle v0 -> v1 -> ... -> v0; n=1 gives a single self-loop."""
    _positive(n, "n")
    return Graph([f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    """Directed path on n vertices (n-1 edges)."""
    _positive(n, "n")
    return Graph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


_M64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _seeded_graph(v: int, p: float, seed: int, upward: bool) -> Graph:
    """The one drawing loop of the seeded generators, on vertices v0..v_{v-1}.

    Checks that v is a positive integer and p lies in [0, 1].  The PRNG is
    splitmix64 seeded with `seed` mod 2^64.  The ordered pairs (u, w) with
    u != w (only u < w when `upward`) are drawn in lexicographic order, u
    major and w minor; each pair consumes exactly one 64-bit output, and is
    an edge iff the output's top 53 bits, read as a double in [0, 1), are
    below p.  The scheme is fixed so corpora are reproducible across
    implementations.
    """
    _positive(v, "v")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0,1], got {p!r}")
    state = seed & _M64
    edges = []
    for u in range(v):
        for w in range(u + 1 if upward else 0, v):
            if u == w:
                continue
            state, out = _splitmix64(state)
            if (out >> 11) * (2.0 ** -53) < p:
                edges.append((u, w))
    return Graph([f"v{i}" for i in range(v)], edges)


def gen_random_digraph(v: int, p: float, seed: int) -> Graph:
    """Seeded random digraph: each ordered pair (u,w), u != w, is an edge
    independently with probability p, drawn by the scheme of `_seeded_graph`."""
    return _seeded_graph(v, p, seed, upward=False)


def gen_random_dag(v: int, p: float, seed: int) -> Graph:
    """Seeded random DAG: the scheme of `_seeded_graph` over the pairs with
    u < w only, so all edges point id-upward."""
    return _seeded_graph(v, p, seed, upward=True)
