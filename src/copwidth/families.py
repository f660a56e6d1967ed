"""Deterministic graph generators: the two counterexample families plus
auxiliary instances (bipartite, cycle, path, seeded random) for the property
suites.

Canonical vertex orders are part of the public contract: certificates and
cliquewidth verification reference vertices by name, so the generators must
assign ids identically on every run.
"""

from __future__ import annotations

__all__ = [
    "FamilyId",
    "gen_complete_bipartite",
    "gen_cycle",
    "gen_path",
    "gen_random_dag",
    "gen_random_digraph",
    "gen_switch_all",
    "gen_zadeh",
    "lemma_bipartite_witness",
]

import enum
import functools
import math

from .graphs import Graph, GraphError, _is_id, _positive


class FamilyId(enum.Enum):
    SWITCH_ALL = "switch-all"
    ZADEH = "zadeh"
    COMPLETE_BIPARTITE = "bipartite"
    DIRECTED_CYCLE = "cycle"
    DIRECTED_PATH = "path"
    RANDOM_DIGRAPH = "random"


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

    The graph for the last n asked for is kept and returned again.
    """
    _positive(n, "n")
    return _switch_all(n)


@functools.lru_cache(maxsize=1)
def _switch_all(n: int) -> Graph:
    names = ["x", "s", "c", "r"]
    names += [f"t{i}" for i in range(1, 2 * n + 1)]
    names += [f"a{i}" for i in range(1, 2 * n + 1)]
    for i in range(1, n + 1):
        names += [f"d{i}", f"e{i}", f"f{i}", f"g{i}", f"h{i}", f"k{i}"]
    x, s, c, r = 1, 2, 4, 8  # their bits
    t1, a1 = 4, 4 + 2 * n  # the ids of t_1 and a_1
    succ = [0] * len(names)
    succ[0] = x
    succ[2] = s | r
    for j in range(2 * n):  # t_{j+1} and a_{j+1}
        succ[t1 + j] = s | r | (1 << (t1 + j - 1) if j else c)
        succ[a1 + j] = 1 << (t1 + j)
    fs = gs = arms = 0  # the f's, the g's and the a's of the layers so far
    for i in range(n):  # layer i+1
        d = 4 + 4 * n + 6 * i
        e, f, g, h, k = range(d + 1, d + 6)
        arms |= 3 << (a1 + 2 * i)  # a_{2i+1}, a_{2i+2}
        succ[d] = s | r | 1 << e | arms
        succ[e] = 1 << d | 1 << h
        succ[f] = 1 << e
        succ[g] = 1 << f | 1 << k
        succ[h] = 1 << k
        fs |= 1 << f
        gs |= 1 << g
    succ[1] = x | fs
    succ[3] = x | gs
    for k in range(9 + 4 * n, len(names), 6):  # k_1..k_n
        succ[k] = x | (gs >> k << k)  # the g's of the later layers
    return Graph._from_masks(names, succ)


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
    between distinct vertices only.  The graph for the last n asked for is
    kept and returned again.
    """
    _positive(n, "n")
    return _zadeh(n)


@functools.lru_cache(maxsize=1)
def _zadeh(n: int) -> Graph:
    names = ["s", "t", f"k{n + 1}"]
    for i in range(1, n + 1):
        names.append(f"k{i}")
        for j in (0, 1):
            names += [f"c{i}^{j}", f"A{i}^{j}", f"b{i},0^{j}", f"b{i},1^{j}",
                      f"d{i}^{j}", f"h{i}^{j}"]
    s, t = 1, 2  # their bits
    ks = sum(1 << k for k in range(3, len(names), 13))  # k_1..k_n
    succ = [0] * len(names)
    succ[0] = t | ks
    succ[1] = t
    succ[2] = t
    for k in range(3, len(names), 13):  # k_i, then its two gadgets
        after = k + 13  # the id of k_{i+1}, past the end for i = n
        succ[k] = t | (ks & ~(1 << k)) | 1 << (k + 1) | 1 << (k + 7)
        for c in (k + 1, k + 7):  # c_i^j, then A, b_{i,0}, b_{i,1}, d, h
            a, b0, b1, d, h = range(c + 1, c + 6)
            succ[c] = 1 << a
            succ[a] = 1 << d | 1 << b0 | 1 << b1
            succ[b0] = succ[b1] = t | 1 << a | ks
            succ[d] = 1 << h | s
        succ[k + 6] = t | (ks >> (after + 1) << (after + 1))  # h_i^0 -> k_{i+2}..k_n
        succ[k + 12] = 1 << (after if after < len(names) else 2)  # h_i^1 -> k_{i+1}
    return Graph._from_masks(names, succ)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} as a symmetric digraph; left side l1..la, right side r1..rb."""
    _positive(a, "a")
    _positive(b, "b")
    names = [f"l{i}" for i in range(1, a + 1)] + [f"r{i}" for i in range(1, b + 1)]
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return Graph._from_masks(names, [right] * a + [left] * b)


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
    return Graph._from_masks([f"v{i}" for i in range(n)], [1 << ((i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    """Directed path on n vertices (n-1 edges)."""
    _positive(n, "n")
    return Graph._from_masks([f"v{i}" for i in range(n)], [2 << i for i in range(n - 1)] + [0])


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

    Checks that v is a positive integer, p an int or float in [0, 1] and
    seed an integer, none a bool.  The PRNG is splitmix64 seeded with `seed`
    mod 2^64.  The ordered pairs (u, w) with u != w (only u < w when
    `upward`) are drawn in lexicographic order, u major and w minor; each
    pair consumes exactly one 64-bit output, and is an edge iff the output's
    top 53 bits, read as a double in [0, 1), are below p.  The scheme is
    fixed so corpora are reproducible across implementations.
    """
    _positive(v, "v")
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability p must be a number in [0,1], got {p!r}")
    if not _is_id(seed):
        raise GraphError(f"seed must be an integer, got {seed!r}")
    state = seed & _M64
    succ = [0] * v
    for u in range(v):
        for w in range(u + 1 if upward else 0, v):
            if u == w:
                continue
            state, out = _splitmix64(state)
            if (out >> 11) * (2.0 ** -53) < p:
                succ[u] |= 1 << w
    return Graph._from_masks([f"v{i}" for i in range(v)], succ)


def gen_random_digraph(v: int, p: float, seed: int) -> Graph:
    """Seeded random digraph: each ordered pair (u,w), u != w, is an edge
    independently with probability p, drawn by the scheme of `_seeded_graph`."""
    return _seeded_graph(v, p, seed, upward=False)


def gen_random_dag(v: int, p: float, seed: int) -> Graph:
    """Seeded random DAG: the scheme of `_seeded_graph` over the pairs with
    u < w only, so all edges point id-upward."""
    return _seeded_graph(v, p, seed, upward=True)
