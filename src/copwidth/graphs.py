"""Immutable directed graphs with dense integer ids and bitset adjacency.

The graph type is the shared substrate for the game solvers, the family
generators and the cliquewidth evaluator.  Vertices are identified by ids
0..vertex_count-1 and carry unique non-empty names.  Self-loops are allowed;
duplicate edges are rejected.  Adjacency is stored once, as one successor and
one predecessor int bitmask per vertex, because the solvers spend nearly all
their time in reachability queries; edge lists are read off the masks in
ascending id order.  The structural queries (reachability, SCCs, acyclicity)
run on these masks within a vertex-set mask, with no subgraph built.  Only
the public constructor takes an edge list; the builders that hold masks
already (the symmetric closure, induced subgraphs, the family generators and
the cliquewidth evaluator) pass successor masks to `Graph._from_masks`.
"""

from __future__ import annotations

__all__ = [
    "Graph",
    "GraphError",
    "induced_subgraph",
    "is_acyclic",
    "parse_graph",
    "serialize_graph",
    "symmetric_closure",
    "to_dot",
]

import json
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, ids out of range, or bad serialized input."""


class Graph:
    """A finite directed graph; immutable once constructed.  The constructor
    checks that each edge is a new pair of int vertex ids in 0..n-1; the
    package's own builders pass successor masks to `_from_masks` instead.
    Its adjacency is `succ_masks` and its transpose `pred_masks`: bit w of
    succ_masks[u] and bit u of pred_masks[w] are set iff (u, w) is an edge."""

    __slots__ = ("names", "succ_masks", "pred_masks", "_ids")

    def __init__(self, names: Iterable[str], edges: Iterable[tuple[int, int]]):
        names, ids = _named(names)
        n = len(names)
        succ = [0] * n
        for e in edges:
            try:
                u, w = e
                if not (0 <= u < n and 0 <= w < n):
                    raise GraphError(f"edge ({u},{w}) has a dangling endpoint (vertex_count={n})")
                if type(u) is bool or type(w) is bool:  # an int subclass the range passes
                    raise GraphError(f"edge {e!r} must be a pair of vertex ids")
                if succ[u] >> w & 1:
                    raise GraphError(f"duplicate edge ({u},{w})")
                succ[u] |= 1 << w
            except GraphError:
                raise
            except (TypeError, ValueError):
                # from the range check (str), the index or shift (float) or the unpacking
                raise GraphError(f"edge {e!r} must be a pair of vertex ids") from None
        self._fill(names, ids, succ)

    @classmethod
    def _from_masks(cls, names: Iterable[str], succ_masks: Iterable[int]) -> Graph:
        """The graph whose successor masks are succ_masks, for the builders
        that hold masks already: the names are checked as by the public
        constructor, and each mask must be an int in 0..2^n-1."""
        names, ids = _named(names)
        succ = tuple(succ_masks)
        n = len(names)
        if len(succ) != n:
            raise GraphError(f"{len(succ)} successor masks for {n} vertices")
        for u, m in enumerate(succ):
            if not _is_id(m) or m < 0 or m >> n:
                raise GraphError(f"successor mask {u} must be an int of bits 0..{n - 1}, got {m!r}")
        graph = cls.__new__(cls)
        graph._fill(names, ids, succ)
        return graph

    def _fill(self, names: tuple[str, ...], ids: dict[str, int], succ: Sequence[int]) -> None:
        """Store the checked names and successor masks, and their transpose."""
        pred = [0] * len(succ)
        for u, m in enumerate(succ):
            bit = 1 << u
            while m:
                b = m & -m
                pred[b.bit_length() - 1] |= bit
                m ^= b
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "succ_masks", tuple(succ))
        object.__setattr__(self, "pred_masks", tuple(pred))
        object.__setattr__(self, "_ids", ids)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.succ_masks)

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit per vertex."""
        return (1 << len(self.names)) - 1

    def has_edge(self, u: int, w: int) -> bool:
        self._check(u)
        self._check(w)
        return bool(self.succ_masks[u] >> w & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges, sorted lexicographically."""
        return [(u, w) for u, m in enumerate(self.succ_masks) for w in bits_of(m)]

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise GraphError(f"unknown vertex name {name!r}") from None

    def _mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of the given vertex ids, each checked first."""
        return mask_of(map(self._check, vertices))

    def _check(self, v: int) -> int:
        if not _is_id(v):
            raise GraphError(f"vertex id must be an int, got {v!r}")
        if not (0 <= v < len(self.names)):
            raise GraphError(f"vertex id {v} out of range (vertex_count={len(self.names)})")
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.names == other.names and self.succ_masks == other.succ_masks

    def __hash__(self) -> int:
        return hash((self.names, self.succ_masks))

    def __repr__(self) -> str:
        return f"Graph({len(self.names)} vertices, {self.edge_count} edges)"


def _named(names: Iterable[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The names as a tuple and the id of each, checked to be unique
    non-empty strings."""
    names = tuple(names)
    ids: dict[str, int] = {}
    for i, nm in enumerate(names):
        if not isinstance(nm, str) or not nm:
            raise GraphError(f"vertex {i} has an empty or non-string name")
        if nm in ids:
            raise GraphError(f"duplicate vertex name {nm!r}")
        ids[nm] = i
    return names, ids


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _spread(adj: tuple[int, ...], r: int, start: int) -> tuple[int, int]:
    """The vertices of R that start, a subset of R, reaches along the
    neighbour masks adj, and the union of adj over those vertices: with
    successor masks, Reach_{G[R]}(start) and its out-neighbours."""
    seen = frontier = start
    out = 0
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        out |= nxt
        frontier = nxt & r & ~seen
        seen |= frontier
    return seen, out


def reach_mask(graph: Graph, blocked_mask: int, sources_mask: int) -> int:
    """The vertices reachable from the sources along directed paths avoiding
    the blocked ones, as a mask.  A source that is itself blocked contributes
    nothing; an unblocked source is always in the result."""
    return _spread(graph.succ_masks, ~blocked_mask, sources_mask & ~blocked_mask)[0]


def symmetric_closure(graph: Graph) -> Graph:
    """Same vertices, edge set E union reversed E."""
    sym = [s | p for s, p in zip(graph.succ_masks, graph.pred_masks)]
    return Graph._from_masks(graph.names, sym)


def _components(graph: Graph, within: int) -> list[int]:
    """The strongly connected component masks of G[within], in topological
    order of the condensation: every edge goes within a component or from
    an earlier to a later one.

    Two passes on the masks (Sharir 1981): a depth-first search, roots and
    successors ascending, lists the vertices as they finish; then each
    vertex not yet placed, latest-finished first, takes the unplaced
    vertices that reach it.  That is Tarjan's order on the same search,
    reversed: Tarjan emits a component when its first-visited vertex, the
    last member to finish, finishes.
    """
    succ = graph.succ_masks
    finished = []
    unseen = within
    while unseen:
        stack = [unseen & -unseen]
        unseen ^= stack[0]
        while stack:
            v = stack[-1].bit_length() - 1
            nxt = succ[v] & unseen
            if nxt:
                stack.append(nxt & -nxt)
                unseen ^= stack[-1]
            else:
                finished.append(v)
                stack.pop()
    comps = []
    for v in reversed(finished):  # `within` now holds the vertices not yet placed
        if within >> v & 1:
            comps.append(_spread(graph.pred_masks, within, 1 << v)[0])
            within ^= comps[-1]
    return comps


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep`, re-indexed densely preserving relative id order."""
    kept = graph._mask(keep)
    old = list(bits_of(kept))
    new_bit = {v: 1 << i for i, v in enumerate(old)}
    succ = [sum(new_bit[w] for w in bits_of(graph.succ_masks[u] & kept)) for u in old]
    return Graph._from_masks([graph.names[v] for v in old], succ)


def _is_acyclic(graph: Graph, within: int) -> bool:
    """True iff G[within] has no directed cycle, a self-loop counting as one:
    strip its sinks until nothing is left or no sink remains."""
    succ = graph.succ_masks
    while within:
        sinks = mask_of(v for v in bits_of(within) if not succ[v] & within)
        if not sinks:
            return False
        within ^= sinks
    return True


def is_acyclic(graph: Graph) -> bool:
    """True iff no directed cycle; a self-loop counts as a cycle."""
    return _is_acyclic(graph, graph.full_mask)


def serialize_graph(graph: Graph) -> bytes:
    """Canonical JSON encoding; edges sorted; byte-exact for a given graph."""
    doc = {
        "vertices": [{"id": i, "name": nm} for i, nm in enumerate(graph.names)],
        "edges": [[u, w] for u, w in graph.edges()],
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _is_id(x) -> bool:
    # JSON booleans decode to bool, a subclass of int, so true would pass as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _positive(n: int, what: str) -> None:
    if not _is_id(n) or n < 1:
        raise GraphError(f"{what} must be a positive integer, got {n!r}")


def parse_graph(data: bytes | str) -> Graph:
    """Inverse of serialize_graph; rejects malformed input naming the offender."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph file is not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the interpreter's digit limit;
        # RecursionError is the decoder giving up on deep nesting
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphError("graph document must be an object with 'vertices' and 'edges'")
    verts = doc["vertices"]
    if not isinstance(verts, list):
        raise GraphError("'vertices' must be a list")
    names: list[str] = []
    for i, entry in enumerate(verts):
        if not isinstance(entry, dict) or "id" not in entry or "name" not in entry:
            raise GraphError(f"vertex entry {i} must have 'id' and 'name'")
        if not _is_id(entry["id"]) or entry["id"] != i:
            raise GraphError(f"vertex ids must be dense 0..n-1; entry {i} has id {entry['id']!r}")
        nm = entry["name"]
        if isinstance(nm, str) and any("\ud800" <= ch <= "\udfff" for ch in nm):
            raise GraphError(f"vertex entry {i} has a name with a lone surrogate, which UTF-8 cannot encode")
        names.append(nm)
    if not isinstance(doc["edges"], list):
        raise GraphError("'edges' must be a list")
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_id(x) for x in e)):
            raise GraphError(f"edge {e!r} must be a pair of vertex ids")
    return Graph(names, doc["edges"])


# line breaks are escaped too, so that a quoted name stays on one line
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def _dot_quote(s: str) -> str:
    return '"' + s.translate(_DOT_ESCAPES) + '"'


def to_dot(graph: Graph) -> str:
    """GraphViz text form; deterministic, one node and one edge per line."""
    lines = ["digraph {"]
    for i, nm in enumerate(graph.names):
        lines.append(f"  {i} [label={_dot_quote(nm)}];")
    for u, w in graph.edges():
        lines.append(f"  {u} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
