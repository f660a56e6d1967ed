"""Cliquewidth expression calculus.

An expression is a tree over four operators: Port (a single coloured vertex),
Union (disjoint union), Recolour (relabel one colour class to another) and
Connect (add every edge from one colour class to another).  Evaluation yields
the graph the expression builds; the two family builders produce expressions
that evaluate edge-exactly to the generator graphs, using 10 colours for the
switch-all family and 9 for the least-entered one.

Everything here is iterative: built expressions nest a few thousand levels
deep at larger n, far beyond the default recursion limit.
"""

from __future__ import annotations

__all__ = [
    "Connect",
    "CwVerifyReport",
    "Port",
    "Recolour",
    "Union",
    "build_switch_all_expr",
    "build_zadeh_expr",
    "colours_used",
    "eval_expr",
    "verify_family_expr",
]

from dataclasses import dataclass
from typing import Union as _U

from .families import FamilyId, gen_switch_all, gen_zadeh
from .graphs import Graph, GraphError, _named, _positive, bits_of, mask_of


@dataclass(frozen=True, slots=True)
class Port:
    colour: str
    name: str


@dataclass(frozen=True, slots=True)
class Union:
    left: "CwExpr"
    right: "CwExpr"


@dataclass(frozen=True, slots=True)
class Recolour:
    old: str
    new: str
    child: "CwExpr"


@dataclass(frozen=True, slots=True)
class Connect:
    src: str
    dst: str
    child: "CwExpr"


CwExpr = _U[Port, Union, Recolour, Connect]


def _walk(expr: CwExpr) -> tuple[list[CwExpr], set[str]]:
    """The nodes of the tree in preorder, left before right, and the colour
    labels they mention, from one pass: the one place that knows which
    fields of a node are its children and which are its colours."""
    nodes: list[CwExpr] = []
    colours: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Port):
            colours.add(node.colour)
        elif isinstance(node, Union):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Recolour):
            colours.add(node.old)
            colours.add(node.new)
            stack.append(node.child)
        elif isinstance(node, Connect):
            colours.add(node.src)
            colours.add(node.dst)
            stack.append(node.child)
        else:
            raise GraphError(f"not a cliquewidth expression node: {node!r}")
        nodes.append(node)
    return nodes, colours


def eval_expr(expr: CwExpr) -> Graph:
    """Evaluate an expression to the graph it builds.

    Vertices are numbered in the order their ports appear, left to right.
    Connect adds all missing edges from the src class to the dst class (all
    ordered pairs, including self-loops when src = dst); Recolour with
    old = new is the identity.  A vertex name used twice is rejected as
    Graph rejects it ("duplicate vertex name").

    The nodes come from `_walk`, the one walk behind `colours_used` and
    `verify_family_expr` too, and are evaluated bottom-up, in reverse
    preorder (`_evaluate`).  Each evaluated subtree is one dict from colour
    to the bitmask of its vertices of that colour, and the edges are one
    successor mask per vertex.  Union merges the smaller dict into the
    larger, Recolour moves one mask, and Connect ORs the dst mask into each
    src vertex's successor mask, so no operator rescans the vertices below
    it.
    """
    names, succ, _ = _evaluate(expr, {})
    return Graph._from_masks(names, succ)


def _evaluate(expr: CwExpr, ids: dict[str, int]) -> tuple[tuple[str, ...], list[int], int]:
    """The port names in port order, checked by `_named`, the successor
    masks of the graph of `eval_expr` and the count of `colours_used`, from
    one `_walk` of the tree.  A port's vertex is numbered ids[name], and
    the names ids lacks are numbered on from len(ids) in port order, so
    with ids the generator's the masks are in its numbering; with no ids
    they are in port order."""
    nodes, colours = _walk(expr)
    names, _ = _named(node.name for node in nodes if isinstance(node, Port))
    fresh = len(ids)
    bits = []
    for nm in names:
        u = ids.get(nm)
        if u is None:
            u = fresh
            fresh += 1
        bits.append(1 << u)
    succ = [0] * fresh
    classes: list[dict[str, int]] = []  # the evaluated subtrees, leftmost on top
    for node in reversed(nodes):
        if isinstance(node, Port):
            classes.append({node.colour: bits.pop()})  # the ports are met last to first
        elif isinstance(node, Union):
            small = classes.pop()
            big = classes[-1]
            if len(small) > len(big):
                small, big = big, small
                classes[-1] = big
            for colour, m in small.items():
                big[colour] = big.get(colour, 0) | m
        elif isinstance(node, Recolour):
            top = classes[-1]
            m = top.pop(node.old, 0)
            if m:
                top[node.new] = top.get(node.new, 0) | m
        else:  # Connect
            top = classes[-1]
            dst = top.get(node.dst, 0)
            if dst:
                for u in bits_of(top.get(node.src, 0)):
                    succ[u] |= dst
    return names, succ, len(colours)


def colours_used(expr: CwExpr) -> int:
    """Number of distinct colour labels appearing anywhere in the tree, as
    `_walk` collects them for `eval_expr` too."""
    return len(_walk(expr)[1])


# ---------------------------------------------------------------------------
# switch-all family builder: ten colours.
#
# Invariants between layers: SPENT holds every finished vertex, CHAIN the
# current head of the c/t chain, ARMS all a's so far, KPOOL the finished k's
# (still owed edges to future g's and to x), HUB_R/HUB_S the vertices r and s.
# FRESH, GWAIT, RELAY and FWAIT are transients that are vacated within each
# layer; in particular g_i finishes all its edges inside layer i, which frees
# GWAIT for reuse and keeps the alphabet at ten.

SPENT = "spent"
HUB_R = "hub-r"
HUB_S = "hub-s"
CHAIN = "chain-head"
FRESH = "fresh"
ARMS = "arms"
KPOOL = "k-pool"
FWAIT = "f-wait"
GWAIT = "g-wait"
RELAY = "relay"


def build_switch_all_expr(n: int) -> CwExpr:
    """Cliquewidth expression evaluating exactly to gen_switch_all(n)."""
    _positive(n, "n")
    e: CwExpr = Union(Port(HUB_R, "r"), Port(HUB_S, "s"))
    e = Union(e, Port(CHAIN, "c"))
    e = Connect(CHAIN, HUB_S, e)
    e = Connect(CHAIN, HUB_R, e)
    for i in range(1, n + 1):
        for j in (2 * i - 1, 2 * i):
            pair: CwExpr = Union(Port(ARMS, f"a{j}"), Port(FRESH, f"t{j}"))
            pair = Connect(ARMS, FRESH, pair)
            e = Union(e, pair)
            e = Connect(FRESH, CHAIN, e)   # t_j -> previous chain head
            e = Connect(FRESH, HUB_R, e)
            e = Connect(FRESH, HUB_S, e)
            e = Recolour(CHAIN, SPENT, e)
            e = Recolour(FRESH, CHAIN, e)  # t_j becomes the head
        # layer gadget, staged in isolation so its transients cannot spray
        p: CwExpr = Union(Port(FRESH, f"d{i}"), Port(GWAIT, f"e{i}"))
        p = Connect(FRESH, GWAIT, p)       # d -> e
        p = Connect(GWAIT, FRESH, p)       # e -> d
        p = Union(p, Port(FWAIT, f"f{i}"))
        p = Connect(FWAIT, GWAIT, p)       # f -> e
        p = Union(p, Port(RELAY, f"h{i}"))
        p = Connect(GWAIT, RELAY, p)       # e -> h
        p = Recolour(GWAIT, SPENT, p)      # e is finished
        p = Union(p, Port(GWAIT, f"g{i}"))
        p = Connect(GWAIT, FWAIT, p)       # g -> f
        p = Union(p, Port(CHAIN, f"k{i}"))
        p = Connect(RELAY, CHAIN, p)       # h -> k
        p = Connect(GWAIT, CHAIN, p)       # g -> k
        p = Recolour(RELAY, SPENT, p)      # h is finished
        p = Recolour(CHAIN, RELAY, p)      # k parks as the relay
        e = Union(e, p)
        e = Connect(KPOOL, GWAIT, e)       # k_m -> g_i for every m < i
        e = Connect(HUB_R, GWAIT, e)       # r -> g_i
        e = Recolour(GWAIT, SPENT, e)      # g_i is finished
        e = Recolour(RELAY, KPOOL, e)      # k_i joins the pool
        e = Connect(FRESH, HUB_R, e)       # d -> r
        e = Connect(FRESH, HUB_S, e)       # d -> s
        e = Connect(FRESH, ARMS, e)        # d -> a_1 .. a_{2i}
        e = Recolour(FRESH, SPENT, e)      # d is finished
        e = Connect(HUB_S, FWAIT, e)       # s -> f_i
        e = Recolour(FWAIT, SPENT, e)      # f is finished
    e = Union(e, Port(FRESH, "x"))
    e = Connect(FRESH, FRESH, e)           # x -> x
    e = Connect(KPOOL, FRESH, e)           # every k -> x
    e = Connect(HUB_S, FRESH, e)           # s -> x
    e = Connect(HUB_R, FRESH, e)           # r -> x
    return e


# ---------------------------------------------------------------------------
# least-entered family builder: nine colours.
#
# CLIQUE holds the finished clique vertices k_1..k_{i-1}, CLIQUE_NEW the one
# being born (reused for s at the end), ENTRY the c's of the current layer
# (reused for k_{n+1}), BPOOL all b's (owed edges to the clique and to t),
# DPOOL all d's (owed an edge to s; reused for t), H_LEFT/H_RIGHT the current
# layer's h^0/h^1, H_GRAD the graduated h^0's (owed edges to later k's and t).

Z_SPENT = "spent"
Z_CLIQUE = "clique"
Z_CLIQUE_NEW = "clique-new"
Z_ENTRY = "entry"
Z_BPOOL = "b-pool"
Z_DPOOL = "d-pool"
Z_H_RIGHT = "h-right"
Z_H_LEFT = "h-left"
Z_H_GRAD = "h-grad"


def build_zadeh_expr(n: int) -> CwExpr:
    """Cliquewidth expression evaluating exactly to gen_zadeh(n)."""
    _positive(n, "n")
    e: CwExpr = Port(Z_CLIQUE_NEW, "k1")
    for i in range(1, n + 1):
        if i > 1:
            e = Union(e, Port(Z_CLIQUE_NEW, f"k{i}"))
            e = Connect(Z_H_GRAD, Z_CLIQUE_NEW, e)   # h_m^0 -> k_i, m <= i-2
            e = Connect(Z_H_RIGHT, Z_CLIQUE_NEW, e)  # h_{i-1}^1 -> k_i
            e = Recolour(Z_H_LEFT, Z_H_GRAD, e)      # h_{i-1}^0 graduates
            e = Recolour(Z_H_RIGHT, Z_SPENT, e)      # h_{i-1}^1 is finished
            e = Connect(Z_CLIQUE, Z_CLIQUE_NEW, e)   # k_m -> k_i
            e = Connect(Z_CLIQUE_NEW, Z_CLIQUE, e)   # k_i -> k_m
        for j in (0, 1):
            hcol = Z_H_LEFT if j == 0 else Z_H_RIGHT
            q: CwExpr = Union(Port(Z_ENTRY, f"c{i}^{j}"), Port(Z_SPENT, f"A{i}^{j}"))
            q = Connect(Z_ENTRY, Z_SPENT, q)         # c -> A
            q = Union(q, Port(Z_BPOOL, f"b{i},0^{j}"))
            q = Union(q, Port(Z_BPOOL, f"b{i},1^{j}"))
            q = Connect(Z_SPENT, Z_BPOOL, q)         # A -> b0, b1
            q = Connect(Z_BPOOL, Z_SPENT, q)         # b0, b1 -> A
            q = Union(q, Port(Z_DPOOL, f"d{i}^{j}"))
            q = Connect(Z_SPENT, Z_DPOOL, q)         # A -> d
            q = Union(q, Port(hcol, f"h{i}^{j}"))
            q = Connect(Z_DPOOL, hcol, q)            # d -> h
            e = Union(e, q)
        e = Connect(Z_CLIQUE_NEW, Z_ENTRY, e)        # k_i -> c_i^0, c_i^1
        e = Recolour(Z_ENTRY, Z_SPENT, e)
        e = Recolour(Z_CLIQUE_NEW, Z_CLIQUE, e)      # k_i joins the clique class
    e = Recolour(Z_H_LEFT, Z_H_GRAD, e)              # h_n^0 graduates
    e = Union(e, Port(Z_CLIQUE_NEW, "s"))
    e = Connect(Z_CLIQUE_NEW, Z_CLIQUE, e)           # s -> k_1 .. k_n
    e = Connect(Z_DPOOL, Z_CLIQUE_NEW, e)            # every d -> s
    e = Recolour(Z_DPOOL, Z_SPENT, e)
    e = Union(e, Port(Z_ENTRY, f"k{n + 1}"))
    e = Union(e, Port(Z_DPOOL, "t"))
    e = Connect(Z_H_RIGHT, Z_ENTRY, e)               # h_n^1 -> k_{n+1}
    e = Connect(Z_ENTRY, Z_DPOOL, e)                 # k_{n+1} -> t
    e = Connect(Z_DPOOL, Z_DPOOL, e)                 # t -> t
    e = Connect(Z_CLIQUE, Z_DPOOL, e)                # k_m -> t
    e = Connect(Z_BPOOL, Z_CLIQUE, e)                # every b -> k_1 .. k_n
    e = Connect(Z_BPOOL, Z_DPOOL, e)                 # every b -> t
    e = Connect(Z_CLIQUE_NEW, Z_DPOOL, e)            # s -> t
    e = Connect(Z_H_GRAD, Z_DPOOL, e)                # every h^0 -> t
    return e


@dataclass(frozen=True)
class CwVerifyReport:
    equal: bool
    colour_count: int
    missing_edges: tuple[tuple[str, str], ...]
    extra_edges: tuple[tuple[str, str], ...]
    name_issues: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.equal


_BUILDERS = {
    FamilyId.SWITCH_ALL: (build_switch_all_expr, gen_switch_all),
    FamilyId.ZADEH: (build_zadeh_expr, gen_zadeh),
}


def verify_family_expr(
    family: FamilyId | str, n: int, expr: CwExpr | None = None
) -> CwVerifyReport:
    """Compare eval(builder(n)) against the generator, matching vertices by
    name; reports symmetric-difference edges and any unknown/missing names.
    Pass expr to check a hand-supplied expression instead of the built one.

    The expression is evaluated straight into the generator's numbering
    (`_evaluate`), so each vertex's successor mask, cut down to the names
    both graphs have, is compared with the generator's by one `==`.  The
    port names are checked as `eval_expr` checks them.
    """
    family = FamilyId(family)
    if family not in _BUILDERS:
        raise GraphError(f"no expression builder for family {family.value!r}")
    builder, generator = _BUILDERS[family]
    if expr is None:
        expr = builder(n)
    want = generator(n)
    built_names, succ, colour_count = _evaluate(expr, want._ids)
    built, wanted = set(built_names), set(want.names)
    absent = wanted - built
    issues = [
        f"unknown vertex name {nm!r} produced by the expression" for nm in sorted(built - wanted)
    ]
    issues += [f"vertex {nm!r} missing from the expression" for nm in sorted(absent)]
    # the generator vertices the expression has; its unknown ones lie above
    common = want.full_mask & ~mask_of(want._ids[nm] for nm in absent)
    names = want.names
    missing, extra = [], []
    for u in bits_of(common):
        got = succ[u] & common
        need = want.succ_masks[u] & common
        if got != need:
            missing += [(names[u], names[w]) for w in bits_of(need & ~got)]
            extra += [(names[u], names[w]) for w in bits_of(got & ~need)]
    return CwVerifyReport(
        equal=not missing and not extra and not issues,
        colour_count=colour_count,
        missing_edges=tuple(sorted(missing)),
        extra_edges=tuple(sorted(extra)),
        name_issues=tuple(issues),
    )
