"""Cliquewidth expression calculus.

An expression is a tree over four operators: Port (a single coloured vertex),
Union (disjoint union), Recolour (relabel one colour class to another) and
Connect (add every edge from one colour class to another).  Evaluation yields
a coloured graph; the two family builders produce expressions that evaluate
edge-exactly to the generator graphs, using 10 colours for the switch-all
family and 9 for the least-entered one.

Everything here is iterative: built expressions nest a few thousand levels
deep at larger n, far beyond the default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as _U

from .families import FamilyId, _positive, gen_switch_all, gen_zadeh
from .graphs import Graph, GraphError


@dataclass(frozen=True)
class Port:
    colour: str
    name: str


@dataclass(frozen=True)
class Union:
    left: "CwExpr"
    right: "CwExpr"


@dataclass(frozen=True)
class Recolour:
    old: str
    new: str
    child: "CwExpr"


@dataclass(frozen=True)
class Connect:
    src: str
    dst: str
    child: "CwExpr"


CwExpr = _U[Port, Union, Recolour, Connect]


@dataclass(frozen=True)
class LabelledGraph:
    graph: Graph
    colours: tuple[str, ...]


def _children(node: CwExpr) -> tuple[CwExpr, ...]:
    if isinstance(node, Port):
        return ()
    if isinstance(node, Union):
        return (node.left, node.right)
    if isinstance(node, (Recolour, Connect)):
        return (node.child,)
    raise GraphError(f"not a cliquewidth expression node: {node!r}")


def eval_expr(expr: CwExpr) -> LabelledGraph:
    """Evaluate an expression to its coloured graph.

    Union rejects duplicate vertex names; Connect adds all missing edges from
    the src class to the dst class (all ordered pairs, including self-loops
    when src = dst); Recolour with old = new is the identity.
    """
    # iterative post-order; results are (names, colours, edge set) triples
    results: list[tuple[list[str], list[str], set[tuple[int, int]]]] = []
    stack: list[tuple[CwExpr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            for ch in reversed(_children(node)):
                stack.append((ch, False))
            continue
        if isinstance(node, Port):
            results.append(([node.name], [node.colour], set()))
        elif isinstance(node, Union):
            rn, rc, re = results.pop()
            ln, lc, le = results.pop()
            clash = set(ln) & set(rn)
            if clash:
                raise GraphError(f"union duplicates vertex name {sorted(clash)[0]!r}")
            off = len(ln)
            le.update((u + off, w + off) for u, w in re)
            results.append((ln + rn, lc + rc, le))
        elif isinstance(node, Recolour):
            names, cols, edges = results.pop()
            cols = [node.new if c == node.old else c for c in cols]
            results.append((names, cols, edges))
        else:  # Connect
            names, cols, edges = results.pop()
            src = [i for i, c in enumerate(cols) if c == node.src]
            if node.src == node.dst:
                edges.update((u, w) for u in src for w in src)
            else:
                dst = [i for i, c in enumerate(cols) if c == node.dst]
                edges.update((u, w) for u in src for w in dst)
            results.append((names, cols, edges))
    names, cols, edges = results.pop()
    return LabelledGraph(Graph(names, sorted(edges)), tuple(cols))


def colour_set(expr: CwExpr) -> frozenset[str]:
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Port):
            out.add(node.colour)
        elif isinstance(node, Recolour):
            out.add(node.old)
            out.add(node.new)
        elif isinstance(node, Connect):
            out.add(node.src)
            out.add(node.dst)
        stack.extend(_children(node))
    return frozenset(out)


def colours_used(expr: CwExpr) -> int:
    """Number of distinct colour labels appearing anywhere in the tree."""
    return len(colour_set(expr))


def sexpr(expr: CwExpr) -> str:
    """Single-line S-expression form; bit-exact for goldens.

    Shapes: (port COLOUR NAME), (union E1 E2), (recolour OLD NEW E),
    (connect SRC DST E).  Colour and name atoms must not contain whitespace
    or parentheses.
    """
    out: list[str] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, Port):
            for atom in (item.colour, item.name):
                _check_atom(atom)
            out.append(f"(port {item.colour} {item.name})")
        elif isinstance(item, Union):
            out.append("(union ")
            stack.extend([")", item.right, " ", item.left])
        elif isinstance(item, Recolour):
            for atom in (item.old, item.new):
                _check_atom(atom)
            out.append(f"(recolour {item.old} {item.new} ")
            stack.extend([")", item.child])
        elif isinstance(item, Connect):
            for atom in (item.src, item.dst):
                _check_atom(atom)
            out.append(f"(connect {item.src} {item.dst} ")
            stack.extend([")", item.child])
        else:
            raise GraphError(f"not a cliquewidth expression node: {item!r}")
    return "".join(out)


def _check_atom(atom: str) -> None:
    if not atom or any(ch in atom for ch in " \t\n()"):
        raise GraphError(f"atom {atom!r} is not printable in S-expression form")


def parse_sexpr(text: str) -> CwExpr:
    """Inverse of sexpr."""
    tokens: list[str] = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                tokens.append("".join(cur))
                cur = []
            tokens.append(ch)
        elif ch.isspace():
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    # shift-reduce over nested lists
    stack: list[list] = []
    result: CwExpr | None = None
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise GraphError("unbalanced ')' in expression text")
            items = stack.pop()
            node = _build_node(items)
            if stack:
                stack[-1].append(node)
            elif result is None:
                result = node
            else:
                raise GraphError("more than one top-level expression")
        else:
            if not stack:
                raise GraphError(f"stray atom {tok!r} outside any expression")
            stack[-1].append(tok)
    if stack:
        raise GraphError("unbalanced '(' in expression text")
    if result is None:
        raise GraphError("empty expression text")
    return result


def _build_node(items: list) -> CwExpr:
    if not items or not isinstance(items[0], str):
        raise GraphError("expression node must start with an operator keyword")
    op, *args = items
    if op == "port":
        if len(args) != 2 or not all(isinstance(a, str) for a in args):
            raise GraphError("port expects (port COLOUR NAME)")
        return Port(args[0], args[1])
    if op == "union":
        if len(args) != 2 or any(isinstance(a, str) for a in args):
            raise GraphError("union expects (union E1 E2)")
        return Union(args[0], args[1])
    if op == "recolour":
        if len(args) != 3 or not (isinstance(args[0], str) and isinstance(args[1], str)) or isinstance(args[2], str):
            raise GraphError("recolour expects (recolour OLD NEW E)")
        return Recolour(args[0], args[1], args[2])
    if op == "connect":
        if len(args) != 3 or not (isinstance(args[0], str) and isinstance(args[1], str)) or isinstance(args[2], str):
            raise GraphError("connect expects (connect SRC DST E)")
        return Connect(args[0], args[1], args[2])
    raise GraphError(f"unknown expression operator {op!r}")


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
    Pass expr to check a hand-supplied expression instead of the built one."""
    if isinstance(family, str):
        family = FamilyId(family)
    if family not in _BUILDERS:
        raise GraphError(f"no expression builder for family {family.value!r}")
    builder, generator = _BUILDERS[family]
    if expr is None:
        expr = builder(n)
    built = eval_expr(expr)
    want = generator(n)
    built_names = set(built.graph.names)
    want_names = set(want.names)
    issues = []
    for nm in sorted(built_names - want_names):
        issues.append(f"unknown vertex name {nm!r} produced by the expression")
    for nm in sorted(want_names - built_names):
        issues.append(f"vertex {nm!r} missing from the expression")
    common = built_names & want_names
    built_edges = {
        (built.graph.names[u], built.graph.names[w])
        for u, w in built.graph.edges()
        if built.graph.names[u] in common and built.graph.names[w] in common
    }
    want_edges = {
        (want.names[u], want.names[w])
        for u, w in want.edges()
        if want.names[u] in common and want.names[w] in common
    }
    missing = tuple(sorted(want_edges - built_edges))
    extra = tuple(sorted(built_edges - want_edges))
    return CwVerifyReport(
        equal=not missing and not extra and not issues,
        colour_count=colours_used(expr),
        missing_edges=missing,
        extra_edges=extra,
        name_issues=tuple(issues),
    )
