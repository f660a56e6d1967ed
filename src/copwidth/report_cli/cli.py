"""Command-line front end.

Subcommands: gen (emit a family graph), solve (exact game value or fixed-k
winner), certify (replay a family certificate), cw verify (expression vs
generator), report (the bound table for one family), suite (the seeded
cross-check suites).  Every verifying subcommand exits 0 iff everything it
checked verified.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from typing import Callable, Optional

from ..cliquewidth import _BUILDERS, verify_family_expr
from ..families import (
    FamilyId,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_digraph,
    gen_switch_all,
    gen_zadeh,
)
from ..graphs import parse_graph, serialize_graph, to_dot
from ..pursuit.certificates import _CERTIFICATES
from ..pursuit.games import (
    DEFAULT_STATE_BUDGET,
    BudgetExceededError,
    Variant,
    measure_detailed,
    solve,
)
from .report import CLAIMED_BOUNDS, run_property_suites, run_report


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_flag(args, name: str, wanted: str, ok: Callable[[float], bool]) -> None:
    """Checked here so the error names the flag, not the library's parameter;
    a flag that was not given reads None."""
    value = getattr(args, name)
    if value is not None and not ok(value):
        raise ValueError(f"--{name.replace('_', '-')} must be {wanted}, got {value}")


def _check_positive(args, *names: str) -> None:
    for name in names:
        unit = "state count" if name == "budget" else "integer"
        _check_flag(args, name, f"a positive {unit}", lambda value: value >= 1)


_SIZED = {"switch-all": gen_switch_all, "zadeh": gen_zadeh, "cycle": gen_cycle, "path": gen_path}


def _cmd_gen(args) -> int:
    fam = args.family
    # --k, --p and --seed read None when not given; each belongs to one family
    for flag, owner in (("k", "bipartite"), ("p", "random"), ("seed", "random")):
        if getattr(args, flag) is not None and fam != owner:
            raise ValueError(f"--{flag} does not apply to family {fam!r}")
    _check_positive(args, "n", "k")
    _check_flag(args, "p", "a number in [0,1]", lambda p: 0 <= p <= 1)
    if fam in _SIZED:
        g = _SIZED[fam](args.n)
    elif fam == "bipartite":
        g = gen_complete_bipartite(args.n, args.k if args.k is not None else args.n)
    else:
        g = gen_random_digraph(args.n, 0.3 if args.p is None else args.p, args.seed or 0)
    if args.format == "json":
        _emit(serialize_graph(g).decode("ascii"), args.out)
    else:
        _emit(to_dot(g), args.out)
    return 0


def _cmd_solve(args) -> int:
    _check_positive(args, "budget")
    _check_flag(args, "k", "a non-negative integer", lambda k: k >= 0)
    with open(args.graph, "rb") as fh:
        g = parse_graph(fh.read())
    _check_flag(args, "k", f"at most the vertex count {g.vertex_count}", lambda k: k <= g.vertex_count)
    variant = Variant(args.measure)
    t0 = time.perf_counter()
    result = {"measure": variant.value}
    if args.k is None:
        result["value"], states = measure_detailed(g, variant, budget=args.budget)
    else:
        out = solve(g, variant, args.k, budget=args.budget)
        result |= {"k": args.k, "winner": out.winner.value}
        states = out.states
    result |= {"states_explored": states, "seconds": round(time.perf_counter() - t0, 3)}
    print(json.dumps(result))
    return 0


def _cmd_certify(args) -> int:
    _check_positive(args, "n")
    cops, rep = _CERTIFICATES[FamilyId(args.family), Variant(args.measure)](args.n)
    result = {"family": args.family, "n": args.n, "measure": args.measure, "cops": cops}
    print(json.dumps({**result, **asdict(rep)}, indent=2))
    return 0 if rep.ok else 1


def _cmd_cw_verify(args) -> int:
    _check_positive(args, "n")
    rep = verify_family_expr(args.family, args.n)
    print(json.dumps({"family": args.family, "n": args.n, **asdict(rep)}, indent=2))
    return 0 if rep.equal else 1


def _cmd_report(args) -> int:
    _check_positive(args, "budget", "n_exact", "n_cert")
    # open the file first: a path that cannot be written fails before any solve
    out = open(args.json, "w", encoding="utf-8") if args.json is not None else nullcontext()
    with out as fh:
        rep = run_report(args.family, n_exact=args.n_exact, n_cert=args.n_cert, budget=args.budget)
        text = json.dumps(asdict(rep), indent=2)
        if fh is not None:
            fh.write(text + "\n")
    print(text)
    return 0 if rep.all_verified else 1


def _cmd_suite(args) -> int:
    summary = run_property_suites(args.seed)
    print(json.dumps(asdict(summary), indent=2))
    return 0 if summary.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copwidth",
        description="Pursuit-game width measures, counterexample families, "
        "certificates, and colouring expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph")
    p.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in FamilyId],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="second side for bipartite (default: n)")
    p.add_argument("--p", type=float, help="edge probability for random (default: 0.3)")
    p.add_argument("--seed", type=int, help="seed for random (default: 0)")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve a game exactly")
    p.add_argument("--measure", required=True, choices=[v.value for v in Variant])
    p.add_argument("--graph", required=True, help="graph file in the JSON format")
    p.add_argument("--k", type=int, help="decide at a fixed cop count instead")
    p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="replay a family certificate")
    families, measures = zip(*_CERTIFICATES)
    p.add_argument("--measure", required=True, choices=[m.value for m in dict.fromkeys(measures)])
    p.add_argument("--family", required=True, choices=[f.value for f in dict.fromkeys(families)])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("cw", help="colouring-expression commands")
    cw_sub = p.add_subparsers(dest="cw_command", required=True)
    pv = cw_sub.add_parser("verify", help="compare expression against generator")
    pv.add_argument("--family", required=True, choices=[f.value for f in _BUILDERS])
    pv.add_argument("--n", type=int, required=True)
    pv.set_defaults(func=_cmd_cw_verify)

    p = sub.add_parser("report", help="verify the bound table for a family")
    p.add_argument("--family", required=True, choices=list(CLAIMED_BOUNDS))
    p.add_argument("--n-exact", type=int, default=1)
    p.add_argument("--n-cert", type=int, default=8)
    p.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--json", help="also write the report JSON to this file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("suite", help="run the seeded cross-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a GraphError is a ValueError; a BudgetExceededError words its own message
    except (BudgetExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
