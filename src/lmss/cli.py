"""Command-line front end.

Every subcommand is a thin adapter over the library: parse inputs, call
one operation, format the result. Exit codes: 0 success (and, for check
and verify, a positive verdict), 1 negative verdict or failed chain,
2 any input or usage error, 141 (128 + SIGPIPE) when the reader closes
stdout before the output is written.

Single-graph commands take one of --fixture, --graph6, --file, --gen.
Multi-graph commands (compose, verify) take ordered positional specs
written fixture:NAME, g6:STRING, file:PATH or gen:EXPR. Generator
expressions: complete:N, path:N, cycle:N, edgeless:N, tree:N, gnp:N:P,
with 0 <= N <= 65536 and P in [0, 1] written NUM/DEN, INT.FRAC or INT.
The seeded kinds (tree, gnp) draw from --seed, default 0. Every number is
ASCII decimal digits; an integer flag may start with "-" and has at most
the value 2**64 - 1, as has each run of digits in P.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import graph as G
from .bitset import bits
from .graph import Graph
from .greedoid import accessibility_chain, is_greedoid
from .ops import CompositeGraph, composition, corona, disjoint_union, lexicographic_product, zykov_sum
from .rng import SplitMix64
# perfbench's tracer shims lmss.cli.alpha, which no command calls now
from .stable import alpha, min_nonempty_size, psi  # noqa: F401
from .theorems import (SWEEP_COUNT, SWEEP_MAX_SIZE, THEOREM_IDS, TheoremReport, instance_from_graphs,
                       run_on_instance, sweep)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for dicts with string keys.

    Any indent sends json.dumps to its pure-Python encoder, and a
    json.dumps call per scalar builds a new encoder each time. This writer
    joins each nesting level with "," and ``pad`` two spaces deeper, prints
    tuples as lists, quotes strings as json does, writes plain ints (not
    bools) with str(), and leaves only floats to json.dumps.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = (_quote(key) + ": " + _json_text(value, inner) for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if all(type(x) is int for x in obj):
            items = map(str, obj)
        else:
            items = (_json_text(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(obj) is int:
        return str(obj)
    if obj is None:
        return "null"
    if type(obj) is bool:
        return "true" if obj else "false"
    return json.dumps(obj)


def _emit_json(obj) -> None:
    print(_json_text(obj))


_GEN_ONE_PARAM = {"complete": G.complete, "path": G.path, "cycle": G.cycle, "edgeless": G.edgeless}


def _parse_gen_expr(expr: str, seed: int) -> Graph:
    if expr in G.FIXTURE_NAMES:
        return G.named_fixture(expr)
    kind, *params = expr.split(":")
    if kind not in (*_GEN_ONE_PARAM, "tree", "gnp") or len(params) != 1 + (kind == "gnp"):
        raise ValueError(
            f"unknown generator expression {expr!r} "
            "(use complete:N, path:N, cycle:N, edgeless:N, tree:N, gnp:N:P or a fixture name)"
        )
    try:
        n = G.parse_count(params[0])
        # the same rule and bound as an edge list's header, checked before anything is built
        if n is None or n > G.MAX_EDGE_LIST_VERTICES:
            raise ValueError(f"vertex count must be in 0..{G.MAX_EDGE_LIST_VERTICES} in decimal digits, "
                             f"got {params[0]!r}")
        if kind == "gnp":
            # INT.FRAC is INTFRAC/10**len(FRAC); each run, and that power of ten, is read up to
            # _U64_MAX, so no exponent, sign, underscore, space, empty or long run reaches Fraction
            whole, point, frac = params[1].partition(".")
            num, slash, den = ((whole and frac and whole + frac, point, "1" + "0" * len(frac)) if point
                               else params[1].partition("/"))
            num, den = (G.parse_count(run, _U64_MAX) for run in (num, den if slash else "1"))
            if None in (num, den) or not 0 < den <= _U64_MAX or num > den:
                raise ValueError(f"edge probability must be NUM/DEN, INT.FRAC or INT in [0, 1], "
                                 f"each run ASCII decimal digits up to {_U64_MAX}")
            p = Fraction(num, den)
            return G.random_graph(n, p.numerator, p.denominator, seed)
        if kind == "tree":
            return G.random_tree(n, seed)
        return _GEN_ONE_PARAM[kind](n)
    except ValueError as exc:
        raise ValueError(f"bad generator expression {expr!r}: {exc}") from None


def _read_graph_text(text: str) -> Graph:
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    first = lines[0] if lines else ""
    if first.startswith("n ") or first == "n":
        return G.parse_edge_list_text(text)
    if len(lines) > 1:
        raise ValueError(f"a graph6 input holds one graph on one line, got {len(lines)} non-blank lines")
    return G.parse_graph6(first)


def _load_file(path: str) -> Graph:
    if path == "-":
        return _read_graph_text(sys.stdin.read())
    with open(path, "r", encoding="ascii") as fh:
        return _read_graph_text(fh.read())


def _graph_from_flags(args) -> Graph:
    given = [(prefix, value) for prefix, value in (
        ("fixture", args.fixture), ("g6", args.graph6), ("file", args.file), ("gen", args.gen),
    ) if value is not None]
    if len(given) != 1:
        raise ValueError("exactly one of --fixture, --graph6, --file, --gen is required")
    prefix, value = given[0]
    return _graph_from_spec(f"{prefix}:{value}", args.seed)


def _graph_from_spec(spec: str, seed: int) -> Graph:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"input spec {spec!r} needs a prefix fixture:, g6:, file: or gen:")
    if kind == "fixture":
        return G.named_fixture(rest)
    if kind == "g6":
        return G.parse_graph6(rest)
    if kind == "file":
        return _load_file(rest)
    if kind == "gen":
        return _parse_gen_expr(rest, seed)
    raise ValueError(f"unknown input spec prefix {kind!r}")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixture", metavar="NAME", help="named figure fixture")
    p.add_argument("--graph6", metavar="STR", help="graph6 string")
    p.add_argument("--file", metavar="PATH", help="graph6 or edge-list file, - for stdin")
    p.add_argument("--gen", metavar="EXPR", help="generator expression")


# seeds are read mod 2**64, P is compared with a 64-bit draw, no larger --sweep or --count ends
_U64_MAX = (1 << 64) - 1


def _decimal(text: str) -> int:
    """An integer flag's value: an optional leading "-" (kept, so that a range
    check sees it), then ASCII decimal digits up to ``_U64_MAX``."""
    value = G.parse_count(text.removeprefix("-"), _U64_MAX)
    if value is None or value > _U64_MAX:
        raise argparse.ArgumentTypeError(f"not ASCII decimal digits up to {_U64_MAX}: {text!r}")
    return -value if text.startswith("-") else value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.add_argument("--seed", type=_decimal, default=0, help="stream seed (default 0)")


# -- subcommands ---------------------------------------------------------------

def cmd_psi(args) -> int:
    g = _graph_from_flags(args)
    fam = psi(g)
    # every maximum stable set is in Psi, and the canonical order puts the largest last
    a = fam.members[-1].bit_count()
    smallest = min_nonempty_size(fam)
    if args.format == "json":
        _emit_json({
            "graph6": G.to_graph6(g).decode("ascii"),
            "n": g.n,
            "alpha": a,
            "family_size": len(fam),
            "includes_empty": True,
            "psi_min_size": smallest,
            "members": [list(bits(m)) for m in fam],
        })
    else:
        print(f"graph: n={g.n} m={G.edge_count(g)}")
        print(f"alpha: {a}")
        print(f"psi_size: {len(fam)} (includes the empty set)")
        print(f"psi_min_size: {smallest if smallest is not None else 'none'}")
        for m in fam:
            print(G.format_vertex_set(m, g))
    return 0


def cmd_check(args) -> int:
    g = _graph_from_flags(args)
    verdict = is_greedoid(psi(g))
    if args.format == "json":
        _emit_json(verdict.as_dict())
    else:
        print(f"status: {verdict.status}")
        if verdict.witness_x is not None:
            print(f"witness_x: {G.format_vertex_set(verdict.witness_x, g)}")
        if verdict.witness_y is not None:
            print(f"witness_y: {G.format_vertex_set(verdict.witness_y, g)}")
        print(f"family_size: {verdict.family_size}")
        print(f"universe: {verdict.universe}")
    return 0 if verdict.holds else 1


def cmd_chain(args) -> int:
    g = _graph_from_flags(args)
    s = G.parse_vertex_set(args.set, g)
    fam = psi(g)
    try:
        chain = accessibility_chain(fam, s)
    except ValueError as exc:
        if args.format == "json":
            _emit_json({"ok": False, "error": str(exc)})
        else:
            print(f"no chain: {exc}")
        return 1
    if args.format == "json":
        _emit_json({"ok": True, "chain": [list(bits(m)) for m in chain]})
    else:
        print(" < ".join(G.format_vertex_set(m, g) for m in chain))
    return 0


def _lex(graphs: list[Graph]) -> CompositeGraph:
    if len(graphs) != 2:
        raise ValueError("lex needs exactly two graphs")
    return lexicographic_product(*graphs)


# argparse's nargs="+" guarantees the first graph the host and skeleton ops read
_COMPOSE_OPS = {
    "union": disjoint_union,
    "zykov": zykov_sum,
    "corona": lambda graphs: corona(graphs[0], graphs[1:]),
    "compose": lambda graphs: composition(graphs[0], graphs[1:]),
    "lex": _lex,
}


def cmd_compose(args) -> int:
    graphs = [_graph_from_spec(s, args.seed) for s in args.inputs]
    comp = _COMPOSE_OPS[args.op](graphs)
    if args.format == "json":
        # the host's vertices come first, then each operand's in order
        h = comp.host_vertices.bit_count()
        _emit_json({
            "graph6": G.to_graph6(comp.graph).decode("ascii"),
            "n": comp.graph.n,
            "offsets": list(comp.offsets),
            "part_of": [-1] * h + [i for i, g in enumerate(comp.operands) for _ in range(g.n)],
            "index_in_part": [*range(h), *(v for g in comp.operands for v in range(g.n))],
            "host_vertices": list(bits(comp.host_vertices)),
        })
    else:
        print(f"graph6: {G.to_graph6(comp.graph).decode('ascii')}")
        if comp.host_vertices:
            print(f"host: {list(bits(comp.host_vertices))}")
        for i, g in enumerate(comp.operands):
            print(f"part {i}: offset {comp.offsets[i]} size {g.n}")
    return 0


def _report_line(r: TheoremReport) -> str:
    flag = "ok " if r.holds else "FAIL"
    desc = " ".join(f"{k}={v}" for k, v in sorted(r.inputs.items()))
    out = f"[{flag}] {r.theorem} {desc}"
    if not r.holds:
        out += f" witness={r.witness}"
    return out


def cmd_verify(args) -> int:
    # the sweep flags default to None, so a flag given where it would be ignored is an error
    if args.inputs:
        given = [flag for flag, used in (("--sweep", args.sweep is not None),
                                         ("--count", args.count is not None),
                                         ("--exhaustive", args.exhaustive)) if used]
        if given:
            raise ValueError(f"sweep flags given with an explicit instance: {', '.join(given)}")
        graphs = [_graph_from_spec(s, args.seed) for s in args.inputs]
        reports = [run_on_instance(args.theorem, instance_from_graphs(args.theorem, graphs))]
    elif args.exhaustive and args.count is not None:
        raise ValueError("--exhaustive checks every instance up to --sweep and takes no --count")
    else:
        reports = sweep(
            args.theorem,
            max_size=SWEEP_MAX_SIZE if args.sweep is None else args.sweep,
            count=SWEEP_COUNT if args.count is None else args.count,
            seed=args.seed, exhaustive=args.exhaustive)
    if args.format == "json":
        _emit_json([r.as_dict() for r in reports])
    else:
        for r in reports:
            print(_report_line(r))
        ok = sum(1 for r in reports if r.holds)
        print(f"{ok}/{len(reports)} hold")
    return 0 if all(r.holds for r in reports) else 1


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    if args.count == 1:
        print(G.to_graph6(_parse_gen_expr(args.expr, args.seed)).decode("ascii"))
        return 0
    stream = SplitMix64(args.seed)
    for _ in range(args.count):
        g = _parse_gen_expr(args.expr, stream.next_u64())
        print(G.to_graph6(g).decode("ascii"))
    return 0


# one parser per process: in-process callers run main many times, and each
# build costs more than a small command
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lmss",
        description="Local maximum stable set families, greedoid checks, graph compositions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="print the local maximum stable set family")
    _add_input_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("check", help="greedoid verdict for the family (exit 0/1)")
    _add_input_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("chain", help="accessibility chain for a member set")
    _add_input_flags(p)
    p.add_argument("set", help='vertex set, e.g. "{0,2}" or "{e,g}" for fixtures')
    _add_common(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("compose", help="build union|zykov|corona|compose|lex")
    p.add_argument("op", choices=_COMPOSE_OPS)
    p.add_argument("inputs", nargs="+", metavar="SPEC",
                   help="fixture:NAME | g6:STR | file:PATH | gen:EXPR")
    _add_common(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("verify", help="machine-check a structural result")
    p.add_argument("theorem", metavar="THEOREM", help=", ".join(THEOREM_IDS))
    p.add_argument("inputs", nargs="*", metavar="SPEC",
                   help="explicit instance; omit to run a seeded sweep")
    p.add_argument("--sweep", type=_decimal, metavar="N",
                   help=f"max composite size for sweep instances (default {SWEEP_MAX_SIZE}; "
                        "at least 4 for the part and corona theorems, 6 for COR_CORONA)")
    p.add_argument("--count", type=_decimal, metavar="K",
                   help=f"number of sweep instances (default {SWEEP_COUNT}; "
                        "not with --exhaustive)")
    p.add_argument("--exhaustive", action="store_true",
                   help="exhaustive sweep (T1_NT corpus, --sweep <= 7; T2_TREE all labeled trees)")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit generators or fixtures as graph6")
    p.add_argument("expr", metavar="EXPR", help="generator expression or fixture name")
    p.add_argument("--count", type=_decimal, default=1, metavar="K",
                   help="emit K seeded variants (default 1)")
    _add_common(p)
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that closed the pipe shows here, not in the final flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; fd 1 goes to the null device so that the
        # interpreter's final flush of what is left does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
