"""Command line entry point.

Exit codes: 0 success (and "verdict true" for verify), 1 verdict false
(verify only), 2 usage error (a missing flag, or a flag value that the
library function owning its range rejects with ``ParameterError``; this
module re-labels that error and repeats none of those checks), 3 runtime
error (running out of memory included) or timeout. Every subcommand is
deterministic given its flags and seed. ``gen --family`` and
``construct --method family-canonical`` take their family names and
required flags from ``families.FAMILIES``, the table the corpus parser
reads too.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from . import __version__
from .constructors import (
    good_set_audit,
    greedy_packing,
    packing_separation,
    tree_good_set,
)
from .families import FAMILIES
from .graphs import Graph, ParameterError, endvertices, parse_edge_list, parse_vertex_set, write_edge_list, write_vertex_set
from .solvers import alpha_e_exact, gamma_e_exact
from .weights import ei_holds, is_exponentially_dominating, is_exponentially_independent
from .experiments import (
    bound_table,
    conjecture_scan,
    forced_endvertex_study,
    random_ei_probability,
)


def _write(path: str | None, text: str | Iterable[str]):
    """Write ``text``, one string or an iterable of pieces, to the file at
    ``path``, or to stdout for None or "-"."""
    pieces = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _read_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _read_set(path: str) -> frozenset:
    with open(path, encoding="utf-8") as fh:
        return parse_vertex_set(fh.read())


def _family_params(name: str, args) -> list[int]:
    """The family's parameters, read in registry order from the flags of
    the same names; a missing one is a usage error."""
    values = []
    for param in FAMILIES[name].params:
        val = getattr(args, param.replace("-", "_"), None)
        if val is None:
            raise ParameterError(f"--{param} is required for family {name}")
        values.append(val)
    return values


def _cmd_gen(args) -> int:
    lg = FAMILIES[args.family].build(*_family_params(args.family, args))
    _write(args.out, write_edge_list(lg.graph))
    if args.labels_out:
        lines = [f"# expindep {__version__}"]
        for name in sorted(lg.labels):
            lines.extend(f"{name} {v}" for v in sorted(lg.vset(name)))
        _write(args.labels_out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    G = _read_graph(args.graph)
    S = _read_set(args.set)
    if args.mode == "ei":
        report = is_exponentially_independent(G, S)
    else:
        report = is_exponentially_dominating(G, S)
    _write(args.report, report.chunks())
    if args.report not in (None, "-"):
        sys.stdout.write(f"verdict {'true' if report.ok else 'false'}\n")
    return 0 if report.ok else 1


def _cmd_solve(args) -> int:
    G = _read_graph(args.graph)
    if args.param == "alpha-e":
        required = set()
        if args.require_endvertices:
            required |= endvertices(G)
        if args.require_set:
            required |= _read_set(args.require_set)
        result = alpha_e_exact(G, required=required, time_budget=args.timeout)
    else:
        if args.require_endvertices or args.require_set:
            raise ParameterError("--require-* flags apply to alpha-e only")
        result = gamma_e_exact(G, time_budget=args.timeout)
        if result.status == "timeout":
            sys.stderr.write("note: gamma-e timed out; the witness is the whole vertex set, the trivial upper bound\n")
    sys.stdout.write(f"param {args.param}\n" + result.to_text())
    if args.witness_out:
        _write(args.witness_out, write_vertex_set(result.witness))
    return 3 if result.status == "timeout" else 0


def _cmd_construct(args) -> int:
    if args.method != "family-canonical":
        if not args.graph:
            raise ParameterError(f"--graph is required for {args.method}")
        G = _read_graph(args.graph)
    if args.method == "packing":
        dstar = packing_separation(G.n) if args.dstar is None else args.dstar
        S = greedy_packing(G, dstar)
        if not ei_holds(G, S):
            raise RuntimeError("packing failed re-verification")
        sys.stdout.write(f"method packing\ndstar {dstar}\nsize {len(S)}\nset " + " ".join(map(str, sorted(S))) + "\n")
    elif args.method == "tree-good":
        S, trace = tree_good_set(G)
        ok, why = good_set_audit(G, S)
        if not ok:
            raise RuntimeError(f"good set failed re-verification: {why}")
        if args.trace_out:
            _write(args.trace_out, trace.to_text())
        sys.stdout.write(f"method tree-good\nsize {len(S)}\naudit {why}\nset " + " ".join(map(str, sorted(S))) + "\n")
    else:  # family-canonical
        if args.family is None:
            raise ParameterError("family-canonical supports --family " + " or ".join(_CANONICAL))
        fam = FAMILIES[args.family]
        params = _family_params(args.family, args)
        S = fam.canonical(*params, phase=args.phase)
        G = fam.build(*params).graph
        if not ei_holds(G, S):
            raise RuntimeError("canonical set failed re-verification")
        sys.stdout.write(f"method family-canonical\nsize {len(S)}\nset " + " ".join(map(str, sorted(S))) + "\n")
    if args.set_out:
        _write(args.set_out, write_vertex_set(S))
    return 0


def _cmd_experiment(args) -> int:
    if args.timeout is not None and args.name != "forced-endvertices":
        raise ParameterError("--timeout applies to forced-endvertices only")
    if args.name == "bound-table":
        if not args.corpus:
            raise ParameterError("--corpus is required for bound-table")
        _write(args.out, bound_table(args.corpus).to_text())
    elif args.name == "random-ei":
        table = random_ei_probability(
            range(args.kmin, args.kmax + 1), args.p, args.trials, args.seed
        )
        _write(args.out, table.to_text())
    elif args.name == "conjecture-scan":
        report = conjecture_scan(args.nmax)
        _write(args.out, report.to_text())
    else:  # forced-endvertices
        report = forced_endvertex_study(args.k, time_budget=args.timeout)
        _write(args.out, report.to_text())
        if "timeout" in (report.constrained.status, report.k9.status):
            return 3
    return 0


_CANONICAL = [name for name, fam in FAMILIES.items() if fam.canonical is not None]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expindep",
        description="exact tools for exponentially independent and dominating sets",
    )
    parser.add_argument("--version", action="version", version=f"expindep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family graph as an edge list")
    g.add_argument("--family", required=True, choices=list(FAMILIES))
    for param in dict.fromkeys(p for fam in FAMILIES.values() for p in fam.params):
        g.add_argument(f"--{param}", type=int, default=0 if param == "seed" else None)
    g.add_argument("--out")
    g.add_argument("--labels-out", dest="labels_out")
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="verify a vertex set against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--set", required=True)
    v.add_argument("--mode", required=True, choices=["ei", "ed"])
    v.add_argument("--report")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("solve", help="exact optimum of either parameter")
    s.add_argument("--param", required=True, choices=["alpha-e", "gamma-e"])
    s.add_argument("--graph", required=True)
    s.add_argument("--require-endvertices", action="store_true", dest="require_endvertices")
    s.add_argument("--require-set", dest="require_set")
    s.add_argument("--timeout", type=float)
    s.add_argument("--witness-out", dest="witness_out")
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("construct", help="constructive selections")
    c.add_argument("--method", required=True, choices=["packing", "tree-good", "family-canonical"])
    c.add_argument("--graph")
    c.add_argument("--dstar", type=int)
    c.add_argument("--family", choices=_CANONICAL)
    c.add_argument("--k", type=int)
    c.add_argument("--phase", type=int, default=0)
    c.add_argument("--set-out", dest="set_out")
    c.add_argument("--trace-out", dest="trace_out")
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("experiment", help="reproducible experiment harness")
    e.add_argument("--name", required=True,
                   choices=["bound-table", "random-ei", "conjecture-scan", "forced-endvertices"])
    e.add_argument("--corpus")
    e.add_argument("--kmin", type=int, default=3)
    e.add_argument("--kmax", type=int, default=9)
    e.add_argument("--p", default="1/2")
    e.add_argument("--trials", type=int, default=2000)
    e.add_argument("--nmax", type=int, default=7)
    e.add_argument("--k", type=int, default=3)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--timeout", type=float)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_experiment)
    return parser


_parser = None  # built by the first main call; parse_args leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    # a ParameterError names a missing flag or a flag value out of the
    # range its owning function accepts, CorpusError included; any other
    # ValueError from a build or a check is a fault, not a usage error
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # ValueError covers EdgeListError and InfeasibleError; RuntimeError
    # covers InvariantViolation, failed re-verifications and RecursionError
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # exit 1 would read as "verdict false"; a MemoryError has no message
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
