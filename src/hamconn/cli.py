"""Command-line harness.

Commands:
  verify          filter an enumerated or ingested corpus through a theorem's
                  hypotheses and check the conclusion on the survivors
  props           print the property table of one graph
  pipeline        build a hamiltonian path between two vertices via the
                  core reduction and print the stage artifacts
  counterexample  emit and verify the sharpness family built from the
                  Wagner graph
  corpus          generate seeded random corpora (sparse6, one per line)

Exit codes: 0 success / zero violations, 1 violations found, 2 input error
(including an option value rejected at parse time), 3 internal failure (a
failed validation or any other unexpected error).
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from typing import Optional

from .constructions import petersen, wagner
from .corpus import (
    MAX_CLAW_FREE_VERTICES,
    MAX_INPUT_VERTICES,
    random_3_edge_connected_multigraph,
    random_essentially_3ec_multigraph,
    random_multigraph,
    read_corpus_file,
)
from .encoding import (
    EncodingError,
    edgelist_lines,
    encode_graph6,
    encode_sparse6,
)
from .errors import GraphError, LiftFailedError
from .harness import (
    HYPOTHESES,
    counterexample_report,
    property_table,
    verify_theorem_enumerated,
    verify_theorem_graphs,
    write_witnesses,
)
from .invariants import dominating_set
from .multigraph import Multigraph
from .reduction import run_pipeline

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

NAMED = {"petersen": petersen, "wagner": wagner}


@contextmanager
def _user_file(path: str):
    """Report an ``OSError`` on a file the user named as an input error."""
    try:
        yield
    except OSError as exc:
        raise EncodingError(f"{path}: {exc.strerror or exc}") from exc


@contextmanager
def _output_file(path: Optional[str]):
    """The user-named output file, opened and truncated before the work that
    fills it, so that an unusable path fails first; ``None`` without one."""
    if not path:
        yield None
        return
    with _user_file(path):
        fh = open(path, "w")
    with fh:
        yield fh


def _load_graphs(args, *, simple: bool = False) -> list[Multigraph]:
    named = getattr(args, "named", None)
    if named:
        return [NAMED[named]()]
    if not args.input:
        hint = " or --named NAME" if "named" in args else ""
        raise EncodingError(f"no input: pass --input FILE{hint}")
    with _user_file(args.input):
        graphs = read_corpus_file(args.input, args.format, simple=simple)
    if not graphs:
        raise EncodingError(f"{args.input}: no graph in the file")
    return graphs


def cmd_verify(args) -> int:
    with _output_file(args.emit_witnesses) as out:
        if args.input:
            graphs = _load_graphs(args, simple=True)
            report = verify_theorem_graphs(graphs, args.hypothesis, workers=args.workers)
        else:
            report = verify_theorem_enumerated(args.n, args.hypothesis, workers=args.workers)
        print(report.format())
        if out is not None:
            with _user_file(args.emit_witnesses):
                write_witnesses(report, out)
                out.flush()
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def cmd_props(args) -> int:
    for g in _load_graphs(args):
        for name, value in property_table(g):
            print(f"{name:28s} {value}")
        print()
    return EXIT_OK


def cmd_pipeline(args) -> int:
    g = _load_graphs(args, simple=True)[0]
    d = dominating_set(g, 3)
    if d is None:
        print("input graph has domination number above 3", file=sys.stderr)
        return EXIT_INPUT
    run = run_pipeline(g, args.u, args.v, d)
    print(f"dominating set: {sorted(d.vertices)}")
    if run.context is not None:
        ctx = run.context
        print(f"projected terminal edges: e0_1={ctx.e0_1} e0_2={ctx.e0_2}")
        print(f"|z| = {len(ctx.z)}  e_n = {ctx.e_n}")
    else:
        print("degenerate core: direct two-edge trail used")
    print(f"trail length in source: {len(run.idt.trail.edges)}")
    print("hamiltonian path:", " ".join(str(v) for v in run.path.vertices))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    with _output_file(args.emit) as out:
        report = counterexample_report(args.pendants)
        print(report.format())
        print()
        print("graph6(g):", encode_graph6(report.graph))
        print("sparse6(h):", encode_sparse6(report.source))
        if out is not None:
            with _user_file(args.emit):
                out.write("# sharpness counterexample: line graph g, then source h\n")
                out.writelines(edgelist_lines(report.graph))
                out.writelines(edgelist_lines(report.source))
                out.flush()
    return EXIT_OK if report.demonstrates_sharpness else EXIT_VIOLATIONS


def cmd_corpus(args) -> int:
    rng = random.Random(args.seed)
    make = {
        "multi": lambda: random_multigraph(rng, max_edges=args.max_edges),
        "e3ec": lambda: random_essentially_3ec_multigraph(rng, max_edges=args.max_edges),
        "3ec": lambda: random_3_edge_connected_multigraph(rng, max_edges=args.max_edges),
    }[args.kind]
    for _ in range(args.count):
        print(encode_sparse6(make()))
    return EXIT_OK


def _int_at_least(least: int, what: str, most: Optional[int] = None):
    """An argparse type: an integer of at least ``least`` and, when given,
    at most ``most``, else a parse-time error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"needs at least {least} {what}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"takes at most {most} {what}, got {value}")
        return value

    return parse


#: The largest P whose L(H_P), on 12 + 8P vertices, is within the input cap.
MAX_PENDANTS = (MAX_INPUT_VERTICES - 12) // 8

_worker_count = _int_at_least(1, "worker")
_pendant_count = _int_at_least(1, "pendant edge per vertex", MAX_PENDANTS)
_vertex_bound = _int_at_least(1, "vertex")
_graph_count = _int_at_least(0, "graphs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamconn",
        description="hamiltonian connectivity of claw-free graphs: verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p, named=True):
        p.add_argument("--input", help="input file")
        p.add_argument("--format", choices=("g6", "s6", "el"), default="g6")
        if named:
            p.add_argument("--named", choices=sorted(NAMED), help="use a built-in graph")

    p = sub.add_parser("verify", help="verify a theorem over a corpus")
    p.add_argument("--hypothesis", choices=HYPOTHESES, default="thm1")
    p.add_argument(
        "--n",
        type=_vertex_bound,
        default=6,
        help=f"enumerate all labeled graphs on 1..N vertices (N at most {MAX_CLAW_FREE_VERTICES})",
    )
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--emit-witnesses", help="write violating graphs to this file")
    add_input_options(p, named=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("props", help="print a property table")
    add_input_options(p)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("pipeline", help="hamiltonian path via the core reduction")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    add_input_options(p, named=False)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("counterexample", help="sharpness family from the Wagner graph")
    p.add_argument(
        "pendants",
        type=_pendant_count,
        nargs="?",
        default=1,
        help=f"pendant edges per vertex, 1 to {MAX_PENDANTS} (the line graph has 12 + 8P vertices)",
    )
    p.add_argument("--emit", help="write edge lists to this file")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("corpus", help="generate random corpora")
    p.add_argument("--kind", choices=("multi", "e3ec", "3ec"), default="multi")
    p.add_argument("--count", type=_graph_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-edges", type=int, default=12)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EncodingError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LiftFailedError as exc:
        print(f"internal validation failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Anything else is a fault of the program, never "violations found".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
