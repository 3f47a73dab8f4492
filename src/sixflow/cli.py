"""Command-line front end: solve, verify, gen, oracle, bench.

Exit codes: 0 success, 1 input/parse error, 2 structural rejection or guard
violation, 3 verification failure. The distinction lets harnesses separate
defects from misuse.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from . import fileio
from ._collector import paused
from .connectivity import is_2_edge_connected
from .construct import solve
from .errors import GuardError, InputError, SixflowError, StructuralError
from .flows import flow_violation, k_flow_violation, rooted_violation
from .testkit import enumerate_nz_flows, random_2ec_multigraph, rooted_flows
from .tutte import group_flow_to_integer_flow, group_flow_to_z6

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STRUCTURE = 2
EXIT_VERIFY = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StructuralError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except SixflowError as exc:  # internal check failures: report loudly
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixflow",
        description="Construct and verify nowhere-zero 6-flows on "
        "2-edge-connected multigraphs.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("solve", help="construct a flow for a graph file")
    p.add_argument("graph", help="graph file path, or - for stdin")
    p.add_argument("--root", type=int, default=0, help="root vertex (default 0)")
    p.add_argument("--trace", action="store_true", help="print recursion steps to stderr")
    p.add_argument("--debug-verify", action="store_true",
                   help="re-verify every intermediate flow")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a flow file against a graph file")
    p.add_argument("graph")
    p.add_argument("flow")
    p.add_argument("--mode", choices=("group", "theorem2", "k6"), default="theorem2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random 2-edge-connected multigraph")
    p.add_argument("n", type=int, help="vertex count")
    p.add_argument("--extra-ears", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force flow enumeration report")
    p.add_argument("graph")
    p.add_argument("--guard-edges", type=int, default=None,
                   help="override the enumeration size guard")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="timing table over random instances")
    p.add_argument("--sizes", type=_int_list, default="100,1000",
                   help="comma-separated vertex counts")
    p.add_argument("--seeds", type=_int_list, default="0", help="comma-separated seeds")
    p.add_argument("--reps", type=int, default=1, help="repetitions per instance")
    p.set_defaults(func=_cmd_bench)
    return parser


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of integers."""
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid comma-separated int value: {text!r}") from None


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


@paused
def _cmd_solve(args) -> int:
    g = fileio.parse_graph(_read(args.graph))
    flow, trace = solve(g, args.root, debug=args.debug_verify)
    if args.trace:
        if trace.reduction is not None:
            sys.stderr.write(f"c {trace.reduction}\n")
        sys.stderr.writelines(f"c {step}\n" for step in trace.steps)
    int6 = group_flow_to_integer_flow(g, group_flow_to_z6(flow))
    doc = fileio.build_flow_document(g, args.root, flow, int6)
    sys.stdout.write(fileio.format_flow(doc, args.format))
    return EXIT_OK


@paused
def _cmd_verify(args) -> int:
    g = fileio.parse_graph(_read(args.graph))
    doc = fileio.parse_flow(_read(args.flow))
    if not fileio.flow_matches_graph(doc, g):
        raise InputError("flow file does not match the graph's edge set")
    if not 0 <= doc.root < g.n:
        raise InputError(f"flow root {doc.root} is not a vertex of the graph (n={g.n})")
    if args.mode == "group":
        witness = flow_violation(g, doc.group_flow())
        label = "conservation broken"
    elif args.mode == "theorem2":
        witness = rooted_violation(g, doc.root, doc.group_flow())
        label = "rooted condition violated"
    else:  # k6
        witness = k_flow_violation(g, doc.integer_flow(), 6)
        label = "6-flow condition violated"
    if witness is not None:
        kind, which = witness
        print(f"verification failed: {label} at {kind} {which}")
        return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = random_2ec_multigraph(args.n, args.extra_ears, args.seed)
    sys.stdout.write(fileio.format_graph(g))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = fileio.parse_graph(_read(args.graph))
    if not is_2_edge_connected(g):
        raise StructuralError("oracle requires a 2-edge-connected graph")
    flows = enumerate_nz_flows(g, "z2xz3", args.guard_edges)
    failed = next((u for u in g.vertices() if not rooted_flows(g, u, flows)), None)
    verdict = "holds for all roots" if failed is None else f"fails for root {failed}"
    print(f"{len(flows)} nowhere-zero Z2xZ3 flows; theorem2 {verdict}")
    return EXIT_OK if failed is None else EXIT_VERIFY


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise InputError("repetition count must be positive")
    print("size seed n m wall_ms depth aug_rounds scanned collections")
    for size in args.sizes:
        for seed in args.seeds:
            g = random_2ec_multigraph(size, size, seed)
            best = None
            for _ in range(args.reps):
                stats: dict = {}
                runs = _collections()
                t0 = time.perf_counter()
                flow, trace = solve(g, 0)
                group_flow_to_integer_flow(g, group_flow_to_z6(flow), stats)
                elapsed = (time.perf_counter() - t0) * 1000.0
                runs = _collections() - runs
                row = (g.n, g.m, elapsed, trace.depth, stats["augmentation_rounds"],
                       stats["edges_scanned"], runs)
                if best is None or elapsed < best[2]:
                    best = row
            n, m, wall, depth, rounds, scanned, runs = best
            print(f"{size} {seed} {n} {m} {wall:.1f} {depth} {rounds} {scanned} {runs}")
    return EXIT_OK


def _collections() -> int:
    """Cyclic-collector runs so far in this process, over all generations."""
    return sum(gen["collections"] for gen in gc.get_stats())


if __name__ == "__main__":
    sys.exit(main())
