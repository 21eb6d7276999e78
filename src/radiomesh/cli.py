"""Command-line front end.

Subcommands: diam, rn-exact, bound, label, validate, verify, one row
each in :data:`COMMANDS`, which names the flags it takes. Each flag is
defined once, in :data:`FLAGS`. Every graph is the product P(m,m) x K_{1,n},
named by ``--m`` and ``--n``; ``verify`` takes a grid of them, its mesh
orders in one ``--ms`` list. :func:`main` builds the parser on its
first call and reuses it; each parse returns a fresh namespace, so no
call sees another's arguments. Results go to stdout; ``label --out``
also writes the labeling file. Errors go to stderr. Exit codes: 0
success, 1 failed validation, malformed labeling file or runtime error,
2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from . import claims, formulas
from .formats import format_labeling, parse_labeling, read_text, write_text
from .graphs import InvalidParameterError, all_pairs_distances
from .labeling import validate
from .orderings import build_construction_labeling
from .product import CellIndexing, ProductParams, build_product_graph
from .search import DEFAULT_NODE_LIMIT, RnStatus, exact_rn


def cmd_diam(args) -> int:
    params = ProductParams(args.m, args.n)
    observed = claims.certified_distances(build_product_graph(params)).diameter
    claimed = formulas.diam_formula(params)
    if args.format == "csv":
        sys.stdout.write(f"m,n,bfs_diameter,claimed\n{args.m},{args.n},{observed},{claimed}\n")
        return 0
    note = "" if observed == claimed else f"  (claimed {claimed}: DEVIATION)"
    sys.stdout.write(f"diameter of product m={args.m} n={args.n}: {observed}{note}\n")
    return 0


def cmd_rn_exact(args) -> int:
    graph = build_product_graph(ProductParams(args.m, args.n)).graph
    name = f"product m={args.m} n={args.n}"
    result = exact_rn(graph, node_limit=args.node_limit)
    if args.format == "csv":
        sys.stdout.write(f"graph,value,status,nodes\n{name},{result.value},{result.status.value},{result.nodes}\n")
    else:
        qualifier = "" if result.status is RnStatus.EXACT else f" ({result.status.value}, best found)"
        sys.stdout.write(f"rn({name}) = {result.value}{qualifier}\n")
    return 0


def cmd_bound(args) -> int:
    params = ProductParams(args.m, args.n)
    value = formulas.combined_bound(params)
    if args.format == "csv":
        sys.stdout.write(formulas.bounds_table_csv(formulas.bounds_table(params)))
        return 0
    sys.stdout.write(f"combined span bound for m={args.m} n={args.n}: {claims.render_fraction(value)}\n")
    return 0


def cmd_label(args) -> int:
    params = ProductParams(args.m, args.n)
    indexing = CellIndexing(args.indexing)
    built = build_construction_labeling(params, indexing)
    if args.out is not None:
        write_text(args.out, format_labeling(built.greedy))
    lines = [
        f"construction labeling for m={args.m} n={args.n} indexing={indexing.value}",
        f"greedy span: {built.greedy.span} (valid)",
        f"consecutive-only span: {built.consecutive.span} "
        f"({'valid' if built.consecutive_valid else 'invalid'})",
        f"claimed bound: {claims.render_fraction(formulas.combined_bound(params))}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    graph = build_product_graph(ProductParams(args.m, args.n)).graph
    labeling = parse_labeling(read_text(args.labeling))
    dm = all_pairs_distances(graph)
    report = validate(graph, dm, labeling)
    if report.valid:
        sys.stdout.write(f"valid labeling, span {labeling.span}\n")
        return 0
    sys.stdout.write(f"INVALID labeling: {len(report.violations)} violating pairs\n")
    for v in report.violations[:20]:
        sys.stdout.write(f"  ({v.u}, {v.v}) needs gap {v.required}, has {v.actual}\n")
    if len(report.violations) > 20:
        sys.stdout.write(f"  ... {len(report.violations) - 20} more\n")
    return 1


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated distinct integers; a blank value is the empty list.

    An item that is not an integer, or a repeated value, is a usage error.
    """
    if not text.strip():
        return ()
    try:
        values = tuple(int(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _path(text: str) -> str:
    """A file path; the empty path would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def cmd_verify(args) -> int:
    # split by parity here, so no order is filed under the wrong one
    even_m = tuple(m for m in args.ms if m % 2 == 0)
    odd_m = tuple(m for m in args.ms if m % 2)
    config = claims.VerifyConfig(even_m=even_m, odd_m=odd_m, ns=args.ns)
    render = claims.verdicts_to_csv if args.format == "csv" else claims.verdicts_to_text
    sys.stdout.write(render(claims.run_verification(config)))
    return 0


# Each flag's add_argument keywords, stated once; a COMMANDS row names
# the flags its subcommand takes, in the order its help lists them.
FLAGS = {
    "--m": dict(type=int, required=True, help="mesh order (>= 2)"),
    "--n": dict(type=int, required=True, help="star leaf count (>= 1)"),
    "--format": dict(choices=("text", "csv"), default="text"),
    "--node-limit": dict(type=int, default=DEFAULT_NODE_LIMIT, help="search node budget"),
    "--indexing": dict(choices=[scheme.value for scheme in CellIndexing], default="row-major"),
    "--out": dict(type=_path, help="write the greedy labeling file here"),
    "--labeling": dict(required=True, help="labeling file"),
    "--ms": dict(type=_int_list, default=claims.VerifyConfig.even_m + claims.VerifyConfig.odd_m,
                 help="comma-separated mesh orders"),
    "--ns": dict(type=_int_list, default=claims.VerifyConfig.ns),
}

# One row per subcommand: name, help line, flags, handler.
COMMANDS = (
    ("diam", "certified diameter of a product graph", ("--m", "--n", "--format"), cmd_diam),
    ("rn-exact", "exact radio number by search", ("--m", "--n", "--format", "--node-limit"), cmd_rn_exact),
    ("bound", "closed-form span bound(s) at (m, n)", ("--m", "--n", "--format"), cmd_bound),
    ("label", "build the construction labeling", ("--m", "--n", "--indexing", "--out"), cmd_label),
    ("validate", "validate a labeling file against a product graph", ("--labeling", "--m", "--n"), cmd_validate),
    ("verify", "adjudicate the claims catalog over a grid", ("--ms", "--ns", "--format"), cmd_verify),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``radiomesh`` parser, one subcommand per row of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="radiomesh",
        description="Radio labeling toolkit for mesh-by-star product networks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in COMMANDS:
        # no flag prefixes: `verify --m 2` must not run as `--ms 2`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"radiomesh: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"radiomesh: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
