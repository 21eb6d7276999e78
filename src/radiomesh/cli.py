"""Command-line front end.

Subcommands: gen, diam, rn-exact, bound, label, validate, verify,
compare, one row each in :data:`COMMANDS`. :func:`main` builds the
parser on its first call and reuses it; each parse returns a fresh
namespace, so no call sees another's arguments. Results go to stdout or
``--out``; errors go to stderr. Exit codes: 0 success, 1 failed
validation, malformed input file or runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache, partial

from . import claims, formulas
from .formats import (
    format_labeling,
    format_product_graph,
    parse_graph,
    parse_labeling,
    read_text,
    write_text,
)
from .graphs import (
    DisconnectedGraphError,
    InvalidParameterError,
    all_pairs_distances,
    build_mesh,
    build_path,
    build_star,
    diameter,
)
from .labeling import validate
from .orderings import build_construction_labeling
from .product import CellIndexing, ProductParams, build_product_graph
from .search import DEFAULT_NODE_LIMIT, RnStatus, exact_rn


def _emit(args, text: str) -> None:
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    pg = build_product_graph(ProductParams(args.m, args.n))
    _emit(args, format_product_graph(pg))
    return 0


def cmd_diam(args) -> int:
    params = ProductParams(args.m, args.n)
    observed = diameter(build_product_graph(params).graph)
    claimed = 2 * params.m
    if args.format == "csv":
        _emit(args, f"m,n,bfs_diameter,claimed\n{args.m},{args.n},{observed},{claimed}\n")
        return 0
    note = "" if observed == claimed else f"  (claimed {claimed}: DEVIATION)"
    _emit(args, f"diameter of product m={args.m} n={args.n}: {observed}{note}\n")
    return 0


# rn-exact's graph families: name -> (builder, the flags it takes in order)
FAMILIES = {
    "path": (build_path, ("m",)),
    "star": (build_star, ("n",)),
    "mesh": (build_mesh, ("m",)),
    "product": (lambda m, n: build_product_graph(ProductParams(m, n)).graph, ("m", "n")),
}


def _only(args, flag: str, others: tuple[str, ...]) -> None:
    """Usage error when ``flag``, which names the graph alone, comes with any of ``others``."""
    given = [f"--{other}" for other in others if getattr(args, other) is not None]
    if given:
        raise InvalidParameterError(f"{flag} cannot be combined with {' or '.join(given)}")


def _family_graph(args):
    family = args.family or "product"
    build, flags = FAMILIES[family]
    _only(args, f"--family {family}", tuple(flag for flag in ("m", "n") if flag not in flags))
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        needs = " and ".join(f"--{flag}" for flag in flags)
        raise InvalidParameterError(f"--family {family} needs {needs}")
    name = " ".join(f"{flag}={value}" for flag, value in zip(flags, values))
    return build(*values), f"{family} {name}"


def cmd_rn_exact(args) -> int:
    if args.infile:
        _only(args, "--in", ("family", "m", "n"))
        graph, _coords = parse_graph(read_text(args.infile))
        name = args.infile
    else:
        graph, name = _family_graph(args)
    result = exact_rn(graph, node_limit=args.node_limit)
    if args.format == "csv":
        _emit(args, f"graph,value,status,nodes\n{name},{result.value},{result.status.value},{result.nodes}\n")
    else:
        qualifier = "" if result.status is RnStatus.EXACT else f" ({result.status.value}, best found)"
        _emit(args, f"rn({name}) = {result.value}{qualifier}\n")
    return 0


def cmd_bound(args) -> int:
    params = ProductParams(args.m, args.n)
    value = formulas.combined_bound(params)
    if args.format == "csv":
        _emit(args, formulas.bounds_table_csv(formulas.bounds_table(params)))
        return 0
    _emit(args, f"combined span bound for m={args.m} n={args.n}: {claims.render_fraction(value)}\n")
    return 0


def cmd_label(args) -> int:
    params = ProductParams(args.m, args.n)
    built = build_construction_labeling(params, args.indexing)
    bound = formulas.combined_bound(params)
    if args.out:
        write_text(args.out, format_labeling(built.greedy))
    lines = [
        f"construction labeling for m={args.m} n={args.n} indexing={args.indexing.value}",
        f"greedy span: {built.greedy.span} (valid)",
        f"consecutive-only span: {built.consecutive.span} "
        f"({'valid' if built.consecutive_valid else 'invalid'})",
        f"claimed bound: {claims.render_fraction(bound)}",
    ]
    if args.format == "csv":
        sys.stdout.write(
            "m,n,indexing,greedy_span,consecutive_span,consecutive_valid,bound\n"
            f"{args.m},{args.n},{args.indexing.value},{built.greedy.span},"
            f"{built.consecutive.span},{str(built.consecutive_valid).lower()},"
            f"{claims.render_fraction(bound)}\n"
        )
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    if args.graph:
        _only(args, "--graph", ("m", "n"))
        graph, _coords = parse_graph(read_text(args.graph))
    elif args.m is not None and args.n is not None:
        graph = build_product_graph(ProductParams(args.m, args.n)).graph
    else:
        raise InvalidParameterError("validate needs --graph FILE or --m/--n")
    labeling = parse_labeling(read_text(args.labeling))
    dm = all_pairs_distances(graph)
    report = validate(graph, dm, labeling)
    if args.format == "csv":
        sys.stdout.write("valid,span,violations\n")
        sys.stdout.write(
            f"{str(report.valid).lower()},{labeling.span},{len(report.violations)}\n"
        )
        return 0 if report.valid else 1
    if report.valid:
        sys.stdout.write(f"valid labeling, span {labeling.span}\n")
        return 0
    sys.stdout.write(f"INVALID labeling: {len(report.violations)} violating pairs\n")
    for v in report.violations[:20]:
        sys.stdout.write(f"  ({v.u}, {v.v}) needs gap {v.required}, has {v.actual}\n")
    if len(report.violations) > 20:
        sys.stdout.write(f"  ... {len(report.violations) - 20} more\n")
    return 1


def _distinct_items(convert, what: str, text: str) -> tuple:
    """A list flag's comma-separated ``text``, each item through ``convert``.

    An item ``convert`` rejects, or a repeated value, is a usage error.
    """
    try:
        values = tuple(convert(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated distinct integers; a blank value is the empty list."""
    return _distinct_items(int, "integers", text) if text.strip() else ()


def _orders(parity: int):
    """Type for a comma-separated list of mesh orders m with m % 2 == parity."""
    def orders(text: str) -> tuple[int, ...]:
        values = _int_list(text)
        if any(m % 2 != parity for m in values):
            raise argparse.ArgumentTypeError(f"expected {('even', 'odd')[parity]} mesh orders, got {text!r}")
        return values
    return orders


def _schemes(text: str) -> tuple[CellIndexing, ...]:
    names = ",".join(scheme.value for scheme in CellIndexing)
    return _distinct_items(CellIndexing, f"schemes from {{{names}}}", text)


def _m_range(text: str) -> range:
    """Inclusive ``lo:hi``, or a single m; an empty range is a usage error."""
    lo, _, hi = text.partition(":")
    try:
        m_values = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer m or a range lo:hi, got {text!r}") from None
    if not m_values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return m_values


def cmd_verify(args) -> int:
    config = claims.VerifyConfig(
        even_m=args.even_m, odd_m=args.odd_m, ns=args.ns, indexings=args.schemes
    )
    rows = claims.run_verification(config)
    if args.format == "csv":
        _emit(args, claims.verdicts_to_csv(rows))
    else:
        _emit(args, claims.verdicts_to_text(rows))
    return 0


def cmd_compare(args) -> int:
    rows = formulas.vertex_count_comparison(args.m_range, args.n)
    lines = ["m,n,product_vertices,star_path_vertices,ratio"]
    for row in rows:
        lines.append(
            f"{row.m},{row.n},{row.product_vertices},{row.star_path_vertices},{row.ratio}"
        )
    out = "\n".join(lines) + "\n"
    if args.with_bounds:
        out += "m,n,bound_num,bound_den,greedy_span\n"
        for m in args.m_range:
            params = ProductParams(m, args.n)
            bound = formulas.combined_bound(params)
            built = build_construction_labeling(params)
            out += f"{m},{args.n},{bound.numerator},{bound.denominator},{built.greedy.span}\n"
    _emit(args, out)
    return 0


def _add_common(parser, m=False, n=False, out=False, fmt=False):
    if m:
        parser.add_argument("--m", type=int, required=True, help="mesh order (>= 2)")
    if n:
        parser.add_argument("--n", type=int, required=True, help="star leaf count (>= 1)")
    if out:
        parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if fmt:
        parser.add_argument("--format", choices=("text", "csv"), default="text")


def _rn_exact_arguments(p) -> None:
    p.add_argument("--family", choices=tuple(FAMILIES), default=None, help="graph family (default: product)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None, help="graph file instead of a family")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT, help="search node budget")
    _add_common(p, out=True, fmt=True)


def _label_arguments(p) -> None:
    _add_common(p, m=True, n=True, fmt=True)
    p.add_argument(
        "--indexing", type=CellIndexing, default=CellIndexing.ROW_MAJOR, choices=list(CellIndexing),
        metavar="{" + ",".join(scheme.value for scheme in CellIndexing) + "}",
    )
    p.add_argument("--out", default=None, help="write the greedy labeling file here")


def _validate_arguments(p) -> None:
    p.add_argument("--labeling", required=True, help="labeling file")
    p.add_argument("--graph", default=None, help="graph file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p, fmt=True)


def _verify_arguments(p) -> None:
    grid = claims.VerifyConfig()
    p.add_argument("--even-m", type=_orders(0), default=grid.even_m, dest="even_m")
    p.add_argument("--odd-m", type=_orders(1), default=grid.odd_m, dest="odd_m")
    p.add_argument("--ns", type=_int_list, default=grid.ns)
    p.add_argument("--schemes", type=_schemes, default=grid.indexings, help="comma-separated schemes")
    _add_common(p, out=True, fmt=True)


def _compare_arguments(p) -> None:
    p.add_argument(
        "--m-range", type=_m_range, default="2:6", dest="m_range", help="inclusive range, e.g. 2:6"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-bounds", action="store_true", dest="with_bounds")
    _add_common(p, out=True)


_product_arguments = partial(_add_common, m=True, n=True, out=True)
_product_format_arguments = partial(_add_common, m=True, n=True, out=True, fmt=True)

# One row per subcommand: name, help line, argument adder, handler.
COMMANDS = (
    ("gen", "write a product graph file", _product_arguments, cmd_gen),
    ("diam", "BFS diameter of a product graph", _product_format_arguments, cmd_diam),
    ("rn-exact", "exact radio number by search", _rn_exact_arguments, cmd_rn_exact),
    ("bound", "closed-form span bound(s) at (m, n)", _product_format_arguments, cmd_bound),
    ("label", "build the construction labeling", _label_arguments, cmd_label),
    ("validate", "validate a labeling file against a graph", _validate_arguments, cmd_validate),
    ("verify", "adjudicate the claims catalog over a grid", _verify_arguments, cmd_verify),
    ("compare", "vertex-count comparison table", _compare_arguments, cmd_compare),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``radiomesh`` parser, one subcommand per row of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="radiomesh",
        description="Radio labeling toolkit for mesh-by-star product networks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in COMMANDS:
        # no flag prefixes: `compare --m 4` must not run as `--m-range 4`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_arguments(p)
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
    except (OSError, ValueError, DisconnectedGraphError) as exc:
        print(f"radiomesh: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
