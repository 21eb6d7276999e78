import re

import pytest

from radiomesh import cli, graphs
from radiomesh.cli import COMMANDS, build_parser, main
from radiomesh.product import ProductParams, build_product_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unwritable_out_path_reports_and_fails(capsys):
    code, _, err = run(capsys, "label", "--m", "2", "--n", "1", "--out", "/nonexistent/dir/l.txt")
    assert code == 1
    assert "/nonexistent/dir/l.txt" in err


def test_diam_flags_single_leaf_deviation(capsys):
    code, out, _ = run(capsys, "diam", "--m", "3", "--n", "1")
    assert code == 0
    assert "5" in out and "DEVIATION" in out

    code, out, _ = run(capsys, "diam", "--m", "3", "--n", "2")
    assert code == 0 and "DEVIATION" not in out


@pytest.mark.parametrize("n", ["1", "2"])
def test_cor3_diameter_is_read_one_way(capsys, n):
    # `diam`, the `bound` table and the verdict table claim one diameter at every n
    _, out, _ = run(capsys, "diam", "--m", "4", "--n", n, "--format", "csv")
    claimed = out.splitlines()[1].split(",")[3]
    _, out, _ = run(capsys, "bound", "--m", "4", "--n", n, "--format", "csv")
    bound_rows = [line for line in out.splitlines() if line.startswith("DiamCor3,")]
    assert bound_rows == [f"DiamCor3,4,{n},{claimed},1,true"]
    _, out, _ = run(capsys, "verify", "--ms", "4", "--ns", n, "--format", "csv")
    verdict_rows = [line for line in out.splitlines() if line.startswith("Cor3.Diameter,")]
    assert [row.split(",")[4:6] for row in verdict_rows] == [[claimed, "1"]]


# the product is the only family rn-exact names, by its size flags; `family`
# holds the other flags beside them, which neither name a graph nor excuse
# a missing size flag
@pytest.mark.parametrize(
    "family, flags, line",
    [
        ([], ["--m", "2", "--n", "2"], "rn(product m=2 n=2) = 22"),
        ([], ["--n", "2", "--m", "2"], "rn(product m=2 n=2) = 22"),
        (["--format", "text"], ["--m", "2", "--n", "2"], "rn(product m=2 n=2) = 22"),
        (["--format", "text"], ["--m", "2", "--n", "1"], "rn(product m=2 n=1) = 10"),
        ([], ["--m", "2", "--n", "1"], "rn(product m=2 n=1) = 10"),
    ],
)
def test_rn_exact_names_each_family_and_its_missing_flags(capsys, family, flags, line):
    code, out, err = run(capsys, "rn-exact", *family, *flags)
    assert (code, out, err) == (0, line + "\n", "")
    pairs = [flags[i : i + 2] for i in range(0, len(flags), 2)]
    # each size flag left out in turn, then both
    for missing in [[q] for q in pairs] + [pairs]:
        kept = [f for p in pairs if p not in missing for f in p]
        code, out, err = _exit_of(main, ["rn-exact", *family, *kept], capsys)
        named = ", ".join(sorted(p[0] for p in missing))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: the following arguments are required: {named}\n"), err


def test_rn_exact_node_limit_reports_best_found(capsys):
    code, out, _ = run(capsys, "rn-exact", "--m", "2", "--n", "2", "--node-limit", "50")
    assert code == 0
    assert "(upper-bound-only, best found)" in out


def test_rn_exact_negative_node_limit_exits_2(capsys):
    code, out, err = run(capsys, "rn-exact", "--m", "2", "--n", "1", "--node-limit", "-5")
    assert code == 2
    assert out == ""
    assert "node limit must be >= 0, got -5" in err


def test_bound_prints_combined_value(capsys):
    code, out, _ = run(capsys, "bound", "--m", "5", "--n", "5")
    assert code == 0
    assert "549" in out


def test_bound_csv_is_full_table(capsys):
    code, out, _ = run(capsys, "bound", "--m", "5", "--n", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "bound_id,m,n,value_num,value_den,integral"
    assert "Thm18OddBound,5,5,549,1,true" in out


def test_label_then_validate_roundtrip(tmp_path, capsys):
    lab = tmp_path / "lab.txt"
    code, out, _ = run(capsys, "label", "--m", "3", "--n", "2", "--out", str(lab))
    assert code == 0
    assert "greedy span" in out

    code, out, _ = run(capsys, "validate", "--m", "3", "--n", "2", "--labeling", str(lab))
    assert code == 0
    assert out.startswith("valid labeling")


def test_label_and_validate_never_lay_out_product_adjacency(tmp_path, capsys, monkeypatch):
    laid_out = []
    layout = graphs._product_adjacency

    def spy(a, b):
        laid_out.append((a.num_vertices, b.num_vertices))
        return layout(a, b)

    monkeypatch.setattr(graphs, "_product_adjacency", spy)
    lab = tmp_path / "lab.txt"
    code, out, _ = run(capsys, "label", "--m", "12", "--n", "4", "--out", str(lab))
    assert code == 0 and "greedy span" in out
    code, out, _ = run(capsys, "validate", "--m", "12", "--n", "4", "--labeling", str(lab))
    assert code == 0 and out.startswith("valid labeling")
    assert laid_out == []
    # the spy does see a read: the outer fold reads, and so lays out, the inner one
    assert build_product_graph(ProductParams(12, 4)).graph.degree(0) == 6
    assert laid_out == [(144, 5), (12, 12)]


def test_validate_rejects_broken_labeling(tmp_path, capsys):
    lab = tmp_path / "bad.txt"
    pg = build_product_graph(ProductParams(2, 1))
    lab.write_text("".join(f"{v} 0\n" for v in range(pg.graph.num_vertices)))
    code, out, _ = run(capsys, "validate", "--m", "2", "--n", "1", "--labeling", str(lab))
    assert code == 1
    assert "INVALID" in out


def test_validate_malformed_labeling_file_exits_1(tmp_path, capsys):
    lab = tmp_path / "neg.txt"
    lab.write_text("0 0\n1 -3\n")
    code, _, err = run(capsys, "validate", "--m", "2", "--n", "1", "--labeling", str(lab))
    assert code == 1
    assert "line 2" in err


def test_validate_labeling_of_the_wrong_size_exits_1(tmp_path, capsys):
    lab = tmp_path / "short.txt"
    lab.write_text("0 0\n1 5\n")
    code, out, err = run(capsys, "validate", "--m", "2", "--n", "1", "--labeling", str(lab))
    assert code == 1
    assert out == ""
    assert err == "radiomesh: labeling covers 2 vertices, graph has 8\n"


def test_validate_usage_error_without_graph(tmp_path, capsys):
    lab = tmp_path / "lab.txt"
    lab.write_text("0 0\n1 2\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--labeling", str(lab)])
    assert excinfo.value.code == 2
    assert "the following arguments are required: --m, --n" in capsys.readouterr().err


def test_bad_parameters_exit_2(capsys):
    code, _, err = run(capsys, "diam", "--m", "1", "--n", "1")
    assert code == 2
    assert "m must be >= 2" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["diam", "--m", "4"])  # missing --n
    assert excinfo.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["gen", "--m", "2", "--n", "1"], "invalid choice: 'gen'"),
        (["compare", "--n", "1"], "invalid choice: 'compare'"),
        (["rn-exact", "--m", "2", "--n", "1", "--family", "path"], "unrecognized arguments: --family path"),
        (["rn-exact", "--m", "2", "--n", "1", "--in", "g.txt"], "unrecognized arguments: --in g.txt"),
        (
            ["validate", "--m", "2", "--n", "1", "--labeling", "lab.txt", "--graph", "g.txt"],
            "unrecognized arguments: --graph g.txt",
        ),
    ],
    ids=["gen", "compare", "rn-exact-family", "rn-exact-in", "validate-graph"],
)
def test_other_ways_to_name_a_graph_are_usage_errors(argv, error, capsys):
    # every graph is the product named by --m and --n
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert error in capsys.readouterr().err


def test_verify_small_grid_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--ms", "2", "--ns", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == "claim_id,m,n,indexing,expected_num,expected_den,observed,verdict"
    assert any(line.startswith("Ex3.1.Value,4,5,-,304,1,264,Mismatch") for line in lines)
    assert any(line.startswith("Cor3.Diameter,2,1,-,4,1,3,Mismatch") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--ms", "x"],
        ["verify", "--ms", "2,"],
        ["verify", "--ns", "x"],
        ["verify", "--ns", "bogus"],
        ["verify", "--ns", "1,"],
        ["verify", "--ms", "3,3.5"],
        ["verify", "--ns", "1,1"],
        ["verify", "--ms", "2,2"],
        ["verify", "--ms", "3,3"],
        ["verify", "--ns", "1,2.5"],
        ["verify", "--ms", "2,x"],
    ],
)
def test_malformed_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}" in err
    # argparse reports a type function's ValueError as "invalid <function name>
    # value"; each of ours raises ArgumentTypeError with a plain message instead
    assert re.search(r"(?<!\w)_\w", err) is None, err
    assert re.search(r"invalid \S+ value", err) is None, err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--m", "3", "--n", "2", "--indexing", "col-major"],
        ["rn-exact", "--m", "2", "--n", "1", "--indexing", "col-major"],
        ["validate", "--m", "2", "--n", "1", "--labeling", "lab.txt", "--indexing", "col-major"],
        ["diam", "--m", "2", "--n", "1", "--out", "x"],
        ["rn-exact", "--m", "2", "--n", "1", "--out", "x"],
        ["bound", "--m", "2", "--n", "1", "--out", "x"],
        ["verify", "--out", "x"],
        ["label", "--m", "2", "--n", "1", "--format", "csv"],
        ["validate", "--m", "2", "--n", "1", "--labeling", "lab.txt", "--format", "csv"],
        ["verify", "--even-m", "2"],
        ["verify", "--odd-m", "3"],
        ["verify", "--schemes", "row-major"],
    ],
)
def test_flags_that_change_no_output_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# every flag each command takes, in the order its help lists them
FLAGS = {
    "diam": ["--m", "--n", "--format"],
    "rn-exact": ["--m", "--n", "--format", "--node-limit"],
    "bound": ["--m", "--n", "--format"],
    "label": ["--m", "--n", "--indexing", "--out"],
    "validate": ["--labeling", "--m", "--n"],
    "verify": ["--ms", "--ns", "--format"],
}


def test_each_command_takes_exactly_its_flags():
    commands = build_parser()._subparsers._group_actions[0].choices
    taken = {
        name: [flag for action in parser._actions if action.dest != "help" for flag in action.option_strings]
        for name, parser in commands.items()
    }
    assert taken == FLAGS
    assert sum(map(len, taken.values())) == 20


@pytest.mark.parametrize(
    "argv",
    [["verify", "--m", "2"], ["rn-exact", "--m", "2", "--n", "1", "--node", "5"]],
)
def test_flag_prefixes_are_not_flags(argv, capsys):
    # a unique prefix of --ms or --node-limit is not taken for it
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# the least arguments each command runs with, so an unknown flag after
# them is reported by the top-level parser
RUNNABLE = {
    "diam": ["--m", "2", "--n", "1"],
    "rn-exact": ["--m", "2", "--n", "1"],
    "bound": ["--m", "2", "--n", "1"],
    "label": ["--m", "2", "--n", "1"],
    "validate": ["--m", "2", "--n", "1", "--labeling", "lab.txt"],
    "verify": [],
}


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def test_command_table_names_every_command():
    assert [row[0] for row in COMMANDS] == list(RUNNABLE)


@pytest.mark.parametrize("command", list(RUNNABLE))
@pytest.mark.parametrize("tail", ["help", "unknown flag", "unknown flag, missing arguments"])
def test_one_command_parser_prints_what_the_full_parser_prints(command, tail, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    argv = {
        "help": [command, "--help"],
        "unknown flag": [command, *RUNNABLE[command], "--no-such-flag"],
        "unknown flag, missing arguments": [command, "--no-such-flag"],
    }[tail]
    via_main = _exit_of(main, argv, capsys)
    assert via_main == _exit_of(build_parser().parse_args, argv, capsys)
    assert via_main[0] == (0 if tail == "help" else 2)


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "diam"]])
def test_top_level_usage_lists_every_command(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = _exit_of(main, argv, capsys)
    assert (code, out, err) == _exit_of(build_parser().parse_args, argv, capsys)
    assert "{diam,rn-exact,bound,label,validate,verify}" in out + err
    if argv[:1] in (["--help"], ["-h"]):
        for name, help_text, _add_arguments, _handler in COMMANDS:
            assert f"    {name}" in out and help_text in out


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def spy():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for command in ("bound", "bound", "diam"):
            code, _, _ = run(capsys, command, "--m", "3", "--n", "2")
            assert code == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert list(built[0]._subparsers._group_actions[0].choices) == list(RUNNABLE)


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# calls whose flags differ from one to the next, so a value left over
# from an earlier parse would show in a later call's output
SEQUENCE = [
    ["label", "--m", "3", "--n", "2", "--indexing", "serpentine"],
    ["label", "--m", "3", "--n", "2"],
    ["label", "--m", "3"],
    ["bound", "--m", "3", "--n", "2"],
    ["verify", "--ms", "2", "--ns", "1"],
]


def test_a_reused_parser_answers_each_call_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    fresh = []
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    cli._parser.cache_clear()
    reused = [_outcome(argv, capsys) for argv in SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    assert reused[1][1].startswith("construction labeling for m=3 n=2")
