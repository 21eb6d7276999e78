import re
import shlex
from pathlib import Path

from radiomesh.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_its_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["4", "22 RnStatus.EXACT", "32", "22"]


def test_readme_command_line_example_prints_its_comments(tmp_path, capsys, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    blocks = [block for block in blocks if block.startswith("radiomesh ")]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    claimed = []
    for line in blocks[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "radiomesh", line
        # a trailing `> file` sends stdout there
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[-1]
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out)
        if comment:
            first = re.search(r"\d+", comment).group()
            assert first in re.findall(r"\d+", out), line
            claimed.append(first)
    assert claimed == ["5", "10", "549"]
    assert (tmp_path / "verdicts.csv").read_text().startswith("# generated ")
