"""README.md's command lines run as written and exit as README says."""

import re
import shlex
import shutil
from pathlib import Path

from eaward.cli import main

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def command_lines(text: str) -> list[tuple[str, int]]:
    """(line, stated exit code) for each line of text's ```sh blocks that
    runs eaward. A trailing backslash continues a line, and a comment
    `# exit N` at its end states its exit code, which is 0 otherwise."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("eaward "):
                stated = re.search(r"#\s*exit (\d)\s*$", line)
                lines.append((line, int(stated[1]) if stated else 0))
    return lines


def test_readme_command_lines_exit_as_stated(capsys, monkeypatch, tmp_path):
    # In order, from a directory that holds a copy of the fixtures, so the
    # files the lines write land outside the checkout.
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for name in ("EAWARD_ENDPOINT", "EAWARD_FIXTURE_ROOT", "EAWARD_STORE_ROOT"):
        monkeypatch.delenv(name, raising=False)
    lines = command_lines((ROOT / "README.md").read_text())
    assert lines
    for line, stated in lines:
        try:
            code = main(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:  # a usage error
            code = exc.code
        _, err = capsys.readouterr()
        assert code == stated, f"{line}\n{err}"


def test_readme_holds_the_line_ci_runs_as_the_installed_script():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    [ci_line] = re.findall(r'"\$\((eaward .*?)\)"', workflow.replace("\\\n", " "))
    readme = [shlex.split(line, comments=True)
              for line, _ in command_lines((ROOT / "README.md").read_text())]
    assert shlex.split(ci_line) in readme
