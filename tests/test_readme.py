"""Every rfridge command README shows runs, and its shown JSON output is exact."""

import json
import pathlib
import re
import shlex

import pytest

from rfridge.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _examples():
    """(argv, shown JSON or None) for each rfridge command of README's sh blocks."""
    examples = []
    for lang, body in BLOCK.findall(README.read_text(encoding="utf-8")):
        if lang == "json" and examples:
            # a JSON block shows the output of the command just above it
            examples[-1] = (examples[-1][0], json.loads(body.replace(", ...}", "}")))
        elif lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.startswith("rfridge "):
                    examples.append((shlex.split(line)[1:], None))
    return examples


EXAMPLES = _examples()


def test_readme_shows_rfridge_commands_and_their_output():
    commands = [argv[0] for argv, _ in EXAMPLES]
    assert commands.count("stats") == commands.count("phase") == 1
    assert all(shown is not None for argv, shown in EXAMPLES if argv[0] in ("stats", "phase"))


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_runs(argv, shown, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    if shown is not None:
        assert shown.items() <= json.loads(out).items()
