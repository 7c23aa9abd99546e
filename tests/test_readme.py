"""The README's examples, run: each value its comments show must still hold."""

import json
import re
import shlex
from pathlib import Path

import pytest

from folcalc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_example_values():
    (block,) = fenced_blocks("python")
    namespace = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(line, namespace)
            continue
        value = eval(code, namespace)
        assert repr(value) == comment.strip(), line
        shown.append(comment.strip())
    assert shown == ["(3, 2)", "Fraction(-2, 5)", "Fraction(-2, 5)", "8"]


# the command lines whose comment starts with a JSON object and that read no file
CLI_EXAMPLES = [
    (shlex.split(code)[1:], json.JSONDecoder().raw_decode(comment.strip())[0])
    for block in fenced_blocks("sh")
    for code, _, comment in (line.partition("#") for line in block.splitlines())
    if code.startswith("folcalc ") and comment.strip().startswith("{") and ".json" not in code
]


def test_cli_examples_cover_the_six_json_lines():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "hj", "wunram", "contrib", "contrib", "chi-local", "chi-local",
    ]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_cli_example_output(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out) == expected
