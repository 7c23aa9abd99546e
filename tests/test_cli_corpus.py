"""The CLI writes the recorded bytes: every entry of ``cli_corpus.json``, run in process.

The corpus and how it was made are described in ``make_cli_corpus.py``.
"""

import itertools
import json

import pytest

import make_cli_corpus
from make_cli_corpus import block_digests, run_entry, sha256

CORPUS = make_cli_corpus.load()


def first_difference(entry, out: str) -> str:
    """The first line of ``out`` whose stored digest differs, or the stored run of lines that holds it."""
    block, digests = entry["stdout_block"], entry["stdout_blocks"]
    expected = [digests[k : k + 8] for k in range(0, len(digests), 8)]
    pairs = itertools.zip_longest(expected, block_digests(out, block))
    k = next((k for k, (e, g) in enumerate(pairs) if e != g), None)
    if k is None:
        return "no stored run of lines (the digests are truncated)"
    lines = out.splitlines()
    if k * block >= len(lines):
        return f"line {len(lines) + 1}: the output ends"
    if block == 1:
        return f"line {k + 1}: {lines[k]!r}"
    return f"lines {k * block + 1}-{(k + 1) * block} of {len(lines)}, which begin {lines[k * block]!r}"


def test_corpus_sources():
    sources = [entry["source"].split(",")[0] for entry in CORPUS]
    assert sources.count("cli pool") == 75
    assert sources.count("README shell block") == 12
    assert sources.count("bounds pool") == 72


@pytest.mark.parametrize("entry", CORPUS, ids=[f"{e['source']}: {' '.join(e['argv'])}" for e in CORPUS])
def test_cli_bytes_match_the_corpus(entry, tmp_path):
    code, out, err = run_entry(entry["argv"], entry["files"], str(tmp_path))
    command = "folcalc " + " ".join(entry["argv"])
    assert code == entry["exit"], f"{command}: exit {code}, recorded {entry['exit']}; stderr {err!r}"
    assert sha256(err) == entry["stderr_sha256"], f"{command}: stderr differs: {err!r}"
    if sha256(out) != entry["stdout_sha256"]:
        pytest.fail(f"{command}: stdout differs from the corpus at {first_difference(entry, out)}")


def leaf_pointers(doc, pointer=""):
    """The JSON Pointer of every leaf of ``doc``, in document order."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from leaf_pointers(value, f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}")
    else:
        yield pointer


def resolve(doc, pointer: str):
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        doc = doc[int(token)] if isinstance(doc, list) else doc[token]
    return doc


def replaced(doc, pointer: str, value):
    *path, last = pointer.split("/")[1:]
    parent = resolve(doc, "/".join([""] + path))
    parent[int(last) if isinstance(parent, list) else last.replace("~1", "/").replace("~0", "~")] = value
    return doc


# the first successful entry for each subcommand and set of input file names
FILE_COMMANDS = list(
    {(e["argv"][0], *sorted(e["files"])): e for e in reversed(CORPUS) if e["files"] and e["exit"] == 0}.values()
)


def test_every_leaf_refusal_names_its_file_and_pointer(tmp_path):
    """Each of the first 30 leaves of each input file, replaced by 1.5, true or "x", is refused at its pointer.

    A label that is not a string is refused at its pointer. The string "x" is
    a label in its own right, so a label replaced by "x" is accepted and the
    refusal falls on the first edge end that still names the old label.
    """
    assert sorted(" ".join(e["argv"][:3]) for e in FILE_COMMANDS) == [
        "bounds --mode weak-nef", "pullback graph.json profile.json", "relate off.json canonical.json",
        "relate weak.json canonical.json", "zariski chain.json divisor.json", "zariski graph.json divisor.json",
    ]
    located = 0
    for entry in FILE_COMMANDS:
        for name, text in entry["files"].items():
            for pointer in list(leaf_pointers(json.loads(text)))[:30]:
                for value in (1.5, True, "x"):
                    files = dict(entry["files"], **{name: json.dumps(replaced(json.loads(text), pointer, value))})
                    code, out, err = run_entry(entry["argv"], files, str(tmp_path))
                    error = json.loads(err)
                    assert (code, out, error["code"]) == (2, "", "invalid-input"), (entry["argv"], pointer, value)
                    where, _, at = error["location"].partition("#")
                    assert where in files and at.startswith("/"), (entry["argv"], pointer, value, error)
                    if (where, at) != (name, pointer):
                        old_label = resolve(json.loads(text), pointer)
                        assert value == "x" and pointer.endswith("/label") and where == name, (
                            entry["argv"], pointer, value, error
                        )
                        assert at.startswith("/edges/") and resolve(json.loads(text), at) == old_label
                    located += 1
    assert located == 318
