"""The CLI writes the recorded bytes: every entry of ``cli_corpus.json``, run in process.

The corpus and how it was made are described in ``make_cli_corpus.py``.
"""

import itertools

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
