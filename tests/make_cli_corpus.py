"""Write ``tests/cli_corpus.json``, the byte-identity corpus of the CLI.

Run from the root of the repository:

    PYTHONPATH=src python tests/make_cli_corpus.py

Each entry is one ``folcalc`` command: its argv, the input files it reads
(by plain name, written into the working directory before the run), and the
sha256 of its stdout and stderr with its exit code. ``stdout_blocks`` holds
the first eight hex digits of the sha256 of each run of ``stdout_block``
lines (at most ``BLOCKS`` runs per output), so that a mismatch can name the
first differing line, or the shortest stored run of lines that holds it,
without storing the output.
Commands come from three sources, named in each entry's ``source``:

- the 25-job cli pool of perfbench seeds 1-3 (``perfbench/wl_cli.py``);
- the ``folcalc`` lines of the README's shell block, with its example graph,
  divisor and samples files and a pair of chi tables two cusps apart;
- the 12 search tables of the bounds pool of seeds 1-3
  (``perfbench/wl_bounds.py``), each in JSON and in table form.

Every command runs in process through ``folcalc.cli.main``, as the test
does. The perfbench modules are only imported; nothing here changes them.
Regenerate only when a change of bytes is intended, and list the entries it
changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_corpus.json"
SEEDS = (1, 2, 3)
BLOCKS = 64


def run_entry(argv: list[str], files: dict[str, str], workdir: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run, the files written under ``workdir``."""
    from folcalc.cli import main

    for name, text in files.items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def block_length(text: str) -> int:
    """Lines per digest: 1 up to ``BLOCKS`` lines, then as few as keep ``BLOCKS`` digests."""
    return max(1, -(-text.count("\n") // BLOCKS))


def block_digests(text: str, block: int) -> list[str]:
    lines = text.splitlines(keepends=True)
    return [sha256("".join(lines[k : k + block]))[:8] for k in range(0, len(lines), block)]


def _cli_pool(seed: int) -> list[dict]:
    import wl_cli

    entries = []
    for k, job in enumerate(wl_cli.pool(random.Random(f"pool:{seed}"))):
        files = {
            name: content if isinstance(content, str) else json.dumps(content)
            for name, content in job["files"].items()
        }
        argv = [a[1:-1] if a[1:-1] in files else a for a in job["argv"]]
        entries.append({"source": f"cli pool, seed {seed}, job {k}", "argv": argv, "files": files})
    return entries


def _readme() -> list[dict]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```sh\n(folcalc .*?)^```", readme, flags=re.M | re.S)
    examples = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    graph, divisor, samples = (" ".join(text.split()) + "\n" for text in examples)
    files = {
        "graph.json": graph,
        "profile.json": divisor,
        "divisor.json": divisor,
        "samples.json": samples,
        "weak.json": '{"0": 1, "1": 2, "2": 5, "3": 10}\n',
        "canonical.json": '{"0": 3, "1": 2, "2": 5, "3": 10}\n',
    }
    entries = []
    for line in block.splitlines():
        argv = shlex.split(line.partition("#")[0])[1:]
        used = {name: files[name] for name in argv if name in files}
        entries.append({"source": "README shell block", "argv": argv, "files": used})
    return entries


def _bounds_searches(seed: int) -> list[dict]:
    import wl_bounds

    entries = []
    jobs = wl_bounds.pool(random.Random(f"pool:{seed}"))
    for k, job in enumerate(j for j in jobs if j["kind"] == "search"):
        doc = json.dumps({"values": job["values"], "period_hint": job["period_hint"]})
        for fmt in ("json", "table"):
            argv = ["bounds", "--mode", job["mode"], "samples.json"]
            if fmt == "table":
                argv += ["--format", "table"]
            entries.append({
                "source": f"bounds pool, seed {seed}, search {k}, {fmt}",
                "argv": argv,
                "files": {"samples.json": doc},
            })
    return entries


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    entries = [e for seed in SEEDS for e in _cli_pool(seed)] + _readme()
    entries += [e for seed in SEEDS for e in _bounds_searches(seed)]
    for entry in entries:
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err = run_entry(entry["argv"], entry["files"], workdir)
        block = block_length(out)
        entry.update(
            exit=code,
            stdout_sha256=sha256(out),
            stderr_sha256=sha256(err),
            stdout_block=block,
            stdout_blocks="".join(block_digests(out, block)),
        )
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")  # one entry per line
    print(f"{len(entries)} entries written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
