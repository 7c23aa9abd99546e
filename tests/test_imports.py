"""Lazy loading: ``import folcalc`` and each subcommand import only the modules they use."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import folcalc

LIBRARY = ["folcalc", "folcalc.errors", "folcalc.rationals"]  # what every library call loads
BASE = LIBRARY + ["folcalc.cli"]
LATTICE = ["folcalc.lattice", "folcalc.linalg"]
CONTRIBUTIONS = ["folcalc.contributions", "folcalc.cyclic"]

# the JSON inputs the runs below name as {samples}, {graph}, ...; the cycle of four (-2)-curves is singular
FILES = {
    "samples": {"values": {str(m): m * m + 1 for m in range(8)}},
    "graph": {
        "curves": [{"label": "C1", "self": -3}, {"label": "C2", "self": -2}],
        "edges": [["C1", "C2", 1]],
    },
    "profile": {"C1": -1},
    "divisor": {"C1": 1, "C2": "1/2"},
    "cycle": {
        "curves": [{"label": f"C{j}", "self": -2} for j in range(1, 5)],
        "edges": [[f"C{j}", f"C{j % 4 + 1}", 1] for j in range(1, 5)],
    },
    "weak": {"0": -1, "1": 2, "2": 5},
    "canonical": {"0": 1, "1": 2, "2": 5},
}

# id -> (argv, exit code, every folcalc module the run of main(argv) leaves in sys.modules)
RUNS = {
    "hj": (["hj", "12", "5"], 0, BASE + ["folcalc.cyclic"]),
    "wunram": (["wunram", "5", "2", "3"], 0, BASE + ["folcalc.cyclic"]),
    "contrib-terminal": (
        ["contrib", "--kind", "terminal", "--n", "5", "--q", "2", "--m", "3"], 0, BASE + CONTRIBUTIONS
    ),
    "contrib-cusp": (["contrib", "--kind", "cusp", "--m", "4"], 0, BASE + CONTRIBUTIONS),
    "chi-local": (["chi-local", "--n", "3", "--q", "1", "--m", "2"], 0, BASE + CONTRIBUTIONS),
    "pullback": (["pullback", "{graph}", "{profile}"], 0, BASE + LATTICE),
    "zariski": (["zariski", "{graph}", "{divisor}"], 0, BASE + LATTICE + ["folcalc.zariski"]),
    "bounds": (["bounds", "--mode", "weak-nef", "{samples}"], 0, BASE + ["folcalc.bounds"]),
    "jouanolou": (["jouanolou", "--dmax", "5"], 0, BASE + ["folcalc.jouanolou"]),
    "dihedral-verify": (
        ["dihedral-verify", "--variant", "e1", "--a", "1", "--l", "1", "--modd", "3", "--p", "5"],
        0,
        BASE + CONTRIBUTIONS,
    ),
    "relate": (["relate", "{weak}", "{canonical}", "--cusps", "2"], 0, BASE + ["folcalc.bounds"]),
    "degenerate": (["pullback", "{cycle}", "{profile}"], 1, BASE + LATTICE),
    "malformed": (["hj", "x"], 2, BASE),
}


def main_script(directory, argv: list, code: int) -> str:
    """Code that writes FILES under ``directory`` and runs main(argv), expecting exit ``code``, silently."""
    paths = {}
    for name, doc in FILES.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [a.format(**paths) for a in argv]
    return (
        "import contextlib, io\nfrom folcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}"
    )


def _loaded(code: str) -> list:
    """The folcalc modules in sys.modules after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(folcalc.__file__))
    script = f"{code}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('folcalc'))))"
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{script}"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(("argv", "code", "modules"), RUNS.values(), ids=RUNS)
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, code, modules):
    assert _loaded(main_script(tmp_path, argv, code)) == sorted(modules)


CLOSED_FORMS = (
    "import folcalc as f\nt = f.CyclicType(12, 5)\n"
    "f.hj_expansion(t), f.wunram_degrees(t, 7), f.a_terminal(t, 3)"
)


def test_closed_forms_load_no_lattice():
    assert _loaded(CLOSED_FORMS) == sorted(LIBRARY + CONTRIBUTIONS)


@pytest.mark.parametrize("first", ["f.hj_string_graph(t)", "f.fchain_profile(t).graph"])
def test_the_string_graph_loads_lattice(first):
    # whichever function builds the string first loads lattice and linalg, and t keeps that one graph
    same = "assert f.fchain_profile(t).graph is graph is f.hj_string_graph(t)"
    code = f"{CLOSED_FORMS}\ngraph = {first}\n{same}"
    assert _loaded(code) == sorted(LIBRARY + CONTRIBUTIONS + LATTICE)


def test_package_import_loads_no_submodule():
    assert _loaded("import folcalc") == ["folcalc"]
    assert _loaded("import folcalc\nfolcalc.pipeline") == sorted(
        ["folcalc", "folcalc.bounds", "folcalc.errors", "folcalc.rationals"]
    )


def test_every_public_name_is_the_submodule_object():
    for name in folcalc.__all__:
        home = import_module(f"folcalc.{folcalc._HOME[name]}")
        assert getattr(folcalc, name) is getattr(home, name), name
    listed = dir(folcalc)
    assert [name for name in folcalc.__all__ if name not in listed] == []
    namespace = {}
    exec("from folcalc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(folcalc.__all__)


def test_submodules_stay_reachable_as_attributes():
    from folcalc import cyclic

    assert folcalc.cyclic is cyclic
    # in a fresh interpreter, where nothing has imported folcalc.linalg yet
    assert _loaded("import folcalc\nfolcalc.linalg") == [
        "folcalc", "folcalc.errors", "folcalc.linalg", "folcalc.rationals"
    ]


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(folcalc, "nope")
    with pytest.raises(AttributeError, match="nope"):
        folcalc.nope
    with pytest.raises(ImportError):
        from folcalc import nope  # noqa: F401
