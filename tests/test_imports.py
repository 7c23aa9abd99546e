"""Lazy loading: ``import folcalc`` and each subcommand import only the modules they use."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import folcalc

BASE = ["folcalc", "folcalc.cli", "folcalc.errors", "folcalc.rationals"]
CYCLIC = ["folcalc.cyclic", "folcalc.lattice", "folcalc.linalg"]

# every folcalc module a run of main(argv) leaves in sys.modules; {samples} is a file path
RUNS = [
    (["hj", "12", "5"], 0, BASE + CYCLIC),
    (["bounds", "--mode", "weak-nef", "{samples}"], 0, BASE + ["folcalc.bounds"]),
    (["jouanolou", "--dmax", "5"], 0, BASE + ["folcalc.jouanolou"]),
    (["hj", "x"], 2, BASE),
]


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


@pytest.mark.parametrize(("argv", "code", "modules"), RUNS, ids=["hj", "bounds", "jouanolou", "malformed"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, code, modules):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"values": {str(m): m * m + 1 for m in range(8)}}))
    argv = [a.format(samples=samples) for a in argv]
    run = (
        "import contextlib, io\nfrom folcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}"
    )
    assert _loaded(run) == sorted(modules)


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
