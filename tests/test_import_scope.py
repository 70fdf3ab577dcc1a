"""Importing the package, or the CLI, loads only the engine modules a caller
uses.

Each case runs in a fresh interpreter, since the test process has every
module loaded, and reads the ``curvespace.*`` entries of ``sys.modules``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the module each documented name is imported from
DOCUMENTED_MODULE = {
    "SurfaceSpec": "surfaces",
    "Generator": "surfaces",
    "Presentation": "surfaces",
    "presentation": "surfaces",
    "st_presentation": "surfaces",
    "Word": "words",
    "STWord": "stbundle",
    "LiftDecomposition": "stbundle",
    "st_parse": "stbundle",
    "Polyline": "flatcurves",
    "CurveOnSurface": "flatcurves",
    "GroupDescription": "classify",
    "ClassificationReport": "classify",
    "classify_pi1": "classify",
    "SearchBound": "oracle",
    "VerificationOutcome": "oracle",
    "verify_classification": "oracle",
}
SUBMODULES = ("surfaces", "words", "stbundle", "flatcurves", "classify", "oracle", "cli")


def child(code):
    """The JSON value on the last line that ``code`` prints in a fresh
    interpreter that has imported ``json`` and ``sys``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code):
    """The ``curvespace.*`` modules, without the prefix, loaded once
    ``code`` has run in a fresh interpreter."""
    loaded = child(f"{code}\nprint(json.dumps([m for m in sys.modules if m.startswith('curvespace.')]))")
    return {name.removeprefix("curvespace.") for name in loaded}


def test_package_import_loads_no_module():
    assert loaded_after("import curvespace") == set()


def test_cli_import_loads_only_surfaces():
    assert loaded_after("import curvespace.cli") == {"cli", "surfaces"}


SQUARE = "model=plane\n0,0\n1,0\n1,1\n0,1\n"
# what main needs for every command, and what reading an element needs
MAIN = {"cli", "surfaces"}
ELEMENT = MAIN | {"words", "stbundle"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        pytest.param(["group", "--surface", "orientable:2:0"], MAIN, id="group"),
        pytest.param(["decompose", "--surface", "orientable:2:0", "--word", "a1 a1"], ELEMENT, id="decompose"),
        pytest.param(["pin", "--surface", "orientable:2:0", "--n", "2"], ELEMENT | {"classify"}, id="pin"),
        pytest.param(["classify", "--surface", "nonorientable:3:0", "--word", "c1^2"], ELEMENT | {"classify"},
                     id="classify"),
        pytest.param(["reghom", "--surface", "orientable:1:0", "word:a1 b1", "word:b1 a1"], ELEMENT | {"classify"},
                     id="reghom"),
        pytest.param(["lift", "--surface", "orientable:1:0", "{curve}"], ELEMENT | {"flatcurves"}, id="lift"),
        pytest.param(["verify", "--surface", "orientable:1:0", "--word", "a1"], ELEMENT | {"classify", "oracle"},
                     id="verify"),
        # a curve file adds the module that reads it
        pytest.param(["classify", "--surface", "orientable:1:0", "{curve}"], ELEMENT | {"classify", "flatcurves"},
                     id="classify-curve"),
        pytest.param(["decompose", "--surface", "orientable:1:0", "{curve}"], ELEMENT | {"flatcurves"},
                     id="decompose-curve"),
        # a bad surface is refused before any engine module is imported
        pytest.param(["classify", "--surface", "orientable:x:0", "--word", "a1"], MAIN, id="bad-surface"),
    ],
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    curve = tmp_path / "square.curve"
    curve.write_text(SQUARE)
    argv = [token.format(curve=curve) for token in argv]
    assert loaded_after(f"from curvespace.cli import main\nmain({argv!r})") == modules


def test_every_name_resolves_on_first_use():
    """Each documented name is unbound until first used, then bound to its
    module's value; each submodule name imports that submodule."""
    code = f"""import curvespace, importlib
names = {DOCUMENTED_MODULE!r}
bound_before = [name for name in names if name in vars(curvespace)]
wrong = [name for name, module in names.items()
         if getattr(curvespace, name) is not getattr(importlib.import_module("curvespace." + module), name)]
wrong += [m for m in {SUBMODULES!r} if getattr(curvespace, m) is not importlib.import_module("curvespace." + m)]
print(json.dumps([bound_before, wrong, [name for name in names if name not in vars(curvespace)]]))
"""
    assert child(code) == [[], [], []]
