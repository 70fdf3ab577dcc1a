import gc
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

from curvespace import classify_pi1, st_parse
from curvespace.classify import regular_homotopy_equivalent
from curvespace.cli import main
from curvespace.stbundle import st_is_conjugate, st_multiply
from curvespace.words import AmbientMismatchError, Word, conjugating_element

from conftest import GENUS2, TORUS, W


FIG8 = """model=plane
0,0
2,1
3,0
2,-1
0,0
-2,1
-3,0
-2,-1
"""

CIRCLE = """model=plane
0,0
1,0
1,1
0,1
"""


@pytest.fixture
def curves(tmp_path):
    fig8 = tmp_path / "fig8.curve"
    fig8.write_text(FIG8)
    circle = tmp_path / "circle.curve"
    circle.write_text(CIRCLE)
    return str(fig8), str(circle)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_sphere_word(capsys):
    code, out, _ = run(
        capsys, "classify", "--surface", "orientable:0:0", "--word", "f", "--format", "structured"
    )
    assert code == 0
    assert out.splitlines() == ["case=Thm 1", "kind=Z2", "witness.1=f"]


def test_pin_rp2(capsys):
    code, out, _ = run(capsys, "pin", "--surface", "nonorientable:1:0", "--n", "2")
    assert code == 0
    assert "Z" in out and "Thm 8 I" in out


def test_pin_structured(capsys):
    code, out, _ = run(
        capsys, "pin", "--surface", "orientable:0:0", "--n", "3", "--format", "structured"
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["kind"] == "SymbolicSphereSum(3)"
    assert lines["detail"] == "Z (+) pi_4(S^2)"


def test_reghom_fig8_vs_circle_exit1(capsys, curves):
    fig8, circle = curves
    code, out, _ = run(capsys, "reghom", "--surface", "orientable:1:0", fig8, circle)
    assert code == 1
    assert "not regularly homotopic" in out


def test_reghom_words_klein(capsys):
    code, _, _ = run(
        capsys, "reghom", "--surface", "nonorientable:2:0", "word:f", "word:F"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "reghom", "--surface", "nonorientable:2:0", "word:f", "word:f^2"
    )
    assert code == 1


def test_lift_roundtrip(capsys, curves):
    _, circle = curves
    code, out, _ = run(
        capsys, "lift", "--surface", "orientable:1:0", circle, "--format", "structured"
    )
    assert code == 0
    assert out.startswith("word=")
    text = out.strip().split("=", 1)[1]
    surface_word = st_parse(text, __import__("curvespace").SurfaceSpec(True, 1, 0))
    assert st_parse("f", __import__("curvespace").SurfaceSpec(True, 1, 0)) == surface_word


def test_classify_curve_file(capsys, curves):
    fig8, _ = curves
    code, out, _ = run(
        capsys, "classify", "--surface", "nonorientable:3:0", fig8, "--format", "structured"
    )
    assert code == 0
    assert "kind=FullSTGroup" in out.splitlines()[1]


def test_group_output(capsys):
    code, out, _ = run(capsys, "group", "--surface", "nonorientable:2:0")
    assert code == 0
    assert "c1^2 c2^2" in out
    code, out, _ = run(
        capsys, "group", "--surface", "orientable:2:0", "--format", "structured"
    )
    assert code == 0
    assert "st.relator.1=a1 b1 A1 B1 a2 b2 A2 B2 f^2" in out.splitlines()


def test_decompose(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "decompose",
        "--surface",
        "orientable:2:0",
        "--word",
        "a1 b1 a1 b1 f",
        "--format",
        "structured",
    )
    assert code == 0
    assert out.splitlines() == ["root=a1 b1", "k=2", "l=1"]
    # a curve file, read as classify and verify read it, answers for its lift
    path = tmp_path / "torus.curve"
    path.write_text("model=torus\n0.5,0.5\n1.2,0.6\n1.5,0.5\n")
    torus = ("--surface", "orientable:1:0")
    assert run(capsys, "lift", *torus, str(path)) == (0, "a1\n", "")
    for fmt in ("text", "structured"):
        by_word = run(capsys, "decompose", *torus, "--format", fmt, "--word", "a1")
        assert by_word[0] == 0 and by_word == run(capsys, "decompose", *torus, "--format", fmt, str(path))


def test_verify_pass_and_bounds(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--surface",
        "nonorientable:3:0",
        "--word",
        "c1^2",
        "--bound-length",
        "3",
        "--bound-fiber",
        "2",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_invalid_inputs_exit2(capsys):
    code, _, err = run(capsys, "classify", "--surface", "orientable:1:0", "--word", "q9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "--surface", "orientable:-1:0", "--word", "f")
    assert code == 2
    code, _, err = run(capsys, "decompose", "--surface", "orientable:2:0", "--word", "f")
    assert code == 2
    code, _, err = run(capsys, "lift", "--surface", "orientable:1:0", "/nonexistent.curve")
    assert code == 2
    # 2 * 10^6 letters: over the cap on a word's expanded length
    code, _, err = run(capsys, "classify", "--surface", "orientable:1:0", "--word", "a1^2000000")
    assert code == 2 and "more than 1000000 letters" in err
    # over the cap on a surface's generators, so no presentation is built
    code, _, err = run(capsys, "classify", "--surface", "orientable:99999999999:0", "--word", "a1")
    assert code == 2 and "at most 64 are supported" in err
    # no element; decompose reads it like classify, with no traceback
    assert run(capsys, "decompose", "--surface", "orientable:2:0") == (
        2, "", "error: provide --word or a curve file\n"
    )
    # an empty token: no element where a curve file is optional, else a
    # path that cannot be read
    torus = ("--surface", "orientable:1:0")
    assert run(capsys, "classify", *torus, "") == (2, "", "error: provide --word or a curve file\n")
    no_file = "error: [Errno 2] No such file or directory: ''\n"
    assert run(capsys, "lift", *torus, "") == (2, "", no_file)
    assert run(capsys, "reghom", *torus, "", "word:a1") == (2, "", no_file)


def test_word_and_curve_file_together_exit2(capsys, curves):
    """An element comes from ``--word`` or from a curve file, never both: the
    file is not silently ignored, whether or not it exists."""
    _, circle = curves
    for command in ("classify", "decompose", "verify"):
        for path in (circle, "missing.curve"):
            code, out, err = run(capsys, command, "--surface", "orientable:1:0", "--word", "a1", path)
            assert code == 2 and not out, (command, path)
            assert err == "error: provide --word or a curve file, not both\n", (command, path)


def _classify_cli(*argv):
    raise SystemExit(main(["classify", *argv]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: classify_pi1(TORUS, st_parse("a1", GENUS2)),
            ValueError,
            "element does not live over the given surface",
        ),
        (
            lambda: regular_homotopy_equivalent(TORUS, st_parse("a1", TORUS), st_parse("a1", GENUS2)),
            ValueError,
            "elements do not live over the given surface",
        ),
        (
            lambda: st_multiply(st_parse("a1", TORUS), st_parse("a1", GENUS2)),
            AmbientMismatchError,
            "tangent-bundle words over different surfaces",
        ),
        (
            lambda: st_is_conjugate(st_parse("a1", GENUS2), st_parse("a1", TORUS)),
            AmbientMismatchError,
            "tangent-bundle words over different surfaces",
        ),
        (
            lambda: conjugating_element(W("a1", TORUS), W("a1", GENUS2)),
            AmbientMismatchError,
            "conjugacy needs a common presentation",
        ),
        (lambda: Word._make((W("a1", TORUS).ambient, (1,), ())), TypeError, "Expected 2 arguments, got 3"),
        (lambda: _classify_cli("--surface", "orientable:1:0"), SystemExit, "provide --word or a curve file"),
    ],
    ids=["classify", "reghom", "st_multiply", "st_is_conjugate", "conjugator", "word_make", "cli_no_element"],
)
def test_mismatched_inputs_are_refused(capsys, call, error, message):
    """Operands over different surfaces or presentations, a word record with
    a third field, and a ``classify`` with no element each fail with their
    own message (the CLI's on standard error, with exit 2)."""
    with pytest.raises(error) as info:
        call()
    if error is SystemExit:
        assert info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        assert str(info.value) == message


def test_non_ascii_digits_in_a_surface_exit2(capsys):
    code, out, err = run(capsys, "group", "--surface", "orientable:\u0662:0")
    assert code == 2 and "bad surface" in err and not out


def test_non_finite_curve_exits2_without_traceback(tmp_path):
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    for name, text, message in (
        ("inf", "model=torus\n0.5,0.5\ninf,0.5\n1.5,0.5\n", "coordinates must be finite"),
        ("nan", "model=torus\n0.5,0.5\nnan,0.5\n1.5,0.5\n", "coordinates must be finite"),
        ("header", "model=torus\n", "at least 3 vertices"),
        # finite, but the plane edges overflow to infinity
        ("huge", "model=plane\n1e308,0\n-1e308,0\n0,1e308\n", "coordinates too large"),
        # finite, but the path crosses 10^6 grid lines: without the cap this
        # loads (exit 0), where farther points would exhaust memory instead
        (
            "far",
            "model=torus\n0.5,0.5\n1000000.7,0.6\n1000000.5,0.5\n",
            "crosses more than 100000 grid lines",
        ),
    ):
        path = tmp_path / f"{name}.curve"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", "lift", "--surface", "orientable:1:0", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_largest_closed_surfaces_classify():
    """The largest closed surfaces under the generator cap have 128-letter
    relators; a child builds their presentation and relator tables and
    classifies a word on them within the timeout."""
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    for surface, text, case in (
        ("orientable:32:0", "a1 b1 a2 A1 B1 A2 b31 a32 b32", "case=Thm 3 I"),
        ("nonorientable:64:0", "c1 c2 c3 C1 C2 C3 c62 c63 c64", "case=Thm 6 I"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", "classify", "--surface", surface,
             "--word", text, "--format", "structured"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == case


def test_verify_past_the_enumeration_cap_exits2():
    """verify counts the box's candidates and the witness products before it
    enumerates them, and bounds past the cap exit 2 at once; without the cap
    these ran for seconds to minutes, took up to gigabytes or died of
    MemoryError.  A surface with no generators has a box of one base word
    whatever its length bound."""
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    for argv, code, message in (
        (["orientable:2:0", "--word", "a1", "--bound-length", "6"], 2, "box elements"),
        (["orientable:1:0", "--word", "a1", "--bound-fiber", "100"], 2, "witness products"),
        (["orientable:8:0", "--word", "a1"], 2, "box elements"),
        (["orientable:32:0", "--word", "a1"], 2, "box elements"),
        (["orientable:0:1", "--word", "f", "--bound-length", "1000000000"], 0, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", "verify", "--surface", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr


def test_verify_past_the_enumeration_cap_exits2_in_process(capsys):
    """The same refusal through ``main`` in this process, so that a line
    trace of the tests reaches the raise in ``oracle._check_enumeration``."""
    code, out, err = run(capsys, "verify", "--surface", "orientable:32:0", "--word", "a1")
    assert (code, out) == (2, "")
    assert err == "error: bounds of base length 4 and fiber 3 ask for more than 200000 box elements; lower them\n"

def test_verify_bounds_around_the_enumeration_cap():
    """Bounds just under the 200,000 enumeration cap verify (exit 0), and
    the next bound up exits 2, each child within the timeout and without a
    traceback: on the torus (a box of 196,825 candidates at length 9 and
    fiber 2), on genus 2, and on a sphere with two punctures, whose word z1
    reaches the cap on witness products instead."""
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    for surface, word, length, fiber, code, message in (
        ("orientable:1:0", "a1", 9, 2, 0, ""),
        ("orientable:1:0", "a1", 9, 3, 2, "ask for more than 200000 box elements"),
        ("orientable:2:0", "a1", 5, 3, 0, ""),
        ("orientable:2:0", "a1", 5, 4, 2, "ask for more than 200000 box elements"),
        ("orientable:0:2", "z1", 220, 0, 0, ""),
        ("orientable:0:2", "z1", 300, 0, 2, "ask for more than 200000 witness products"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", "verify", "--surface", surface, "--word", word,
             "--bound-length", str(length), "--bound-fiber", str(fiber)],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == code, (surface, length, fiber, proc.stderr)
        assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # a large output: a buffer lost at exit would show
        ("group", "--surface", "orientable:32:0", "--format", "structured"),
        ("reghom", "--surface", "orientable:1:0", "word:a1 b1 f", "word:b1 a1"),
        ("classify", "--surface", "orientable:2:0", "--word", "a1 q7"),
        (),
        ("--help",),
    ],
    ids=["group", "reghom-exit1", "classify-exit2", "usage-exit2", "help"],
)
def test_process_entry_matches_main_in_process(capsys, monkeypatch, argv):
    """``python -m curvespace.cli`` ends through ``run``, which freezes the
    heap once ``main`` has returned or raised.  Its exit code, standard
    output and standard error are those of ``main`` in process, byte for
    byte, and ``main`` in process freezes nothing."""
    import curvespace

    # argparse wraps its help and usage to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "curvespace.cli", *argv], capture_output=True, env=env, timeout=60
    )
    frozen = gc.get_freeze_count()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out.encode(), out.err.encode())


def test_cli_import_leaves_out_dataclasses():
    import curvespace

    # -S: no site module, so nothing it preloads can hide an import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    probe = "import curvespace.cli, sys; print('dataclasses' in sys.modules, 'typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


DOCUMENTED_API = {
    "SurfaceSpec",
    "st_parse",
    "classify_pi1",
    "verify_classification",
    "Generator",
    "Presentation",
    "Word",
    "STWord",
    "LiftDecomposition",
    "Polyline",
    "CurveOnSurface",
    "GroupDescription",
    "ClassificationReport",
    "SearchBound",
    "VerificationOutcome",
    "presentation",
    "st_presentation",
}


def test_top_level_exports_are_the_documented_api():
    import curvespace

    # the top level binds each name on first use: resolve them all first
    for name in DOCUMENTED_API:
        getattr(curvespace, name)
    assert set(curvespace.__all__) == DOCUMENTED_API
    public = {
        name
        for name, value in vars(curvespace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == DOCUMENTED_API
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    assert all(f"`{name}`" in library for name in DOCUMENTED_API)
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_block_words_past_the_old_caps_are_decided():
    """The three block words that once tripped the swap-orbit and
    conjugacy-orbit caps are answered, with the usual exit codes."""
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    long_word = " ".join(["c1 c1 c2"] * 13)
    block_word = " ".join(["a1 b1 A1 B1 a1"] * 12)
    surface = ["--surface", "nonorientable:3:0"]
    for argv, code, expected in (
        (
            ["classify", *surface, "--format", "structured", "--word", long_word],
            0,
            ["case=Thm 6 I", "kind=Z", "witness.1=c1^2 c2"],
        ),
        (["reghom", *surface, "--format", "structured", f"word:{long_word}", "word:c1"], 1, ["equivalent=false"]),
        (
            ["reghom", "--surface", "orientable:2:0", "--format", "structured",
             f"word:{block_word}", f"word:{block_word}"],
            0,
            ["equivalent=true"],
        ),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        lines = proc.stdout.splitlines()
        assert all(line in lines for line in expected), proc.stdout
        assert proc.stderr == ""


def test_structured_classify_roundtrips_witnesses(capsys):
    import curvespace

    surface = curvespace.SurfaceSpec(False, 3, 0)
    code, out, _ = run(
        capsys,
        "classify",
        "--surface",
        "nonorientable:3:0",
        "--word",
        "c1^2",
        "--format",
        "structured",
    )
    assert code == 0
    for line in out.splitlines():
        if line.startswith("witness."):
            text = line.split("=", 1)[1]
            el = curvespace.st_parse(text, surface)
            assert curvespace.stbundle.st_text(el) == text


# The full text output of classify for one element of each case of README
# "Classification output", and so for every group description of pi_1.
CLASSIFY_TEXT = {
    ("orientable:0:0", "f"): """\
surface:        orientable:0:0
input:          f
tangent lift:   f
case:           Thm 1
pi_1 of curve space: Z/2
  generator 1:  f""",
    ("orientable:1:0", "a1 b1 f"): """\
surface:        orientable:1:0
input:          a1 b1 f
tangent lift:   a1 b1 f
case:           Thm 2
pi_1 of curve space: Z x Z x Z
  generator 1:  a1
  generator 2:  b1
  generator 3:  f""",
    ("orientable:1:0", "1"): """\
surface:        orientable:1:0
input:          1
tangent lift:   1
case:           Thm 2
pi_1 of curve space: the whole tangent-bundle fundamental group
  generator 1:  a1
  generator 2:  b1
  generator 3:  f""",
    ("orientable:2:0", "a1 f^2"): """\
surface:        orientable:2:0
input:          a1 f^2
tangent lift:   a1 f^2
decomposition:  root^1 * f^2
case:           Thm 3 I
pi_1 of curve space: Z x Z
  generator 1:  a1
  generator 2:  f""",
    ("orientable:2:0", "f^3"): """\
surface:        orientable:2:0
input:          f^3
tangent lift:   f^3
case:           Thm 3 II
pi_1 of curve space: the whole tangent-bundle fundamental group
  generator 1:  a1
  generator 2:  b1
  generator 3:  a2
  generator 4:  b2
  generator 5:  f""",
    ("nonorientable:1:0", "c1"): """\
surface:        nonorientable:1:0
input:          c1
tangent lift:   c1
case:           Thm 4
pi_1 of curve space: Z/4
  generator 1:  c1""",
    ("nonorientable:2:0", "C2^2"): """\
surface:        nonorientable:2:0
input:          C2^2
tangent lift:   C2^2
case:           Thm 5 I a
pi_1 of curve space: the whole tangent-bundle fundamental group
  generator 1:  c1
  generator 2:  c2
  generator 3:  f""",
    ("nonorientable:2:0", "c1 c2 f"): """\
surface:        nonorientable:2:0
input:          c1 c2 f
tangent lift:   c1 c2 f
case:           Thm 5 I b
pi_1 of curve space: Z x Z x Z
  generator 1:  c1 c2
  generator 2:  C2^2
  generator 3:  f""",
    ("nonorientable:2:0", "C2 f"): """\
surface:        nonorientable:2:0
input:          C2 f
tangent lift:   C2 f
case:           Thm 5 II
pi_1 of curve space: Z
  generator 1:  C2 f""",
    ("nonorientable:3:0", "c1"): """\
surface:        nonorientable:3:0
input:          c1
tangent lift:   c1
decomposition:  root^1 * f^0
case:           Thm 6 I
pi_1 of curve space: Z
  generator 1:  c1""",
    ("nonorientable:3:0", "c1 c2"): """\
surface:        nonorientable:3:0
input:          c1 c2
tangent lift:   c1 c2
decomposition:  root^1 * f^0
case:           Thm 6 II a
pi_1 of curve space: Z x Z
  generator 1:  c1 c2
  generator 2:  f""",
    ("nonorientable:3:0", "c1^2"): """\
surface:        nonorientable:3:0
input:          c1^2
tangent lift:   c1^2
decomposition:  root^2 * f^0
case:           Thm 6 II b
pi_1 of curve space: Klein bottle group <x, y | x y x^-1 y>
  generator 1:  c1
  generator 2:  f""",
    ("nonorientable:3:0", "f"): """\
surface:        nonorientable:3:0
input:          f
tangent lift:   f
case:           Thm 6 III a
pi_1 of curve space: index-two subgroup of the tangent-bundle group: \
elements whose base projection preserves orientation (character +1)
  membership:   elements whose base projection preserves orientation (character +1)""",
    ("nonorientable:3:0", "1"): """\
surface:        nonorientable:3:0
input:          1
tangent lift:   1
case:           Thm 6 III b
pi_1 of curve space: the whole tangent-bundle fundamental group
  generator 1:  c1
  generator 2:  c2
  generator 3:  c3
  generator 4:  f""",
}


@pytest.mark.parametrize("surface, word", sorted(CLASSIFY_TEXT))
def test_classify_text_output_per_case(capsys, surface, word):
    code, out, err = run(capsys, "classify", "--surface", surface, "--word", word)
    assert (code, err) == (0, "")
    assert out == CLASSIFY_TEXT[surface, word] + "\n"


def test_pin_text_output(capsys):
    for surface, n, line in (
        ("orientable:1:0", "2", "pi_2 of the curve space on orientable:1:0: 0  [Thm 8 II]"),
        ("orientable:0:0", "4", "pi_4 of the curve space on orientable:0:0: pi_4(S^2) (+) pi_5(S^2)  [Thm 8 I]"),
        ("nonorientable:1:0", "3", "pi_3 of the curve space on nonorientable:1:0: Z (+) pi_4(S^2)  [Thm 8 I]"),
    ):
        assert run(capsys, "pin", "--surface", surface, "--n", n) == (0, line + "\n", "")


def test_pin_case_per_regime(capsys):
    """Thm 8 I (a nontrivial group) exactly where the tangent-bundle group
    is finite, over the sphere and the projective plane; Thm 8 II elsewhere."""
    for surface in ("orientable:0:0", "nonorientable:1:0", "orientable:1:0", "nonorientable:2:0",
                    "orientable:2:0", "nonorientable:3:0", "orientable:1:2"):
        finite = surface in ("orientable:0:0", "nonorientable:1:0")
        for n in range(2, 6):
            code, out, err = run(capsys, "pin", "--surface", surface, "--n", str(n), "--format", "structured")
            assert (code, err) == (0, "")
            assert out.splitlines()[1] == ("case=Thm 8 I" if finite else "case=Thm 8 II"), (surface, n)


def test_decompose_text_output(capsys):
    for surface, word, line in (
        ("orientable:2:0", "a1^3 f^2", "a1^3 f^2 = (a1)^3 * f^2"),
        ("nonorientable:2:0", "C2^4 f", "C2^4 f = (C2)^4 * f^1"),
    ):
        assert run(capsys, "decompose", "--surface", surface, "--word", word) == (0, line + "\n", "")


def test_reghom_structured_output(capsys):
    klein = ("reghom", "--surface", "nonorientable:2:0", "--format", "structured")
    code, out, _ = run(capsys, *klein, "word:c1 C2 f", "word:C2 C1 C2^2 F")
    assert (code, out) == (0, "lift.1=c1 C2 f\nlift.2=C2 C1 C2^2 F\nequivalent=true\n")
    code, out, _ = run(capsys, *klein, "word:C2", "word:c1 c2 c1 f")
    assert (code, out) == (1, "lift.1=C2\nlift.2=c1 c2 c1 f\nequivalent=false\n")


def test_verify_structured_output(capsys, monkeypatch):
    import curvespace.oracle
    from curvespace import SurfaceSpec, VerificationOutcome

    argv = ("verify", "--surface", "nonorientable:3:0", "--word", "c1^2", "--format", "structured")
    code, out, _ = run(capsys, *argv, "--bound-length", "3", "--bound-fiber", "2")
    assert code == 0
    assert out.splitlines()[0] == "verified=pass"
    assert out.splitlines()[1].startswith("detail=") and len(out.splitlines()) == 2
    # no classification answer fails today, so the failing outcome, with its
    # counterexample, is supplied here
    counterexample = st_parse("c2 f", SurfaceSpec(False, 3, 0))
    failed = VerificationOutcome(False, "1 centralizer element not covered", counterexample)
    monkeypatch.setattr(curvespace.oracle, "verify_classification", lambda *args: failed)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, "verified=fail\ndetail=1 centralizer element not covered\ncounterexample=c2 f\n")
