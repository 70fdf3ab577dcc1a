import os
import subprocess
import sys

import pytest

from curvespace import st_parse
from curvespace.cli import main


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


def test_decompose(capsys):
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


def test_cli_import_leaves_out_dataclasses():
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import curvespace.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_tripped_search_cap_exits3_without_traceback():
    import curvespace

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(curvespace.__file__)))
    long_word = " ".join(["c1 c1 c2"] * 13)  # past the half-relator swap cap
    surface = ["--surface", "nonorientable:3:0"]
    for argv in (
        ["classify", *surface, "--format", "structured", "--word", long_word],
        ["reghom", *surface, f"word:{long_word}", "word:c1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "curvespace.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "status=undecided" in proc.stdout.splitlines()
        assert proc.stderr.startswith("undecided: ")
        assert "Traceback" not in proc.stderr


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
            assert curvespace.st_text(el) == text
