"""Command lines through ``cli.main``: each of the seven subcommands with
any subset of its flags (absent, repeated, empty or junk values) and any
positional tokens (curve files that exist or do not, empty tokens and
``word:`` tokens).  Each ends with exit 0, 1 or 2, in bounded time and
with no traceback; an exit 2 comes with an error line, the CLI's own or
argparse's usage error."""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from curvespace import cli  # noqa: E402

# each surface with its generators and the fiber
SURFACES = {
    "orientable:0:0": ("f",),
    "orientable:1:0": ("a1", "b1", "f"),
    "nonorientable:2:0": ("c1", "c2", "f"),
    "orientable:2:0": ("a1", "b1", "a2", "b2", "f"),
}
NAMES = sorted({name for names in SURFACES.values() for name in names})
CURVES = {
    "plane.curve": "model=plane\n0,0\n1,0\n1,1\n0,1\n",
    "torus.curve": "model=torus\n0.5,0.5\n1.2,0.6\n1.5,0.5\n",
    "klein.curve": "model=klein\n0.5,0.5\n0.5,1.2\n0.5,1.5\n",
    "repeated.curve": "model=torus\n0.5,0.5\n0.5,0.5\n0.9,0.5\n",
}
FILES = tuple(CURVES) + ("missing.curve", "", "--")
JUNK = ("", " ", "x", "-1", "--", "=", "1e3", "٢", "orientable:1", "structured ")


def _or_junk(valid):
    """The valid values two times in three, else junk."""
    return st.sampled_from((False, False, True)).flatmap(lambda junk: st.sampled_from(JUNK) if junk else valid)


# words of at most 4 letters, over any surface's names, either case
letter = st.sampled_from(NAMES).flatmap(lambda name: st.sampled_from((name, name.upper())))
word = _or_junk(st.one_of(st.just("1"), st.lists(letter, min_size=1, max_size=4).map(" ".join)))
# bounds stay at or under verify's defaults (length 4, fiber 3) but for one
# step of fiber, so no box nears the enumeration cap's running time
VALUES = {
    "--surface": _or_junk(st.sampled_from(sorted(SURFACES))),
    "--format": _or_junk(st.sampled_from(("text", "structured"))),
    "--word": word,
    "--n": _or_junk(st.integers(-2, 8).map(str)),
    "--bound-length": _or_junk(st.integers(-1, 4).map(str)),
    "--bound-fiber": _or_junk(st.integers(-1, 4).map(str)),
}
COMMON = ("--surface", "--format")
ELEMENT = COMMON + ("--word",)
# each subcommand's flags, and how many positional tokens it takes
FLAGS = {
    "group": (COMMON, 0),
    "classify": (ELEMENT, 1),
    "pin": (COMMON + ("--n",), 0),
    "lift": (COMMON, 1),
    "decompose": (ELEMENT, 1),
    "reghom": (COMMON, 2),
    "verify": (ELEMENT + ("--bound-length", "--bound-fiber"), 1),
}
token = st.one_of(st.sampled_from(FILES), st.builds("word:{}".format, word))


def _some(values, count):
    """Lists of the values: of the length that parses five times in eight,
    else of any other length up to 3."""
    lengths = st.sampled_from((count, count, count, count, 0, 1, 2, 3))
    return lengths.flatmap(lambda n: st.lists(values, min_size=n, max_size=n))


@st.composite
def command(draw):
    """A subcommand, each of its flags absent, once or repeated, then up to
    three positional tokens."""
    name = draw(st.sampled_from(sorted(FLAGS)))
    flags, positionals = FLAGS[name]
    argv = [name]
    for flag in flags:
        # the "=" form keeps a value that starts with "-" from reading as an
        # option
        argv += [f"{flag}={value}" for value in draw(_some(VALUES[flag], 1))]
    return argv + draw(_some(token, positionals))


@pytest.fixture(scope="module")
def curve_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves")
    for name, text in CURVES.items():
        (path / name).write_text(text)
    return path


# the captured streams and the working directory serve every example; each
# example reads the streams empty
@settings(derandomize=True, max_examples=300, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command())
@example(["decompose", "--surface=orientable:2:0"])
@example(["pin", "--surface=orientable:1:0", "--n=--"])
def test_cli_exits_0_1_or_2_on_any_command_line(capsys, monkeypatch, curve_dir, argv):
    monkeypatch.chdir(curve_dir)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.splitlines()
        assert any(line.startswith("error: ") for line in lines) or (
            err.startswith("usage: ") and any(": error: " in line for line in lines)
        ), (argv, err)
    assert elapsed < 10, (argv, elapsed)
