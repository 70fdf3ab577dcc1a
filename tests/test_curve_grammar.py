"""Curve files assembled from the pieces of the file grammar: every text
either loads and lifts or is rejected with ``CurveError``, never with any
other exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvespace.flatcurves import CurveError, lift, load_curve  # noqa: E402

from conftest import KLEIN, SPHERE, TORUS  # noqa: E402


HEADERS = ("model=plane", "model=torus", "model=klein", "  model= klein\t", "model=moebius", "0,0", "")
NUMBERS = (
    "0", "1", "-1", "0.5", " 0.25 ", "+1.5", "\t2.75", "1e-3", "3_0", "1e308", "-1e308", "1e999",
    "inf", "-inf", "nan", "NaN", "0x1p3", "", "\u0663", "1.0000000000000002", "0.999999999",
)
NOISE = ("", " ", "\t", "\x1f", "\x00", "\x0b", "\x1c", "\xa0", "\ufeff")
SEPARATORS = (",", ",", ",", ",,", ";", ", ,")
COMMENTS = ("", "", " # a note", "#", "# x,y")
NEWLINES = ("\n", "\r\n", "\n\n")

number = st.one_of(st.sampled_from(NUMBERS), st.floats(-4, 4).map(repr))
vertex = st.builds(
    lambda pad, x, sep, y, end, comment: pad + x + sep + y + end + comment,
    st.sampled_from(NOISE), number, st.sampled_from(SEPARATORS), number, st.sampled_from(NOISE),
    st.sampled_from(COMMENTS),
)
line = st.one_of(vertex, st.sampled_from(NOISE), st.sampled_from(COMMENTS))

# valid curves of each model; their lines get only the padding, comments
# and blank lines that the grammar allows, so they load and lift
VALID = (
    ("model=plane", ("0,0", "1,0", "1,1", "0,1")),
    ("model=torus", ("0.5,0.5", "1.2,0.6", "1.5,0.5")),
    ("model=klein", ("0.5,0.5", "1.2,0.7", "1.5,0.5")),
    ("model=klein", ("0.5,0.5", "0.5,1.2", "0.5,1.5")),
)
PADDING = ("", " ", "\t", "\x1f")


@st.composite
def valid_text(draw):
    head, body = draw(st.sampled_from(VALID))
    lines = [head]
    for vertex_line in body:
        lines += draw(st.lists(st.sampled_from(("", "  ", "# a comment")), max_size=2))
        pad, end = draw(st.sampled_from(PADDING)), draw(st.sampled_from(PADDING))
        lines.append(pad + vertex_line + end + draw(st.sampled_from(COMMENTS)))
    return draw(st.sampled_from(NEWLINES)).join(lines) + "\n"


text = st.one_of(
    st.builds(
        lambda head, lines, newline: newline.join([head, *lines]) + newline,
        st.sampled_from(HEADERS), st.lists(line, max_size=8), st.sampled_from(NEWLINES),
    ),
    valid_text(),
)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(text)
def test_load_and_lift_answer_or_raise_curve_error(source):
    try:
        curve = load_curve(source)
    except CurveError:
        return
    for surface in (SPHERE, TORUS, KLEIN):
        try:
            lift(curve, surface)
        except CurveError:
            pass
