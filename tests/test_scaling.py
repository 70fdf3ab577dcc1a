"""Cost grows with a word's length no faster than the engine allows.

Each family is a block of letters repeated out to about 64, 128, 256 and
512 letters on a closed hyperbolic surface.  The test counts the letters
that one operation feeds to the closed hyperbolic normal form
(``words._dehn_normalize``) on each word, and bounds the log-log slope of
that count against the length, between the first and the last word, at
1.25: linear work reads about 1, quadratic work about 2.  It reads no
clock, so its verdict does not depend on the machine.  The families cover
normal forms, products, classification, roots and conjugators, ring words
among them, on genus 2 and 3 and on 3 and 4 crosscaps.  The two root
families that are still quadratic are strict xfails stopped at 256
letters: a class-0 power on genus 2, and a commutator power on 3
crosscaps, where no area class is read.  ROADMAP item 2's canonical cyclic
words and item 18's orientation double cover (an area class off the
orientable surfaces) are the two routes to linear work; a fix that makes
a family linear fails its marker, and the family then moves to the linear
ones.
"""

import math

import pytest

from curvespace import SurfaceSpec, presentation, words
from curvespace.classify import classify_pi1
from curvespace.stbundle import st_multiply, st_word
from curvespace.words import Word, conjugating_element, invert_letters, parse_letters, primitive_root, word

SLOPE_BOUND = 1.25
LENGTHS = (64, 128, 256, 512)
QUADRATIC_LENGTHS = (64, 128, 256)


def _root(pres, letters):
    primitive_root(Word(pres, letters))


def _normal_form(pres, letters):
    word(pres, letters)


def _square(pres, letters):
    x = st_word(pres.surface, letters, 0)
    st_multiply(x, x)


def _classify(pres, letters):
    """The centralizer of the word's lift times the fiber class."""
    classify_pi1(pres.surface, st_word(pres.surface, letters, 1))


def _conjugator(pres, letters):
    """A conjugator from the word to its conjugate by a fixed short word."""
    t = (2, 3, -1)
    assert conjugating_element(Word(pres, letters), Word(pres, t + letters + invert_letters(t))) is not None


# (operation, surface, leading letters, repeated block)
LINEAR = {
    "root of (a1 b1 A1 B1)^k": (_root, "orientable:2:0", "", "a1 b1 A1 B1"),
    "root of (a1 a2 A1 A2 b1 b2 B1 B2)^k": (_root, "orientable:2:0", "", "a1 a2 A1 A2 b1 b2 B1 B2"),
    "root of (c1 c2 C1 C2)^k": (_root, "nonorientable:4:0", "", "c1 c2 C1 C2"),
    "normal form of (a1 b1 A1 B1 a1)^k": (_normal_form, "orientable:2:0", "", "a1 b1 A1 B1 a1"),
    "normal form of (c1 c1 c2)^k": (_normal_form, "nonorientable:3:0", "", "c1 c1 c2"),
    "conjugator of (a1 b1 A1 B1)^k": (_conjugator, "orientable:2:0", "", "a1 b1 A1 B1"),
    # one half-relator window and no period: the conjugacy search cuts the
    # word only where its band has a choice, not at each rotation
    "conjugator of c1 c1 c2 (c3 c2)^k": (_conjugator, "nonorientable:3:0", "c1 c1 c2", "c3 c2"),
    "st_multiply of (c1 c1 c2)^k by itself": (_square, "nonorientable:3:0", "", "c1 c1 c2"),
    "classify_pi1 of (a1 b1 A1 B1 a1)^k f": (_classify, "orientable:2:0", "", "a1 b1 A1 B1 a1"),
    # a ring word: no half-relator window, and L/2 - 1 = 5 divides its length
    "conjugator of (a1 b1 A1 B1 a2)^k": (_conjugator, "orientable:3:0", "", "a1 b1 A1 B1 a2"),
    "conjugator of (c1 c1 c2 c2 c3)^k": (_conjugator, "nonorientable:4:0", "", "c1 c1 c2 c2 c3"),
    "conjugator of (c1 c1 c2)^k": (_conjugator, "nonorientable:3:0", "", "c1 c1 c2"),
}

QUADRATIC = {
    # a power of a class-0 element: its free H_1 coordinates and its area
    # class are 0, so every exponent is tried
    "root of [[a1, b1], a2]^k": (_root, "orientable:2:0", "", "a1 b1 A1 B1 a2 b1 a1 B1 A1 A2"),
    # null-homologous on 3 crosscaps, where no area class narrows the exponents
    "root of (c1 c2 C1 C2)^k on 3 crosscaps": (_root, "nonorientable:3:0", "", "c1 c2 C1 C2"),
}


def _slope(monkeypatch, family, lengths):
    """The log-log slope of the letters fed to the normal form against the
    word's length, between the first and the last length."""
    operation, surface, head, block = family
    pres = presentation(SurfaceSpec.parse(surface))
    head, block = (parse_letters(text, pres.names()) for text in (head, block))
    fed = 0
    normalize = words._dehn_normalize

    def counting(letters, band):
        nonlocal fed
        fed += len(letters)
        return normalize(letters, band)

    monkeypatch.setattr(words, "_dehn_normalize", counting)
    points = []
    for n in lengths:
        letters = head + block * round((n - len(head)) / len(block))
        fed = 0
        operation(pres, letters)
        points.append((len(letters), fed))
    (n0, c0), (n1, c1) = points[0], points[-1]
    return math.log(c1 / c0) / math.log(n1 / n0), points


@pytest.mark.parametrize("name", LINEAR)
def test_work_grows_linearly_with_length(monkeypatch, name):
    slope, points = _slope(monkeypatch, LINEAR[name], LENGTHS)
    assert slope <= SLOPE_BOUND, (name, round(slope, 2), points)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="still quadratic: these roots normalize a whole power per exponent; "
    "ROADMAP item 2's canonical cyclic words or item 18's orientation double cover",
)
@pytest.mark.parametrize("name", QUADRATIC)
def test_quadratic_families_grow_linearly_with_length(monkeypatch, name):
    slope, points = _slope(monkeypatch, QUADRATIC[name], QUADRATIC_LENGTHS)
    assert slope <= SLOPE_BOUND, (name, round(slope, 2), points)
