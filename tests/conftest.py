import pytest

from curvespace import SurfaceSpec, presentation, st_parse
from curvespace.words import parse_word


SPHERE = SurfaceSpec(True, 0, 0)
TORUS = SurfaceSpec(True, 1, 0)
RP2 = SurfaceSpec(False, 1, 0)
KLEIN = SurfaceSpec(False, 2, 0)
GENUS2 = SurfaceSpec(True, 2, 0)
GENUS3 = SurfaceSpec(True, 3, 0)
NONOR3 = SurfaceSpec(False, 3, 0)
PUNCTURED_TORUS = SurfaceSpec(True, 1, 1)
PUNCTURED_NONOR = SurfaceSpec(False, 2, 1)

ALL_REGIME_SAMPLES = (
    SPHERE,
    TORUS,
    RP2,
    KLEIN,
    GENUS2,
    NONOR3,
    PUNCTURED_TORUS,
    PUNCTURED_NONOR,
)


def W(text, surface):
    return parse_word(text, presentation(surface))


def ST(text, surface):
    return st_parse(text, surface)


@pytest.fixture
def torus():
    return TORUS


@pytest.fixture
def klein():
    return KLEIN


@pytest.fixture
def genus2():
    return GENUS2


@pytest.fixture
def nonor3():
    return NONOR3
