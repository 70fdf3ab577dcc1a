import pytest

from curvespace import (
    Generator,
    Presentation,
    Regime,
    SurfaceError,
    SurfaceSpec,
    abelianization,
    euler_characteristic,
    presentation,
    regime,
    st_presentation,
)
from curvespace.oracle import SearchBound, bounded_is_trivial
from curvespace.words import Word, free_reduce

from conftest import ALL_REGIME_SAMPLES, KLEIN, GENUS2, RP2, SPHERE, TORUS


def test_regime_table():
    assert regime(SurfaceSpec(True, 0, 0)) is Regime.SPHERE
    assert regime(SurfaceSpec(False, 2, 0)) is Regime.KLEIN
    assert regime(SurfaceSpec(True, 2, 1)) is Regime.PUNCTURED
    assert regime(SurfaceSpec(True, 1, 0)) is Regime.TORUS
    assert regime(SurfaceSpec(False, 1, 0)) is Regime.RP2
    assert regime(SurfaceSpec(True, 5, 0)) is Regime.CLOSED_ORIENTABLE_HYPERBOLIC
    assert regime(SurfaceSpec(False, 7, 0)) is Regime.CLOSED_NONORIENTABLE_HYPERBOLIC


def test_spec_validation():
    with pytest.raises(SurfaceError):
        SurfaceSpec(False, 0, 0)
    with pytest.raises(SurfaceError):
        SurfaceSpec(True, -1, 0)
    with pytest.raises(SurfaceError):
        SurfaceSpec.parse("orientable:2")
    with pytest.raises(ValueError, match="character must be"):
        Generator("g", 2)
    spec = SurfaceSpec(True, 2)
    assert repr(spec) == "SurfaceSpec(orientable=True, genus=2, punctures=0)"
    with pytest.raises(AttributeError):
        spec.genus = 3


def test_parse_roundtrip():
    for spec in ALL_REGIME_SAMPLES:
        assert SurfaceSpec.parse(str(spec)) == spec


def test_euler_characteristic():
    assert euler_characteristic(SPHERE) == 2
    assert euler_characteristic(KLEIN) == 0
    assert euler_characteristic(SurfaceSpec(True, 2, 0)) == -2
    assert euler_characteristic(SurfaceSpec(False, 3, 0)) == -1
    assert euler_characteristic(SurfaceSpec(True, 1, 2)) == -2


def test_surface_presentations():
    t = presentation(TORUS)
    assert t.names() == ("a1", "b1")
    assert all(g.character == +1 for g in t.generators)
    assert t.relators == ((1, 2, -1, -2),)

    k = presentation(KLEIN)
    assert k.names() == ("c1", "c2")
    assert all(g.character == -1 for g in k.generators)
    assert k.relators == ((1, 1, 2, 2),)

    s = presentation(SPHERE)
    assert s.generators == () and s.relators == ()

    pt = presentation(SurfaceSpec(True, 1, 2))
    assert pt.names() == ("a1", "b1", "z1")
    assert pt.relators == ()

    pn = presentation(SurfaceSpec(False, 2, 2))
    assert pn.names() == ("c1", "c2", "z1")
    assert [g.character for g in pn.generators] == [-1, -1, +1]


def test_st_presentation_torus():
    p = st_presentation(TORUS)
    assert p.names() == ("a1", "b1", "f")
    # chi = 0: the surface relator lifts unchanged, plus two commutators
    assert p.relators == ((1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))


def test_st_presentation_klein():
    p = st_presentation(KLEIN)
    assert p.names() == ("c1", "c2", "f")
    assert p.relators == ((1, 1, 2, 2), (1, 3, -1, 3), (2, 3, -2, 3))


def test_st_presentation_genus2():
    p = st_presentation(GENUS2)
    rel = p.relators[0]
    # surface relator followed by f^2 (chi = -2)
    assert rel[:8] == (1, 2, -1, -2, 3, 4, -3, -4)
    assert rel[8:] == (5, 5)


def test_st_presentation_finite():
    assert st_presentation(SPHERE).relators == ((1, 1),)
    assert st_presentation(RP2).relators == ((1, 1, 1, 1),)
    assert st_presentation(SPHERE).names() == ("f",)
    assert st_presentation(RP2).names() == ("f",)


def test_relator_characters_are_positive():
    for spec in ALL_REGIME_SAMPLES:
        for pres in (presentation(spec), st_presentation(spec)):
            for rel in pres.relators:
                assert pres.word_character(rel) == +1


def test_abelianization_closed_orientable():
    # Z^(2g) + Z/(2g-2), so the fiber class has order |chi|
    assert abelianization(st_presentation(SurfaceSpec(True, 2, 0))) == (4, (2,))
    assert abelianization(st_presentation(SurfaceSpec(True, 3, 0))) == (6, (4,))


def test_abelianization_small_cases():
    assert abelianization(st_presentation(SPHERE)) == (0, (2,))
    assert abelianization(st_presentation(RP2)) == (0, (4,))
    assert abelianization(st_presentation(TORUS)) == (3, ())


def test_klein_st_presentation_matches_product_form():
    """The Klein tangent-bundle group is also presented by generators g, h, f
    with h g = g^-1 h, h f = f^-1 h, g f = f g; check both relator sets map
    to consequences of the other under g -> c1 c2, h -> c2^-1 (and back),
    using the brute-force identity checker."""
    crosscap = st_presentation(KLEIN)
    product_form = Presentation(
        (Generator("g", +1), Generator("h", -1), Generator("f", +1)),
        ((2, 1, -2, 1), (2, 3, -2, 3), (1, 3, -1, -3)),
    )
    bound = SearchBound(max_word_length=12, max_fiber=4, max_depth=4)

    # g -> c1 c2, h -> c2^-1, f -> f  (letters in crosscap form: 1,2,3)
    into_crosscap = {1: (1, 2), -1: (-2, -1), 2: (-2,), -2: (2,), 3: (3,), -3: (-3,)}
    for rel in product_form.relators:
        image = free_reduce(sum((into_crosscap[x] for x in rel), ()))
        assert bounded_is_trivial(Word(crosscap, image), bound) is True

    # c1 -> g h, c2 -> h^-1, f -> f  (letters in product form: 1,2,3)
    into_product = {1: (1, 2), -1: (-2, -1), 2: (-2,), -2: (2,), 3: (3,), -3: (-3,)}
    for rel in crosscap.relators:
        image = free_reduce(sum((into_product[x] for x in rel), ()))
        assert bounded_is_trivial(Word(product_form, image), bound) is True
