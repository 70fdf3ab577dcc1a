import copy
import math
import pickle
import random
from itertools import combinations

import pytest

import curvespace
from curvespace import Generator, Presentation, SurfaceSpec, presentation, st_presentation
from curvespace.surfaces import (
    Regime,
    SurfaceError,
    abelianization,
    euler_characteristic,
    exponent_vector,
    regime,
    smith_diagonal,
)
from curvespace.words import Word, free_reduce
from curvespace.stbundle import decompose
from curvespace.flatcurves import CurveOnSurface, Model, Polyline, lift
from curvespace.classify import GroupDescription, Kind, classify_pi1
from curvespace.oracle import SearchBound, VerificationOutcome, bounded_is_trivial

from conftest import ALL_REGIME_SAMPLES, KLEIN, GENUS2, RP2, SPHERE, ST, TORUS, W


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
    # at most 64 generators: 2 per handle, 1 per crosscap, 1 per puncture
    # past the first
    for orientable, genus, punctures in ((True, 32, 0), (False, 64, 0), (True, 0, 65), (False, 63, 2)):
        assert len(presentation(SurfaceSpec(orientable, genus, punctures)).generators) == 64
    for text in ("orientable:33:0", "nonorientable:65:0", "orientable:0:66", "orientable:99999999999:0"):
        with pytest.raises(SurfaceError, match="at most 64"):
            SurfaceSpec.parse(text)
    with pytest.raises(SurfaceError, match="at most 64"):
        SurfaceSpec(True, 32)._replace(punctures=2)
    spec = SurfaceSpec(True, 2)
    assert repr(spec) == "SurfaceSpec(orientable=True, genus=2, punctures=0)"


def test_surface_grammar_takes_ascii_digits_only():
    """Genus and punctures are ASCII digits, as powers are in the word
    grammar: an Arabic-Indic two (U+0662) is no genus 2."""
    for text in ("orientable:\u0662:0", "nonorientable:3:\u0660", "orientable:\uff12:0"):
        with pytest.raises(SurfaceError, match="bad surface"):
            SurfaceSpec.parse(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SurfaceSpec(True, 2)._replace(genus=-1),
        lambda: SurfaceSpec(False, 1)._replace(genus=0),
        lambda: SearchBound()._replace(max_word_length=0),
        lambda: Generator("a1", 1)._replace(character=5),
        lambda: GroupDescription(Kind.Z)._replace(witnesses=(ST("a1", GENUS2),) * 2),
        lambda: SurfaceSpec._make((True, 0, -1)),
    ],
    ids=["genus", "crosscaps", "bound", "character", "rank", "make"],
)
def test_replace_and_make_validate(build):
    with pytest.raises(ValueError):
        build()


def _curve():
    curve = CurveOnSurface(Model.PLANE, Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))))
    lift(curve, TORUS)  # caches the lift data in the instance dict
    return curve


RECORDS = {
    "SurfaceSpec": lambda: SurfaceSpec(True, 2),
    "Generator": lambda: Generator("c1", -1),
    "Presentation": lambda: presentation(GENUS2),
    "Word": lambda: W("a1 b1 A2", GENUS2),
    "STWord": lambda: ST("a1 f^3", GENUS2),
    "LiftDecomposition": lambda: decompose(ST("a1^2 f", GENUS2)),
    "Polyline": lambda: Polyline(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    "CurveOnSurface": _curve,
    "GroupDescription": lambda: GroupDescription(Kind.Z, (ST("a1", GENUS2),)),
    "ClassificationReport": lambda: classify_pi1(GENUS2, ST("a1", GENUS2)),
    "SearchBound": lambda: SearchBound(),
    "VerificationOutcome": lambda: VerificationOutcome(True, "ok"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_records_behave_as_records(name):
    record = RECORDS[name]()
    assert type(record) is getattr(curvespace, name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is type(record) and twin == record
    assert repr(record).startswith(name + "(")
    for twin in (record._replace(), type(record)._make(tuple(record))):
        assert type(twin) is type(record) and twin == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


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


def _determinant(matrix):
    """Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * x * _determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, x in enumerate(matrix[0])
        if x
    )


def _determinantal_diagonal(rows, ncols):
    """The invariant factors as ``d_k = D_k / D_(k-1)``, where ``D_k`` is the
    gcd of all k x k minors; once every k x k minor vanishes, so do all
    larger ones, and the factors from there on are 0."""
    diag, previous = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        divisor = 0
        for picked in combinations(rows, k):
            for cols in combinations(range(ncols), k):
                divisor = math.gcd(divisor, _determinant([[row[j] for j in cols] for row in picked]))
        diag.append(divisor // previous if divisor else 0)
        previous = divisor or 1
    return diag


def test_smith_diagonal_by_determinantal_divisors():
    """Seeded random integer matrices of up to 4 x 4, with zero rows, columns
    and entries, and the relator matrices of the surface and tangent-bundle
    presentations of genus at most 3."""
    rng = random.Random(53)
    cases = []
    for _ in range(2000):
        nrows, ncols, size = rng.randint(0, 4), rng.randint(1, 4), rng.choice((1, 2, 6, 30))
        rows = [[rng.randint(-size, size) if rng.random() < 0.7 else 0 for _ in range(ncols)] for _ in range(nrows)]
        cases.append((rows, ncols))
    for orientable in (True, False):
        for genus in range(0 if orientable else 1, 4):
            for punctures in (0, 1, 2):
                surface = SurfaceSpec(orientable, genus, punctures)
                for pres in (presentation(surface), st_presentation(surface)):
                    rows = [list(exponent_vector(pres, rel)) for rel in pres.relators]
                    cases.append((rows, len(pres.generators)))
    for rows, ncols in cases:
        assert smith_diagonal(rows, ncols) == _determinantal_diagonal(rows, ncols), rows


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
