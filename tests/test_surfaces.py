import copy
import math
import pickle
import random
from itertools import combinations

import pytest

import curvespace
from curvespace import Generator, Presentation, SurfaceSpec, presentation, st_parse, st_presentation
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
from curvespace import oracle
from curvespace.oracle import SearchBound, VerificationOutcome, bounded_is_trivial

from conftest import ALL_REGIME_SAMPLES, KLEIN, GENUS2, NONOR3, RP2, SPHERE, ST, TORUS, W


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


def test_records_that_hold_counts_take_integers_only():
    """A float or string count, an orientability other than True and
    False, or a float character is refused; integer-like counts are stored
    as ``int``, so equal records describe one surface and print one way."""
    for args in ((True, 2.0), (True, 2.5), (True, 2, 1.0), (True, "2"), ("yes", 1), (1, 1), (None, 2)):
        with pytest.raises(SurfaceError):
            SurfaceSpec(*args)
    with pytest.raises(SurfaceError):
        st_parse("a1", SurfaceSpec(True, 2.0))
    for args in ((2.0, 1), (2, 1.5), ("3", 1), (None, 0)):
        with pytest.raises(ValueError, match="integers"):
            SearchBound(*args)
    spec = SurfaceSpec(True, True, False)
    assert spec == SurfaceSpec(True, 1, 0) and str(spec) == "orientable:1:0"
    assert [type(x) for x in spec] == [bool, int, int]
    bound = SearchBound(True, False)
    assert bound == SearchBound(1, 0) and [type(x) for x in bound] == [int, int]
    # the texts print the character with a sign, which needs an integer
    with pytest.raises(ValueError, match="character must be"):
        Generator("a1", 1.0)


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


def test_records_hold_no_field_that_other_fields_decide():
    """A presentation's engine follows from its surface and its relators, the
    index-two answer's predicate from its kind, a report's surface from its
    element, and a tangent-bundle element's surface and residue from its base
    and fiber, so none of them is a field."""
    assert Presentation._fields == ("generators", "relators", "surface")
    assert curvespace.STWord._fields == ("base", "fiber")
    assert GroupDescription._fields == ("kind", "witnesses", "sphere_sum_degree")
    assert curvespace.ClassificationReport._fields == ("element", "case", "group", "decomposition")


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


def test_presentations_on_a_grid():
    """Generators, characters and relators of every surface with orientable
    genus 0-4 or 1-5 crosscaps and 0-3 punctures, against spellings written
    out here, and the two finite tangent-bundle presentations."""
    for orientable, genera in ((True, range(5)), (False, range(1, 6))):
        for g in genera:
            for p in range(4):
                pres = presentation(SurfaceSpec(orientable, g, p))
                if orientable:
                    handles = [f"a{i} b{i}" for i in range(1, g + 1)]
                    relator = " ".join(f"a{i} b{i} A{i} B{i}" for i in range(1, g + 1))
                else:
                    handles = [f"c{i}" for i in range(1, g + 1)]
                    relator = " ".join(f"c{i}^2" for i in range(1, g + 1))
                punctures = [f"z{i}" for i in range(1, p)]
                where = (orientable, g, p)
                assert " ".join(pres.names()) == " ".join(handles + punctures), where
                crosscaps = 0 if orientable else g
                assert [c for _, c in pres.generators] == [-1] * crosscaps + [+1] * (
                    len(pres.generators) - crosscaps
                ), where
                expected = (relator,) if relator and p == 0 else ()
                assert tuple(pres.spell(r) for r in pres.relators) == expected, where
    for spec, relator in ((SPHERE, "f^2"), (RP2, "f^4")):
        st = st_presentation(spec)
        assert st.names() == ("f",)
        assert [st.spell(r) for r in st.relators] == [relator]


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


def test_abelian_certificate_by_determinantal_divisors(monkeypatch):
    """``bounded_is_trivial`` answers a definite False exactly when adding
    the word's exponent row to the relator rows changes the number of
    nonzero invariant factors or their product, computed here from minors.
    Half the words are shuffles of relators and of a word with its inverse,
    whose rows lie in the relator lattice."""
    x, y = Generator("x", +1), Generator("y", +1)
    presentations = (
        Presentation((x, y), ((1,) * 6, (1, 2, -1, -2))),
        Presentation((x, y), ((1, 1, 1, 1, 2, 2), (1, 1, -2, -2))),
        st_presentation(KLEIN),
        presentation(NONOR3),
        presentation(GENUS2),
    )
    rng = random.Random(61)
    monkeypatch.setattr(oracle, "_BFS_DEPTH", 1)
    monkeypatch.setattr(oracle, "_BFS_LETTERS", 4)

    def invariants(rows, ncols):
        nonzero = [d for d in _determinantal_diagonal(rows, ncols) if d]
        return len(nonzero), math.prod(nonzero)

    for pres in presentations:
        n = len(pres.generators)
        rows = [list(exponent_vector(pres, rel)) for rel in pres.relators]
        before = invariants(rows, n)
        verdicts = set()
        for _ in range(300):
            letters = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randrange(9))]
            if rng.random() < 0.5:
                letters += [-a for a in letters]
                for _ in range(rng.randrange(3)):
                    letters += rng.choice(pres.relators)
                rng.shuffle(letters)
            row = list(exponent_vector(pres, letters))
            certified = invariants(rows + [row], n) != before
            verdict = bounded_is_trivial(Word(pres, tuple(letters)))
            assert (verdict is False) == certified, (pres.spell(letters), verdict)
            verdicts.add(certified)
        assert verdicts == {False, True}, pres


def test_klein_st_presentation_matches_product_form(monkeypatch):
    """The Klein tangent-bundle group is also presented by generators g, h, f
    with h g = g^-1 h, h f = f^-1 h, g f = f g; check both relator sets map
    to consequences of the other under g -> c1 c2, h -> c2^-1 (and back),
    using the brute-force identity checker."""
    crosscap = st_presentation(KLEIN)
    product_form = Presentation(
        (Generator("g", +1), Generator("h", -1), Generator("f", +1)),
        ((2, 1, -2, 1), (2, 3, -2, 3), (1, 3, -1, -3)),
    )
    monkeypatch.setattr(oracle, "_BFS_DEPTH", 4)
    monkeypatch.setattr(oracle, "_BFS_LETTERS", 12)

    # g -> c1 c2, h -> c2^-1, f -> f  (letters in crosscap form: 1,2,3)
    into_crosscap = {1: (1, 2), -1: (-2, -1), 2: (-2,), -2: (2,), 3: (3,), -3: (-3,)}
    for rel in product_form.relators:
        image = free_reduce(sum((into_crosscap[x] for x in rel), ()))
        assert bounded_is_trivial(Word(crosscap, image)) is True

    # c1 -> g h, c2 -> h^-1, f -> f  (letters in product form: 1,2,3)
    into_product = {1: (1, 2), -1: (-2, -1), 2: (-2,), -2: (2,), 3: (3,), -3: (-3,)}
    for rel in crosscap.relators:
        image = free_reduce(sum((into_product[x] for x in rel), ()))
        assert bounded_is_trivial(Word(product_form, image)) is True
