import pytest

from curvespace import SearchBound, SurfaceSpec, presentation, st_parse, verify_classification
from curvespace.words import Word, word
from curvespace.stbundle import st_invert, st_multiply, st_power
from curvespace.oracle import (
    UNDECIDED,
    VERIFY_BOUND,
    VerificationOutcome,
    _MAX_ENUMERATION,
    _box_candidates,
    _reduced_words,
    bounded_centralizer,
    bounded_elements,
    bounded_is_trivial,
)

from conftest import GENUS2, KLEIN, NONOR3, SPHERE, TORUS, ST


def test_bounded_is_trivial_basics():
    pres = presentation(GENUS2)
    assert bounded_is_trivial(word(pres, ())) is True
    assert bounded_is_trivial(Word(pres, pres.relators[0])) is True
    # a1 is nontrivial, and the exponent-sum certificate makes it definite
    assert bounded_is_trivial(Word(pres, (1,))) is False
    # a free group: free reduction alone decides, with no BFS
    assert bounded_is_trivial(word(presentation(SurfaceSpec(True, 1, 2)), (1, 2))) is False


def test_bounded_is_trivial_undecided_vs_certificate(monkeypatch):
    from curvespace import oracle

    pres = presentation(NONOR3)
    monkeypatch.setattr(oracle, "_BFS_DEPTH", 1)
    # c1^2 c2^2 c3^2 is the relator: trivial, found by one deletion
    assert bounded_is_trivial(Word(pres, pres.relators[0])) is True
    # (1,1,0) is not a multiple of (2,2,2): certificate gives a definite no
    monkeypatch.setattr(oracle, "_BFS_LETTERS", 6)
    assert bounded_is_trivial(Word(pres, (1, 2))) is False
    # the commutator [c1, c2] is abelian-invisible but nontrivial (c1 and c2
    # generate a free subgroup): small bounds answer undecided, never False
    verdict = bounded_is_trivial(Word(pres, (1, 2, -1, -2)))
    assert verdict is UNDECIDED
    with pytest.raises(ValueError, match="bounds must be positive"):
        SearchBound(0, 1)
    # the genus-2 relator with its conjugate by a2 inserted after the fifth
    # letter: trivial, and its exponent vector gives no certificate; holding
    # _STATE_CAP states, the BFS answers undecided, not False
    rel = presentation(GENUS2).relators[0]
    nested = Word(presentation(GENUS2), rel[:5] + (3,) + rel + (-3,) + rel[5:])
    monkeypatch.setattr(oracle, "_BFS_DEPTH", 4)
    monkeypatch.setattr(oracle, "_BFS_LETTERS", 8)
    assert bounded_is_trivial(nested) is True
    monkeypatch.setattr(oracle, "_STATE_CAP", 3)
    assert bounded_is_trivial(nested) is UNDECIDED


def test_default_box_is_verify_bound(monkeypatch, capsys):
    """``SearchBound()`` is the verify box, and the CLI's ``verify`` run
    without bound flags verifies in it."""
    from curvespace import cli, oracle

    assert SearchBound() == VERIFY_BOUND == SearchBound(4, 3)
    assert SearchBound._fields == ("max_word_length", "max_fiber")
    bounds = []

    def record(surface, xi, bound):
        bounds.append(bound)
        return VerificationOutcome(True, "recorded", None)

    monkeypatch.setattr(oracle, "verify_classification", record)
    assert cli.main(["verify", "--surface", "orientable:1:0", "--word", "a1"]) == 0
    assert capsys.readouterr().out == "PASS: recorded\n"
    # a bound that is not given is VERIFY_BOUND's, also beside one that is
    assert cli.main(["verify", "--surface", "orientable:1:0", "--word", "a1", "--bound-fiber", "2"]) == 0
    assert bounds == [VERIFY_BOUND, SearchBound(VERIFY_BOUND.max_word_length, 2)]


def test_finite_regime_element_tables():
    from conftest import RP2

    assert len(bounded_elements(SPHERE, SearchBound())) == 2
    assert len(bounded_elements(RP2, SearchBound())) == 4


def test_box_candidates_count_the_enumeration():
    """The count that the enumeration cap reads is the number of (reduced
    word, fiber) pairs that bounded_elements walks through, and it stops
    soon after the cap however large the bounds."""
    for generators in range(4):
        for length in range(1, 5):
            walked = sum(1 for _ in _reduced_words(generators, length))
            assert _box_candidates(generators, SearchBound(length, 2)) == 5 * walked
    huge = _box_candidates(64, SearchBound(10**9, 3))
    assert _MAX_ENUMERATION < huge < 200 * _MAX_ENUMERATION


def test_sphere_centralizer_is_everything():
    for text in ("1", "f"):
        cent = bounded_centralizer(SPHERE, ST(text, SPHERE))
        assert len(cent) == 2


def test_default_centralizer_box_fits_closed_hyperbolic_surfaces():
    """The default box is VERIFY_BOUND, under the enumeration cap on closed
    hyperbolic surfaces.  f is central over orientation-preserving bases and
    inverted by reversing ones (odd words in the crosscaps)."""
    cent = bounded_centralizer(GENUS2, ST("f", GENUS2))
    assert cent == bounded_elements(GENUS2, VERIFY_BOUND)
    assert len(cent) == 22_351
    box = bounded_elements(NONOR3, VERIFY_BOUND)
    cent = bounded_centralizer(NONOR3, ST("f", NONOR3))
    assert cent == tuple(el for el in box if len(el.base.letters) % 2 == 0)
    assert 0 < len(cent) < len(box)


def test_torus_centralizer_is_the_box():
    bound = SearchBound(3, 2)
    xi = ST("a1 b1 f", TORUS)
    cent = bounded_centralizer(TORUS, xi, bound)
    assert set(cent) == set(bounded_elements(TORUS, bound))


def test_klein_centralizer_of_odd_element():
    """For g h the centralizer is exactly the powers of g h in the box."""
    bound = SearchBound(4, 3)
    xi = ST("c1", KLEIN)  # c1 = g h in the semidirect coordinates
    cent = set(bounded_centralizer(KLEIN, xi, bound))
    powers = set()
    for e in range(-8, 9):
        p = st_power(xi, e)
        if len(p.base.letters) <= bound.max_word_length and abs(p.fiber) <= bound.max_fiber:
            powers.add(p)
    assert cent == powers


def test_centralizer_contains_identity_inverse_and_self():
    bound = SearchBound(3, 2)
    for surface, text in ((KLEIN, "c1 c2"), (GENUS2, "a1"), (NONOR3, "c1^2")):
        xi = st_parse(text, surface)
        cent = bounded_centralizer(surface, xi, bound)
        els = set(cent)
        assert st_parse("1", surface) in els
        if len(xi.base.letters) <= bound.max_word_length and abs(xi.fiber) <= bound.max_fiber:
            assert xi in els
        for el in cent:
            inv = st_invert(el)
            # inverses commute too; they appear whenever they fit the box
            if len(inv.base.letters) <= bound.max_word_length and abs(inv.fiber) <= bound.max_fiber:
                assert inv in els


def test_centralizer_of_reversing_elements_matches_plain_products():
    """Orientation-reversing elements flip the fiber of what they commute
    past, so each fiber copy of a base needs the right sign; the reference
    makes two full products per element."""
    bound = SearchBound(3, 2)
    for surface, text in ((KLEIN, "c1"), (KLEIN, "c2 f^2"), (NONOR3, "c1"), (NONOR3, "c1 c2 c3 F")):
        xi = ST(text, surface)
        reference = tuple(
            el for el in bounded_elements(surface, bound) if st_multiply(el, xi) == st_multiply(xi, el)
        )
        assert bounded_centralizer(surface, xi, bound) == reference, (surface, text)


def test_centralizer_order_is_deterministic():
    bound = SearchBound(3, 2)
    a = bounded_centralizer(KLEIN, ST("c1", KLEIN), bound)
    b = bounded_centralizer(KLEIN, ST("c1", KLEIN), bound)
    assert a == b
    # enumeration order: base length, shortlex (a generator before its
    # inverse), fiber
    keys = [(len(e.base.letters), [(abs(x), x < 0) for x in e.base.letters], e.fiber) for e in a]
    assert keys == sorted(keys)


def test_verify_classification_examples():
    assert verify_classification(KLEIN, ST("C2^2", KLEIN)).passed
    assert verify_classification(TORUS, ST("a1", TORUS)).passed
    assert verify_classification(NONOR3, ST("c1^2", NONOR3)).passed
    assert not VerificationOutcome(False, "x")
    # the products run over every witness
    for surface, text in ((TORUS, "a1"), (KLEIN, "c1 c2")):
        assert verify_classification(surface, ST(text, surface), SearchBound(3, 2)).passed


def test_verify_classification_reports_doctored_answers(monkeypatch):
    """Each failure branch names its fault and the first offending element
    of the box when the classifier's answer is wrong."""
    from curvespace import oracle
    from curvespace.classify import GroupDescription, Kind, classify_pi1
    from curvespace.stbundle import st_text

    cases = (
        (GENUS2, "a1", GroupDescription(Kind.FULL_ST_GROUP),
         "an element of the box fails to commute", "b1 F^3"),
        (NONOR3, "c1", GroupDescription(Kind.ORIENTATION_PRESERVING_SUBGROUP),
         "centralizer differs from the orientation-preserving box", "F^3"),
        (NONOR3, "c1", GroupDescription(Kind.Z, (ST("c2", NONOR3),)),
         "a witness product fails to commute", "C2^7"),
        (TORUS, "a1", GroupDescription(Kind.ZXZ, (ST("a1", TORUS), ST("f", TORUS))),
         "a centralizer element is not a witness product", "b1 F^3"),
        # with no witnesses the only product is the empty one, the identity,
        # so the first centralizer element, F^3, is uncovered
        (TORUS, "a1", GroupDescription(Kind.Z),
         "a centralizer element is not a witness product", "F^3"),
        (NONOR3, "c1^2", GroupDescription(Kind.KLEIN_BOTTLE_GROUP, (ST("f", NONOR3), ST("c1", NONOR3))),
         "witnesses fail the Klein-bottle relation", "c1^2 f^2"),
    )
    for surface, text, group, detail, counterexample in cases:
        xi = ST(text, surface)
        doctored = classify_pi1(surface, xi)._replace(group=group)
        monkeypatch.setattr(oracle, "classify_pi1", lambda s, x: doctored)
        outcome = verify_classification(surface, xi)
        assert outcome.passed is False, (surface, text)
        assert outcome.detail == detail
        assert st_text(outcome.counterexample) == counterexample
    # the empty product is the identity: at fiber bound 0 it covers the
    # box's first element, and a1 is the first one left uncovered
    xi = ST("a1", TORUS)
    doctored = classify_pi1(TORUS, xi)._replace(group=GroupDescription(Kind.Z))
    monkeypatch.setattr(oracle, "classify_pi1", lambda s, x: doctored)
    outcome = verify_classification(TORUS, xi, SearchBound(4, 0))
    assert outcome.detail == "a centralizer element is not a witness product"
    assert st_text(outcome.counterexample) == "a1"


def test_box_cache_keeps_at_most_sixteen_boxes():
    """A box is cached per (surface, bound), and boxes can hold millions of
    bytes, so the cache keeps only the 16 used last: after 17 distinct
    bounds it has dropped one."""
    for fiber in range(17):
        bound = SearchBound(1, fiber)
        assert len(bounded_elements(TORUS, bound)) == 5 * (2 * fiber + 1)
    assert bounded_elements.cache_info().currsize <= 16
