import pytest

from curvespace import SearchBound, presentation, st_parse, verify_classification
from curvespace.words import Word, word
from curvespace.stbundle import st_invert, st_multiply, st_power
from curvespace.oracle import (
    UNDECIDED,
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


def test_bounded_is_trivial_undecided_vs_certificate():
    pres = presentation(NONOR3)
    # c1^2 c2^2 c3^2 is the relator: trivial, found by one deletion
    assert bounded_is_trivial(Word(pres, pres.relators[0]), SearchBound(8, 4, 1)) is True
    # (1,1,0) is not a multiple of (2,2,2): certificate gives a definite no
    assert bounded_is_trivial(Word(pres, (1, 2)), SearchBound(6, 4, 1)) is False
    # the commutator [c1, c2] is abelian-invisible but nontrivial (c1 and c2
    # generate a free subgroup): small bounds answer undecided, never False
    verdict = bounded_is_trivial(Word(pres, (1, 2, -1, -2)), SearchBound(6, 4, 1))
    assert verdict is UNDECIDED
    with pytest.raises(ValueError, match="bounds must be positive"):
        SearchBound(0, 1, 1)


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
            assert _box_candidates(generators, SearchBound(length, 2, 1)) == 5 * walked
    huge = _box_candidates(64, SearchBound(10**9, 3, 1))
    assert _MAX_ENUMERATION < huge < 200 * _MAX_ENUMERATION


def test_sphere_centralizer_is_everything():
    for text in ("1", "f"):
        cent = bounded_centralizer(SPHERE, ST(text, SPHERE))
        assert len(cent) == 2


def test_torus_centralizer_is_the_box():
    bound = SearchBound(3, 2, 4)
    xi = ST("a1 b1 f", TORUS)
    cent = bounded_centralizer(TORUS, xi, bound)
    assert set(cent) == set(bounded_elements(TORUS, bound))


def test_klein_centralizer_of_odd_element():
    """For g h the centralizer is exactly the powers of g h in the box."""
    bound = SearchBound(4, 3, 4)
    xi = ST("c1", KLEIN)  # c1 = g h in the semidirect coordinates
    cent = set(bounded_centralizer(KLEIN, xi, bound))
    powers = set()
    for e in range(-8, 9):
        p = st_power(xi, e)
        if len(p.base.letters) <= bound.max_word_length and abs(p.fiber) <= bound.max_fiber:
            powers.add(p)
    assert cent == powers


def test_centralizer_contains_identity_inverse_and_self():
    bound = SearchBound(3, 2, 4)
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
    bound = SearchBound(3, 2, 4)
    for surface, text in ((KLEIN, "c1"), (KLEIN, "c2 f^2"), (NONOR3, "c1"), (NONOR3, "c1 c2 c3 F")):
        xi = ST(text, surface)
        reference = tuple(
            el for el in bounded_elements(surface, bound) if st_multiply(el, xi) == st_multiply(xi, el)
        )
        assert bounded_centralizer(surface, xi, bound) == reference, (surface, text)


def test_centralizer_order_is_deterministic():
    bound = SearchBound(3, 2, 4)
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
    # the products run over every witness, whatever the BFS depth
    for surface, text in ((TORUS, "a1"), (KLEIN, "c1 c2")):
        assert verify_classification(surface, ST(text, surface), SearchBound(3, 2, 1)).passed


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
