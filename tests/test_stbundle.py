import random

import pytest

from curvespace import (
    TrivialWordError,
    base_character,
    decompose,
    fiber_generator,
    presentation,
    st_conjugate,
    st_identity,
    st_invert,
    st_is_conjugate,
    st_is_trivial,
    st_multiply,
    st_parse,
    st_power,
    st_text,
    st_presentation,
    st_word,
)
from curvespace.oracle import SearchBound, bounded_is_trivial
from curvespace.words import Word, klein_coordinates

from conftest import (
    GENUS2,
    KLEIN,
    NONOR3,
    PUNCTURED_NONOR,
    PUNCTURED_TORUS,
    RP2,
    SPHERE,
    TORUS,
    ST,
)


def rand_element(surface, rng, maxlen=6, maxfib=3):
    pres = presentation(surface)
    n = len(pres.generators)
    letters = []
    if n:
        letters = [
            rng.randrange(1, n + 1) * rng.choice([1, -1])
            for _ in range(rng.randrange(maxlen + 1))
        ]
    return st_word(surface, tuple(letters), rng.randrange(-maxfib, maxfib + 1))


def test_commutation_laws_klein():
    # the fiber letter stays put to the right of an orientation-reversing
    # letter, and flips when it crosses one: c1 f = f^-1 c1
    u = ST("c1 f", KLEIN)
    assert (klein_coordinates(u.base.letters), u.fiber) == ((1, 1), 1)
    v = st_multiply(ST("f", KLEIN), ST("c1", KLEIN))
    assert (klein_coordinates(v.base.letters), v.fiber) == ((1, 1), -1)
    assert v == ST("c1 F", KLEIN)


def test_sphere_residues():
    f = ST("f", SPHERE)
    assert st_text(st_multiply(f, f)) == "1"
    assert st_is_trivial(st_multiply(f, f))
    assert not st_is_trivial(f)


def test_rp2_residues():
    c = ST("c1", RP2)
    f = ST("f", RP2)
    # the fiber class is the square of the crosscap lift and has order 2
    assert st_multiply(c, c) == f
    assert st_is_trivial(st_multiply(f, f))
    assert ST("c1^3", RP2) == st_invert(c)
    assert ST("c1^2 F", RP2) == st_identity(RP2)


def test_genus2_relator_lift_with_oracle():
    pres = presentation(GENUS2)
    rel = st_word(GENUS2, pres.relators[0], 0)
    # the surface relator equals f^chi = f^-2 upstairs
    assert (rel.base.letters, rel.fiber) == ((), -2)
    assert st_is_trivial(st_word(GENUS2, pres.relators[0], 2))
    # oracle sees the same thing inside the lifted presentation
    lifted = st_presentation(GENUS2)
    f = len(lifted.generators)
    w = Word(lifted, pres.relators[0] + (f,) * 2)
    assert bounded_is_trivial(w, SearchBound(12, 4, 4)) is True


def test_torus_is_abelian():
    a, b, f = ST("a1", TORUS), ST("b1", TORUS), ST("f", TORUS)
    for u in (a, b, f):
        for v in (a, b, f):
            assert st_multiply(u, v) == st_multiply(v, u)


def test_st_conjugate_examples():
    # conjugating f by c1 inverts it (Klein)
    res = st_conjugate(ST("f", KLEIN), ST("c1", KLEIN))
    assert res == ST("F", KLEIN)
    # conjugating by the identity does nothing
    u = ST("c1 c2 f^2", KLEIN)
    assert st_conjugate(u, st_identity(KLEIN)) == u
    # torus: conjugation fixes everything
    rng = random.Random(2)
    for _ in range(50):
        u, v = rand_element(TORUS, rng), rand_element(TORUS, rng)
        assert st_conjugate(u, v) == u


def test_st_is_conjugate_examples():
    assert st_is_conjugate(ST("a1 f", TORUS), ST("a1 f", TORUS))
    assert st_is_conjugate(ST("f", KLEIN), ST("F", KLEIN))
    assert not st_is_conjugate(ST("f", KLEIN), ST("f^2", KLEIN))
    assert not st_is_conjugate(ST("f", TORUS), ST("F", TORUS))


def test_st_conjugacy_brute_agreement():
    """The closed-form/coset decisions match a brute conjugator search."""
    rng = random.Random(8)
    for surface in (KLEIN, GENUS2, NONOR3, PUNCTURED_NONOR, PUNCTURED_TORUS):
        pres = presentation(surface)
        n = len(pres.generators)
        alphabet = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        conjugators = [()]
        for _ in range(3):
            conjugators = [
                w + (a,) for w in conjugators for a in alphabet if not (w and w[-1] == -a)
            ] + conjugators
        conjugators = sorted(set(conjugators), key=len)
        for _ in range(30):
            u = rand_element(surface, rng, maxlen=3, maxfib=2)
            v = rand_element(surface, rng, maxlen=3, maxfib=2)
            brute = any(
                st_conjugate(u, st_word(surface, t, m)) == v
                for t in conjugators
                for m in range(-2, 3)
            )
            engine = st_is_conjugate(u, v)
            if brute:
                assert engine is True
            if engine is False:
                assert not brute
            # self-conjugacy sanity
            assert st_is_conjugate(u, st_conjugate(u, v)) is True


def test_constructed_conjugates_are_recognized():
    """alpha u alpha^-1 must test conjugate to u, even for conjugators far
    beyond any brute search radius."""
    rng = random.Random(602)
    for surface in (KLEIN, GENUS2, NONOR3, PUNCTURED_NONOR, PUNCTURED_TORUS):
        pres = presentation(surface)
        n = len(pres.generators)
        alphabet = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        for _ in range(60):
            u = st_word(
                surface,
                tuple(rng.choice(alphabet) for _ in range(rng.randrange(6))),
                rng.randrange(-3, 4),
            )
            alpha = st_word(
                surface,
                tuple(rng.choice(alphabet) for _ in range(rng.randrange(10))),
                rng.randrange(-4, 5),
            )
            assert st_is_conjugate(u, st_conjugate(u, alpha)) is True


def test_epsilon_twist_law():
    rng = random.Random(31)
    for surface in (TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED_NONOR):
        for _ in range(200):
            w = rand_element(surface, rng, maxfib=0)
            m = rng.randrange(-3, 4)
            fm = st_word(surface, (), m)
            lhs = st_multiply(w, fm)
            rhs = st_multiply(st_word(surface, (), base_character(w) * m), w)
            assert lhs == rhs


def test_fiber_central_iff_orientable():
    rng = random.Random(13)
    for surface in (TORUS, GENUS2, PUNCTURED_TORUS):
        f = fiber_generator(surface)
        for _ in range(100):
            u = rand_element(surface, rng)
            assert st_multiply(f, u) == st_multiply(u, f)
    for surface in (KLEIN, NONOR3, PUNCTURED_NONOR):
        f = fiber_generator(surface)
        for _ in range(150):
            u = rand_element(surface, rng)
            commutes = st_multiply(f, u) == st_multiply(u, f)
            assert commutes == (base_character(u) == +1)


def test_decompose_examples():
    dec = decompose(ST("a1^2 f^3", TORUS))
    assert st_text(dec.root_lift) == "a1" and (dec.k, dec.l) == (2, 3)

    dec = decompose(ST("c1 c2 c1 c2", KLEIN))
    assert st_text(dec.root_lift) == "c1 c2" and (dec.k, dec.l) == (2, 0)

    dec = decompose(ST("a1 b1 a1 b1 f", GENUS2))
    assert st_text(dec.root_lift) == "a1 b1" and (dec.k, dec.l) == (2, 1)


def test_decompose_roundtrip_random():
    rng = random.Random(77)
    for surface in (TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED_NONOR):
        count = 0
        while count < 120:
            xi = rand_element(surface, rng, maxlen=4)
            if xi.base.letters == ():
                continue
            count += 1
            dec = decompose(xi)
            assert dec.recompose() == xi
            assert dec.root_lift.fiber == 0


def test_decompose_errors():
    with pytest.raises(TrivialWordError):
        decompose(ST("f^2", GENUS2))
    with pytest.raises(ValueError):
        decompose(ST("f", SPHERE))


def test_inverse_and_associativity_random():
    rng = random.Random(41)
    for surface in (SPHERE, RP2, TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED_NONOR):
        for _ in range(250):
            a = rand_element(surface, rng)
            b = rand_element(surface, rng)
            c = rand_element(surface, rng)
            assert st_multiply(st_multiply(a, b), c) == st_multiply(a, st_multiply(b, c))
            assert st_is_trivial(st_multiply(a, st_invert(a)))


def test_parse_print_roundtrip():
    cases = [
        (TORUS, "a1^2 b1 f^3"),
        (TORUS, "1"),
        (KLEIN, "c1 c2 F^2"),
        (GENUS2, "a1 b1 A1 B1 f"),
        (NONOR3, "c1^2 c3 f"),
        (SPHERE, "f"),
        (RP2, "c1^3"),
    ]
    for surface, text in cases:
        u = st_parse(text, surface)
        assert st_parse(st_text(u), surface) == u
        with pytest.raises(AttributeError):
            u.fiber = 0


def test_power():
    u = ST("c1", NONOR3)
    assert st_power(u, 4) == ST("c1^4", NONOR3)
    assert st_power(u, -2) == st_invert(st_multiply(u, u))
    assert st_power(u, 0) == st_identity(NONOR3)
    # odd and negative exponents against one product per factor
    for surface, text in ((GENUS2, "a1 b2 f"), (NONOR3, "c1 c2 F^2"), (KLEIN, "c1 f")):
        v = ST(text, surface)
        for e in (1, 3, 5, 7, 13, -1, -3, -6, -11):
            ref = st_identity(surface)
            for _ in range(abs(e)):
                ref = st_multiply(ref, v if e > 0 else st_invert(v))
            assert st_power(v, e) == ref, (surface, text, e)
    # a long power: quadratic when each factor renormalized the product
    d = decompose(ST("a1^4000", GENUS2))
    assert st_text(d.root_lift) == "a1" and (d.k, d.l) == (4000, 0)
