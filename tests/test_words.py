import random

import pytest

from curvespace import (
    AmbientMismatchError,
    TrivialWordError,
    conjugating_element,
    invert,
    is_conjugate,
    is_trivial,
    multiply,
    orientation_character,
    parse_word,
    presentation,
    primitive_root,
    st_presentation,
    word_text,
)
from curvespace.classify import KLEIN_BOTTLE_PRESENTATION
from curvespace.oracle import SearchBound, bounded_is_trivial
from curvespace.stbundle import st_parse, st_text, st_word
from curvespace.words import (
    Word,
    _dehn_shorten,
    _dehn_tables,
    free_reduce,
    invert_letters,
    klein_coordinates,
    parse_letters,
    spell_klein,
    word,
)

from conftest import GENUS2, KLEIN, NONOR3, PUNCTURED_TORUS, RP2, TORUS, W


def test_multiply_and_invert_basics():
    u = W("a1", TORUS)
    assert multiply(u, invert(u)).letters == ()
    assert word_text(multiply(W("a1 b1", GENUS2), W("B1", GENUS2))) == "a1"
    assert len(W("a1 b1 a2", GENUS2)) == 3
    with pytest.raises(AmbientMismatchError):
        multiply(W("a1", TORUS), W("a1", GENUS2))


def test_relator_is_trivial_with_oracle():
    pres = presentation(GENUS2)
    relator = word(pres, pres.relators[0])
    assert is_trivial(word(pres, pres.relators[0]))
    assert bounded_is_trivial(relator) is True
    conjugated = word(pres, free_reduce((1,) + pres.relators[0] + (-1,)))
    assert is_trivial(conjugated)
    assert bounded_is_trivial(conjugated) is True


def test_words_need_a_surface_presentation():
    """Words over a tangent-bundle or a surface-less presentation are
    rejected, not normalized by the engine of the underlying surface."""
    cases = (
        (st_presentation(TORUS), (3, 1)),  # f a1, where f is not b1
        (st_presentation(GENUS2), (5, 1, 5)),  # f a1 f
        (KLEIN_BOTTLE_PRESENTATION, (1, 2, -1, 2)),  # its own relator
    )
    for pres, letters in cases:
        u = Word(pres, letters)
        for call in (lambda: word(pres, letters), lambda: multiply(u, u), lambda: is_trivial(u)):
            with pytest.raises(ValueError, match="stbundle|surface presentation"):
                call()


def test_is_trivial_basics():
    assert is_trivial(W("1", TORUS))
    assert not is_trivial(W("a1", TORUS))
    assert is_trivial(W("a1 A1", PUNCTURED_TORUS))
    assert is_trivial(W("c1^2", RP2))
    assert not is_trivial(W("c1", RP2))
    # Klein: c1^2 c2^2 is the relator
    assert is_trivial(W("c1^2 c2^2", KLEIN))
    assert not is_trivial(W("c1^2", KLEIN))


def test_orientation_character():
    assert orientation_character(W("1", KLEIN)) == +1
    assert orientation_character(W("c1", KLEIN)) == -1
    assert orientation_character(W("c1 c2", KLEIN)) == +1
    assert orientation_character(W("c1 c2 c3", NONOR3)) == -1
    assert orientation_character(W("a1 b1", GENUS2)) == +1


def test_character_is_homomorphism():
    rng = random.Random(11)
    pres = presentation(NONOR3)
    for _ in range(200):
        lu = tuple(rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randrange(6)))
        lv = tuple(rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randrange(6)))
        u, v = word(pres, lu), word(pres, lv)
        assert orientation_character(multiply(u, v)) == orientation_character(
            u
        ) * orientation_character(v)


def test_conjugacy_basics():
    assert is_conjugate(W("a1 b1", GENUS2), W("b1 a1", GENUS2))
    assert is_conjugate(W("a1 b1 a2", GENUS2), W("a2 a1 b1", GENUS2))
    assert is_conjugate(W("b1 a1 B1", GENUS2), W("a1", GENUS2))
    assert not is_conjugate(W("a1", TORUS), W("b1", TORUS))
    u, v = W("a1", GENUS2), W("B1 a1 b1", GENUS2)
    assert is_conjugate(u, v)
    t = conjugating_element(u, v)
    # t u t^-1 == v, checked through the engine and the oracle
    lhs = multiply(multiply(t, u), invert(t))
    assert lhs.letters == v.letters
    assert bounded_is_trivial(multiply(lhs, invert(v))) is True


def test_conjugacy_oracle_search_small():
    """Brute-force conjugator search agrees with the engine on genus 2."""
    pres = presentation(GENUS2)
    rng = random.Random(5)
    alphabet = [1, 2, 3, 4, -1, -2, -3, -4]
    candidates = [()]
    for _ in range(3):
        candidates = [w + (a,) for w in candidates for a in alphabet if not (w and w[-1] == -a)] + candidates
    candidates = sorted(set(candidates), key=len)
    for _ in range(25):
        lu = tuple(rng.choice(alphabet) for _ in range(rng.randrange(4)))
        lv = tuple(rng.choice(alphabet) for _ in range(rng.randrange(4)))
        u, v = word(pres, lu), word(pres, lv)
        brute = any(
            multiply(multiply(word(pres, t), u), invert(word(pres, t))).letters == v.letters
            for t in candidates
        )
        engine = is_conjugate(u, v)
        # the brute search is only a lower bound at this depth
        if brute:
            assert engine
        if not engine:
            assert not brute


def test_klein_conjugacy_closed_form():
    pres = presentation(KLEIN)
    # odd h-exponent: the g-exponent can shift by 2 (conjugation by g) but
    # its parity is invariant
    h_inv = W("c2", KLEIN)  # coordinates (0, -1)
    assert is_conjugate(h_inv, word(pres, spell_klein(2, -1)))
    assert not is_conjugate(h_inv, word(pres, spell_klein(1, -1)))
    # h g h^-1 = g^-1
    g = W("c1 c2", KLEIN)
    assert is_conjugate(g, invert(g))
    assert not is_conjugate(g, multiply(g, g))


def test_primitive_root_free():
    u = W("a1 b1 a1 b1", PUNCTURED_TORUS)
    root, k = primitive_root(u)
    assert word_text(root) == "a1 b1" and k == 2
    root, k = primitive_root(W("a1", PUNCTURED_TORUS))
    assert word_text(root) == "a1" and k == 1
    # conjugated powers: a1 b1^3 a1^-1 = (a1 b1 a1^-1)^3
    u = W("a1 b1^3 A1", PUNCTURED_TORUS)
    root, k = primitive_root(u)
    assert k == 3 and word_text(root) == "a1 b1 A1"


def test_primitive_root_torus():
    root, k = primitive_root(W("a1^4 b1^2", TORUS))
    assert word_text(root) == "a1^2 b1" and k == 2
    root, k = primitive_root(W("A1^3", TORUS))
    assert word_text(root) == "A1" and k == 3


def test_primitive_root_klein():
    # odd h-exponent: (g^k h)^n
    u = word(presentation(KLEIN), spell_klein(2, 3))
    root, k = primitive_root(u)
    assert klein_coordinates(root.letters) == (2, 1) and k == 3
    # even h-exponent with nonzero g-exponent: gcd in the abelian part
    u = word(presentation(KLEIN), spell_klein(4, 4))
    root, k = primitive_root(u)
    assert klein_coordinates(root.letters) == (2, 2) and k == 2
    # pure even power of h: conventional root h
    u = word(presentation(KLEIN), spell_klein(0, 4))
    root, k = primitive_root(u)
    assert klein_coordinates(root.letters) == (0, 1) and k == 4


def test_primitive_root_genus2_with_oracle():
    u = W("a1 b1 A1 a1 b1 A1", GENUS2)  # (a1 b1 a1^-1)^2 spelled reduced
    root, k = primitive_root(u)
    assert k == 2
    assert is_trivial(multiply(multiply(root, root), invert(u)))
    # oracle: no root of exponent >= 3 among short words
    pres = presentation(GENUS2)
    alphabet = [1, 2, 3, 4, -1, -2, -3, -4]
    shorts = [()]
    for _ in range(3):
        shorts = [w + (a,) for w in shorts for a in alphabet if not (w and w[-1] == -a)] + shorts
    for letters in set(shorts):
        cand = word(pres, letters)
        if not cand.letters:
            continue
        cube = multiply(multiply(cand, cand), cand)
        assert not is_trivial(multiply(cube, invert(u)))


def test_primitive_root_errors():
    with pytest.raises(TrivialWordError):
        primitive_root(W("1", TORUS))
    with pytest.raises(ValueError):
        primitive_root(W("c1", RP2))


def test_primitive_root_on_constructed_powers():
    """u = r^k must come back with exponent at least k (hidden larger roots
    are allowed when r itself is a power)."""
    rng = random.Random(29)
    for surface in (GENUS2, NONOR3):
        pres = presentation(surface)
        n = len(pres.generators)
        alphabet = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        done = 0
        while done < 80:
            r = word(pres, tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 4))))
            if not r.letters:
                continue
            k = rng.randrange(2, 5)
            u = word(pres, r.letters * k)
            if not u.letters:
                continue
            done += 1
            root, e = primitive_root(u)
            assert e >= k and e % k == 0, (surface, r.letters, k, e)
            assert word(pres, root.letters * e).letters == u.letters


def test_primitive_root_is_primitive():
    rng = random.Random(23)
    pres = presentation(GENUS2)
    alphabet = [1, 2, 3, 4, -1, -2, -3, -4]
    for _ in range(60):
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
        u = word(pres, letters)
        if not u.letters:
            continue
        root, k = primitive_root(u)
        again, k2 = primitive_root(root)
        assert k2 == 1 and again.letters == root.letters


def test_normal_form_laws_random():
    rng = random.Random(97)
    for surface in (TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED_TORUS):
        pres = presentation(surface)
        n = len(pres.generators)
        alphabet = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        for _ in range(400):
            ws = []
            for _ in range(3):
                letters = tuple(rng.choice(alphabet) for _ in range(rng.randrange(7)))
                ws.append(word(pres, letters))
            a, b, c = ws
            assert multiply(multiply(a, b), c).letters == multiply(a, multiply(b, c)).letters
            assert multiply(a, invert(a)).letters == ()


def test_parse_and_spell_roundtrip():
    for text in ("a1 b1^3 A1^2", "1", "B1", "a1^-2"):
        u = parse_word(text, presentation(GENUS2))
        again = parse_word(word_text(u), presentation(GENUS2))
        assert u.letters == again.letters


def test_is_trivial_oracle_agreement_sweep():
    """Engine vs relator-insertion BFS over genus-2 words: exhaustive on
    short words, randomized up to length 8.  'Undecided' counts as agreement
    only against an engine 'nontrivial'."""
    import itertools

    pres = presentation(GENUS2)
    bound = SearchBound(max_word_length=8, max_fiber=4, max_depth=2)
    alphabet = [1, 2, 3, 4, -1, -2, -3, -4]

    def check(letters):
        w = word(pres, free_reduce(letters))
        engine = is_trivial(w)
        orac = bounded_is_trivial(w, bound)
        if engine:
            assert orac is True, letters
        else:
            assert orac is not True, letters

    for n in range(0, 4):
        for letters in itertools.product(alphabet, repeat=n):
            check(letters)
    rng = random.Random(19)
    for _ in range(80):
        check(tuple(rng.choice(alphabet) for _ in range(rng.randrange(4, 9))))
    # trivial-by-construction words up to length 8: conjugated relator pieces
    relator = pres.relators[0]
    for conj in ((), (1,), (2, 3)):
        letters = conj + relator + tuple(-x for x in reversed(conj))
        check(letters)


def test_dehn_pass_resumes_after_deep_cancellation():
    """Removing the relator copy ``b2 A2 B2 a1 b1 A1 B1 a2`` sets off the
    cancellation of ``b2^12`` against ``B2^12``, which exposes the left-hand
    side ``a1 b1 A1 B1 a2`` 15 letters left of the removed copy.  The Dehn
    pass must rewrite it too: one that resumed only L = 8 letters back
    would hand ``a1 b1 A1 B1 a2`` with fiber -2 to the swap phase."""
    text = "a1 b1 A1 b2^13 A2 B2 a1 b1 A1 B1 a2 B2^12 B1 a2"
    assert st_text(st_parse(text, GENUS2)) == "b2 a2 B2 F^4"
    rules, _, sign = _dehn_tables(GENUS2)
    letters = parse_letters(text, presentation(GENUS2).names())
    assert _dehn_shorten(free_reduce(letters), rules, 8, sign) == (W("b2 a2 B2", GENUS2).letters, -4)


def test_dehn_pass_leaves_no_shortening():
    """No window of the pass's output is a rule left-hand side, on words
    built from relator pieces so that rewrites cascade."""
    rng = random.Random(41)
    for surface in (GENUS2, NONOR3):
        pres = presentation(surface)
        rules, _, sign = _dehn_tables(surface)
        relator = pres.relators[0]
        L = len(relator)
        pieces = [relator, invert_letters(relator)]
        pieces = [p[r:] + p[:r] for p in pieces for r in range(L)]
        for _ in range(300):
            letters = ()
            for _ in range(rng.randrange(1, 12)):
                piece = rng.choice(pieces)
                letters += piece[: rng.randrange(1, L + 1)]
            w, _ = _dehn_shorten(free_reduce(letters), rules, L, sign)
            assert w == free_reduce(w)
            for i in range(len(w)):
                for size in range(L // 2 + 1, L + 1):
                    assert i + size > len(w) or w[i : i + size] not in rules, (surface, letters)


def test_dehn_pass_on_a_long_word_with_relator_copies():
    """``a1^n`` followed by n/10 relator copies: every copy is removed and
    lifts to ``f^chi``; at this length a quadratic pass takes minutes."""
    n = 20_000
    pres = presentation(GENUS2)
    u = st_word(GENUS2, (1,) * n + pres.relators[0] * (n // 10), 0)
    assert u.base.letters == (1,) * n
    assert u.fiber == -2 * (n // 10)
