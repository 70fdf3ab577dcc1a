import random

import pytest

from curvespace import SurfaceSpec, presentation, st_parse, st_presentation
from curvespace.surfaces import Regime, regime
from curvespace.words import (
    _ENGINES,
    TrivialWordError,
    Word,
    conjugating_element,
    invert_letters,
    klein_coordinates,
    primitive_root,
    spell_klein,
    surface_record,
    word,
)
from curvespace.stbundle import (
    STWord,
    base_character,
    decompose,
    st_conjugate,
    st_identity,
    st_invert,
    st_is_conjugate,
    st_is_trivial,
    st_multiply,
    st_power,
    st_text,
    st_word,
)
from curvespace.oracle import SearchBound, bounded_elements, bounded_is_trivial

from conftest import (
    ALL_REGIME_SAMPLES,
    GENUS2,
    GENUS3,
    KLEIN,
    NONOR3,
    PUNCTURED_NONOR,
    PUNCTURED_TORUS,
    RP2,
    SPHERE,
    TORUS,
    ST,
    inv,
    mul,
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
    for surface in (KLEIN, NONOR3):
        assert ST("f c1", surface) == ST("c1 F", surface)


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


def test_genus2_relator_lift_with_oracle(monkeypatch):
    from curvespace import oracle

    pres = presentation(GENUS2)
    rel = st_word(GENUS2, pres.relators[0], 0)
    # the surface relator equals f^chi = f^-2 upstairs
    assert (rel.base.letters, rel.fiber) == ((), -2)
    assert st_is_trivial(st_word(GENUS2, pres.relators[0], 2))
    # oracle sees the same thing inside the lifted presentation
    lifted = st_presentation(GENUS2)
    f = len(lifted.generators)
    w = Word(lifted, pres.relators[0] + (f,) * 2)
    monkeypatch.setattr(oracle, "_BFS_DEPTH", 4)
    monkeypatch.setattr(oracle, "_BFS_LETTERS", 12)
    assert bounded_is_trivial(w) is True


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
    # the finite groups compare residues
    assert not st_is_conjugate(ST("c1", RP2), ST("c1^3", RP2))
    assert st_is_conjugate(ST("c1 f", RP2), ST("c1^3", RP2))
    assert st_is_conjugate(ST("f", SPHERE), ST("F", SPHERE))
    # a reversing root with a nonzero shift: c1^2 c3^2 is the square of
    # c1^2 c2 c3^2, whose conjugation shifts the fiber by 2, so the class of
    # (w, 0) is {0, 2} and not {0, -2} or {0}
    w = ST("c1^2 c3^2", NONOR3)
    root, k = primitive_root(w.base)
    assert (str(root), k) == ("c1^2 c2 c3^2", 2)
    conjugated = surface_record(NONOR3).normalize(root.letters + w.base.letters + invert_letters(root.letters))
    assert conjugated == (w.base.letters, 2)
    assert st_is_conjugate(w, ST("c1^2 c3^2 f^2", NONOR3))
    assert not st_is_conjugate(w, ST("c1^2 c3^2 F^2", NONOR3))
    assert not st_is_conjugate(w, ST("c1^2 c3^2 f", NONOR3))


def test_st_is_conjugate_through_a_root_that_is_not_geodesic():
    """``x = C3 c1^2 c2 c3^2 C1`` reverses orientation and conjugates
    ``(x^2, 0)`` to ``(x^2, -6)``; only the root ``x`` of ``x^2``, whose
    square is shorter than twice it, shows that reflection."""
    x = ST("C3 c1^2 c2 c3^2 C1", NONOR3)
    u = st_word(NONOR3, st_power(x, 2).base.letters, 0)
    v = st_conjugate(u, x)
    assert v == st_word(NONOR3, u.base.letters, -6)
    assert st_is_conjugate(u, v)


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
        f = surface_record(surface).fiber
        for _ in range(100):
            u = rand_element(surface, rng)
            assert st_multiply(f, u) == st_multiply(u, f)
    for surface in (KLEIN, NONOR3, PUNCTURED_NONOR):
        f = surface_record(surface).fiber
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


def test_normal_forms_normalize_with_no_fiber_shift():
    """``decompose`` lifts an element's base and its root at fiber zero
    without normalizing them again.  That holds because each is its own
    normal form with no fiber shift: normal forms of random words, and the
    conjugators and roots the engines return for them, on every regime."""
    rng = random.Random(29)
    for surface in ALL_REGIME_SAMPLES:
        pres = presentation(surface)
        n = len(pres.generators)

        def random_word(length):
            return word(pres, [rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(length if n else 0)])

        for _ in range(120):
            u, t = random_word(rng.randrange(13)), random_word(rng.randrange(5))
            v = mul(mul(t, u), inv(t))
            found = [u, v, conjugating_element(u, v)]
            if u.letters and surface not in (SPHERE, RP2):
                found.append(primitive_root(u)[0])
            for w in found:
                assert surface_record(surface).normalize(w.letters) == (w.letters, 0), (surface, w.letters)


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
    # every residue of both finite groups prints as it is spelled: a power
    # of f on the sphere, of the crosscap lift on the projective plane
    finite = [(SPHERE, "1"), (SPHERE, "f"), (RP2, "1"), (RP2, "c1"), (RP2, "c1^2"), (RP2, "c1^3")]
    for surface, text in cases + finite:
        u = st_parse(text, surface)
        assert st_parse(st_text(u), surface) == u
        with pytest.raises(AttributeError):
            u.fiber = 0
    for surface, text in finite:
        assert st_text(st_parse(text, surface)) == text
    assert [st_text(st_parse(t, RP2)) for t in ("f", "c1 f", "F", "C1")] == ["c1^2", "c1^3", "c1^2", "c1^3"]
    # an element prints as its text form
    for surface in ALL_REGIME_SAMPLES:
        letters = (1, 1) if presentation(surface).generators else ()
        xi = st_word(surface, letters, 3)
        assert str(xi) == st_text(xi)


def test_power():
    u = ST("c1", NONOR3)
    assert st_power(u, 4) == ST("c1^4", NONOR3)
    assert st_power(u, -2) == st_invert(st_multiply(u, u))
    assert st_power(u, 0) == st_identity(NONOR3)
    # every exponent from -6 to 6, and some longer odd ones, against one
    # product per factor on every regime
    rng = random.Random(53)
    cases = [(GENUS2, ST("a1 b2 f", GENUS2)), (NONOR3, ST("c1 c2 F^2", NONOR3)), (KLEIN, ST("c1 f", KLEIN))]
    cases += [(s, rand_element(s, rng)) for s in ALL_REGIME_SAMPLES for _ in range(3)]
    for surface, v in cases:
        for e in (*range(-6, 7), 7, 13, -11):
            ref = st_identity(surface)
            for _ in range(abs(e)):
                ref = st_multiply(ref, v if e > 0 else st_invert(v))
            assert st_power(v, e) == ref, (surface, st_text(v), e)
    # a long power: quadratic when each factor renormalized the product
    d = decompose(ST("a1^4000", GENUS2))
    assert st_text(d.root_lift) == "a1" and (d.k, d.l) == (4000, 0)


def test_power_takes_one_product_per_squaring_and_per_extra_bit(monkeypatch):
    """``st_power(u, e)`` squares ``floor(log2 e)`` times and multiplies in
    each further set bit of ``e``: ``floor(log2 e) + popcount(e) - 1``
    products, none for ``e = 1``."""
    import curvespace.stbundle as stbundle

    calls = []

    def counted(u, v):
        calls.append(1)
        return st_multiply(u, v)

    monkeypatch.setattr(stbundle, "st_multiply", counted)
    u = ST("a1 b2 f", GENUS2)
    for e in range(1, 65):
        calls.clear()
        power = stbundle.st_power(u, e)
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        assert power.base == word(presentation(GENUS2), u.base.letters * e)


def test_st_word_checks_its_letters():
    """Letter 0 and letters past the last generator are rejected on every
    regime, as ``word`` rejects them, instead of being read as some other
    generator or failing later."""
    for surface in ALL_REGIME_SAMPLES + (GENUS3,):
        n = len(presentation(surface).generators)
        for x in (0, n + 1, -n - 1):
            with pytest.raises(ValueError, match=f"letter {x} outside the generator range"):
                st_word(surface, (1,) * n + (x,), 0)


# the surfaces whose tangent-bundle group is abelian: the sphere, the
# projective plane, the torus, the disk and the annulus
ABELIAN = (SPHERE, RP2, TORUS, SurfaceSpec(True, 0, 1), SurfaceSpec(True, 0, 2))


def _reference_is_conjugate(u, v):
    """Tangent-bundle conjugacy stated apart from the one rule of
    :func:`st_is_conjugate`: equality on the abelian groups, a closed form
    in Klein coordinates, a pure fiber case, and on free and closed
    hyperbolic surfaces the coset of the primitive root split case by case
    on the orientation characters, with three tangent-bundle products per
    fiber offset."""
    if u.surface in ABELIAN:
        return u == v
    if regime(u.surface) is Regime.KLEIN:
        (k1, l1), (k2, l2) = klein_coordinates(u.base.letters), klein_coordinates(v.base.letters)
        m1, m2 = u.fiber, v.fiber
        if l1 != l2:
            return False
        if l1 % 2 == 0:
            return (k2, m2) in ((k1, m1), (-k1, -m1))
        return (k2 - k1) % 2 == 0 and (m2 - m1) % 2 == 0
    ub, vb = u.base.letters, v.base.letters
    if (not ub) != (not vb):
        return False
    if not ub:
        # pure fiber powers: conjugation can only flip the exponent, and a
        # flip needs an orientation-reversing element downstairs
        has_reversing = any(g.character < 0 for g in u.base.ambient.generators)
        return u.fiber == v.fiber or (has_reversing and u.fiber == -v.fiber)
    pres = u.base.ambient
    v0 = conjugating_element(u.base, v.base)
    if v0 is None:
        return False
    rho, _ = primitive_root(u.base)
    w0 = STWord(u.surface, u.base, 0)
    conj_v0 = st_conjugate(w0, STWord(u.surface, v0, 0))
    conj_rho = st_conjugate(w0, STWord(u.surface, rho, 0))
    assert conj_v0.base == v.base and conj_rho.base == u.base
    d0, c_rho = conj_v0.fiber, conj_rho.fiber
    eps_v0 = pres.word_character(v0.letters)
    eps_rho = pres.word_character(rho.letters)
    m, mp = u.fiber, v.fiber
    # conjugating (w, m) by (v0 rho^j, n) gives fiber
    #   eps(v0) * conj_rho^j(m + n (eps(w) - 1)) + d0
    # with conj_rho(x) = eps(rho) x + c_rho
    if base_character(u) == +1:
        if eps_rho == +1:
            diff = mp - d0 - eps_v0 * m
            return diff == 0 if c_rho == 0 else diff % c_rho == 0
        return mp in (d0 + eps_v0 * m, d0 + eps_v0 * (c_rho - m))
    # eps(w) == -1 forces eps(rho) == -1; f^n contributes any even shift
    return (mp - d0 - eps_v0 * m) % 2 == 0 or (mp - d0 - eps_v0 * (c_rho - m)) % 2 == 0


def test_one_conjugacy_rule_matches_the_case_split():
    """The rule from the base conjugator and the base centralizer answers as
    the per-regime case split did, on constructed conjugates (of elements
    and of their powers) at several fiber offsets, pure fiber powers and
    unrelated pairs; on the abelian groups it answers equality, on every
    pair of a small box."""
    rng = random.Random(1515)
    for text in (
        "nonorientable:2:0", "orientable:2:0", "nonorientable:3:0", "nonorientable:4:0",
        "orientable:1:2", "nonorientable:2:1", "nonorientable:3:2",
    ):
        surface = SurfaceSpec.parse(text)
        verdicts = set()
        for trial in range(40):
            u = rand_element(surface, rng, maxlen=7)
            if trial % 8 == 0:
                u = st_word(surface, (), u.fiber)
            base = st_power(u, rng.choice((1, 1, 2, -3)))
            pairs = [(u, rand_element(surface, rng, maxlen=7)), (u, st_word(surface, (), -u.fiber))]
            t = rand_element(surface, rng, maxlen=8)
            for offset in (0, 1, -1, 2, -2, 3):
                pairs.append((base, st_multiply(st_conjugate(base, t), st_word(surface, (), offset))))
            for a, b in pairs:
                verdict = st_is_conjugate(a, b)
                assert verdict == _reference_is_conjugate(a, b), (text, st_text(a), st_text(b))
                verdicts.add(verdict)
        assert verdicts == {True, False}, text
    for surface in ABELIAN:
        box = bounded_elements(surface, SearchBound(3, 2))
        verdicts = {(a, b): st_is_conjugate(a, b) for a in box for b in box}
        assert verdicts == {(a, b): a == b for a in box for b in box}, surface


def test_primitive_root_commutes_with_its_element():
    rng = random.Random(33)
    for surface in (TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED_TORUS, PUNCTURED_NONOR):
        pres = presentation(surface)
        n = len(pres.generators)
        elements = []
        for _ in range(60):
            letters = [rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 9))]
            elements.append(word(pres, letters))
        if surface == KLEIN:
            elements += [word(pres, spell_klein(k, l)) for k in range(-3, 4) for l in range(-4, 5)]
        for w in elements:
            if not w.letters:
                continue
            r, k = primitive_root(w)
            assert mul(r, w) == mul(w, r), (surface, str(w), str(r))
            assert word(pres, r.letters * k) == w, (surface, str(w), str(r), k)
    for surface in (SPHERE, RP2):
        assert surface_record(surface).engine.root is None


def test_only_a_reversing_root_shifts_the_fiber():
    """What :func:`st_is_conjugate` reads off the primitive root ``r`` of
    ``w``: on every infinite regime whose tangent-bundle group is not
    abelian, normalizing ``r w r^-1`` shifts the fiber by 0 when ``r``
    preserves orientation (``r`` commutes with ``f`` and with the lift of
    its power ``w``), and normalizing ``z w z^-1`` shifts by 0 for every
    generator ``z`` at ``w = 1``.  Where ``w`` itself reverses orientation,
    the shift of ``r w r^-1`` is even (``w = r^e`` with ``e`` odd and ``d_w =
    0``), so the rule decides such a ``w`` without the root.  Powers of
    random words give roots with exponents above 1."""
    rng = random.Random(16)
    nonorientable_4 = SurfaceSpec.parse("nonorientable:4:0")
    for surface in (KLEIN, GENUS2, NONOR3, nonorientable_4, PUNCTURED_TORUS, PUNCTURED_NONOR):
        pres = presentation(surface)
        n = len(pres.generators)
        for z in range(-n, n + 1):
            if z:
                assert surface_record(surface).normalize((z, -z)) == ((), 0), (surface, z)
        preserving = reversing = 0
        for _ in range(80):
            letters = [rng.randrange(1, n + 1) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 7))]
            for e in (1, 2, 3):
                w = word(pres, letters * e)
                if not w.letters:
                    continue
                r = primitive_root(w)[0].letters
                conjugated = surface_record(surface).normalize(r + w.letters + invert_letters(r))
                if pres.word_character(r) > 0:
                    preserving += 1
                    assert conjugated == (w.letters, 0), (surface, str(w))
                elif pres.word_character(w.letters) < 0:
                    reversing += 1
                    assert conjugated[0] == w.letters and conjugated[1] % 2 == 0, (surface, str(w))
        assert preserving, surface
        assert reversing or surface.orientable, surface


def test_the_root_is_asked_only_where_it_can_change_the_verdict(monkeypatch):
    """With an engine whose root raises, the rule still answers every pair
    whose base reverses orientation, every pair on an orientable surface and
    every conjugate pair at fiber offset 0 whose base's centralizer
    preserves orientation (its primitive root does), as it does with the
    root.  Where the centralizer holds a reversing element, a conjugate at
    offset 0 may need it: the shifted fiber is then ``d_r - m``."""
    from curvespace import stbundle

    rng = random.Random(23)
    nonorientable_4 = SurfaceSpec.parse("nonorientable:4:0")
    cases = []
    for surface in ABELIAN + (KLEIN, GENUS2, NONOR3, nonorientable_4, PUNCTURED_TORUS, PUNCTURED_NONOR):
        for _ in range(40):
            u = rand_element(surface, rng, maxlen=7)
            t = rand_element(surface, rng, maxlen=8)
            for w in (u, st_power(u, 2)):
                conjugate = st_conjugate(w, t)
                if surface.orientable or base_character(w) < 0:
                    cases += [
                        (w, conjugate),
                        (w, st_multiply(conjugate, st_word(surface, (), 1))),
                        (w, rand_element(surface, rng, maxlen=7)),
                    ]
                elif w.base.letters and w.base.ambient.word_character(primitive_root(w.base)[0].letters) > 0:
                    cases.append((w, conjugate))
    verdicts = [st_is_conjugate(u, v) for u, v in cases]
    assert set(verdicts) == {True, False}

    def no_root(rec, letters):
        raise AssertionError("the rule asked for the primitive root")

    real = stbundle.surface_record
    monkeypatch.setattr(
        stbundle, "surface_record", lambda s: real(s)._replace(engine=real(s).engine._replace(root=no_root))
    )
    assert [st_is_conjugate(u, v) for u, v in cases] == verdicts
    # a preserving base whose shifted fiber differs still asks
    with pytest.raises(AssertionError, match="asked for the primitive root"):
        st_is_conjugate(ST("c1^2 c3^2", NONOR3), ST("c1^2 c3^2 f^2", NONOR3))


def test_projective_plane_normalizes_with_the_fiber_shift():
    """``c1^2`` is the fiber class upstairs, so ``c1^e`` normalizes to
    ``c1^(e mod 2)`` with fiber shift ``e // 2``, and ``c1^k f^m`` is the
    residue ``k + 2 m`` mod 4."""
    pres = presentation(RP2)
    for e in range(-7, 8):
        letters = (1,) * e if e >= 0 else (-1,) * -e
        assert surface_record(RP2).normalize(letters) == (((1,) if e % 2 else ()), e // 2)
    for k in range(-5, 6):
        for m in range(-3, 4):
            letters = (1,) * k if k >= 0 else (-1,) * -k
            assert st_word(RP2, letters, m).residue == (k + 2 * m) % 4


# a surface of every regime, with the largest surfaces under the generator cap
RECORD_SURFACES = tuple(
    SurfaceSpec.parse(text)
    for text in (
        "orientable:0:0",
        "nonorientable:1:0",
        "orientable:1:0",
        "nonorientable:2:0",
        "orientable:0:1",
        "orientable:1:2",
        "nonorientable:2:1",
        "orientable:2:0",
        "nonorientable:3:0",
        "orientable:32:0",
        "nonorientable:64:0",
    )
)


def test_surface_record_agrees_with_the_regime():
    """The record resolves a surface as :func:`regime` does: its engine is
    the regime's, the group is finite exactly where the tangent-bundle
    presentation is ``<f | f^n>``, of order ``n``,
    each cached lift is the generator's lift normalized afresh, and on the
    projective plane each residue's character is that of the crosscap
    power it spells."""
    assert {regime(s) for s in RECORD_SURFACES} == set(Regime)
    for surface in RECORD_SURFACES:
        rec = surface_record(surface)
        pres = presentation(surface)
        assert rec.regime is regime(surface) and rec.engine is _ENGINES[regime(surface)], surface
        assert rec.presentation == pres and rec.names == pres.names() + ("f",), surface
        st = st_presentation(surface)
        finite = st.names() == ("f",) and st.relators
        assert rec.order == (len(st.relators[0]) if finite else None), surface
        assert len(rec.lifts) == len(pres.generators), surface
        for i in range(1, len(pres.generators) + 1):
            assert rec.lifts[i - 1] == st_word(surface, (i,), 0), (surface, i)
        assert rec.fiber == st_word(surface, (), 1), surface
    for r in range(4):
        element = st_word(RP2, (1,) * r, 0)
        assert element.residue == r
        assert base_character(element) == presentation(RP2).word_character((1,) * r)


def test_no_regime_lookup_after_a_surface_is_first_used(monkeypatch):
    """Once a surface has been used, the element operations read its record
    and never ask :func:`regime` again, on any regime."""
    import curvespace

    elements = []
    for surface in ALL_REGIME_SAMPLES:
        n = len(presentation(surface).generators)
        letters = tuple(range(1, n + 1)) + (-1,) * min(n, 1)
        elements.append((surface, letters, st_word(surface, letters, 1)))
    calls = []

    def counting_regime(spec):
        calls.append(spec)
        return regime(spec)

    for name in ("surfaces", "words", "stbundle", "classify", "oracle", "flatcurves"):
        module = getattr(curvespace, name)
        if hasattr(module, "regime"):
            monkeypatch.setattr(module, "regime", counting_regime)
    for surface, letters, u in elements:
        v = st_word(surface, letters, -2)
        st_invert(st_multiply(u, v))
        st_text(u)
        base_character(v)
        surface_record(surface).normalize(letters)
        st_parse(st_text(u), surface)
        surface_record(surface).fiber
    assert calls == []
