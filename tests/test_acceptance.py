"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import random
import time
import zlib

from curvespace import (
    CurveOnSurface,
    Polyline,
    SurfaceSpec,
    classify_pi1,
    presentation,
    st_parse,
    st_presentation,
    verify_classification,
)
from curvespace.surfaces import abelianization
from curvespace.words import word
from curvespace.stbundle import (
    base_character,
    decompose,
    st_invert,
    st_is_trivial,
    st_multiply,
    st_text,
    st_word,
)
from curvespace.flatcurves import Model, lift
from curvespace.classify import Kind, classify_pin, regular_homotopy_equivalent

SPHERE = SurfaceSpec(True, 0, 0)
TORUS = SurfaceSpec(True, 1, 0)
RP2 = SurfaceSpec(False, 1, 0)
KLEIN = SurfaceSpec(False, 2, 0)
GENUS2 = SurfaceSpec(True, 2, 0)
NONOR3 = SurfaceSpec(False, 3, 0)
PUNCTURED = SurfaceSpec(False, 2, 1)

# (surface, word, expected kind, expected case) -- at least five per case
BATTERY = [
    # sphere: always Z/2 (Thm 1)
    (SPHERE, "1", Kind.Z2, "Thm 1"),
    (SPHERE, "f", Kind.Z2, "Thm 1"),
    (SPHERE, "f^2", Kind.Z2, "Thm 1"),
    (SPHERE, "f^3", Kind.Z2, "Thm 1"),
    (SPHERE, "f^5", Kind.Z2, "Thm 1"),
    # torus: Z^3 (Thm 2)
    (TORUS, "a1", Kind.ZXZXZ, "Thm 2"),
    (TORUS, "b1", Kind.ZXZXZ, "Thm 2"),
    (TORUS, "f", Kind.ZXZXZ, "Thm 2"),
    (TORUS, "a1 b1 f^2", Kind.ZXZXZ, "Thm 2"),
    (TORUS, "A1^3 b1", Kind.ZXZXZ, "Thm 2"),
    # projective plane: Z/4 (Thm 4)
    (RP2, "1", Kind.Z4, "Thm 4"),
    (RP2, "c1", Kind.Z4, "Thm 4"),
    (RP2, "c1^2", Kind.Z4, "Thm 4"),
    (RP2, "c1^3", Kind.Z4, "Thm 4"),
    (RP2, "f", Kind.Z4, "Thm 4"),
    # Klein bottle, odd h-exponent: Z (Thm 5 II)
    (KLEIN, "c2", Kind.Z, "Thm 5 II"),
    (KLEIN, "c1", Kind.Z, "Thm 5 II"),
    (KLEIN, "c1 f^2", Kind.Z, "Thm 5 II"),
    (KLEIN, "c2^3", Kind.Z, "Thm 5 II"),
    (KLEIN, "c2 F", Kind.Z, "Thm 5 II"),
    # Klein bottle, even but not a pure power of h: Z^3 (Thm 5 I b)
    (KLEIN, "c1 c2", Kind.ZXZXZ, "Thm 5 I b"),
    (KLEIN, "f", Kind.ZXZXZ, "Thm 5 I b"),
    (KLEIN, "c1 c2 f", Kind.ZXZXZ, "Thm 5 I b"),
    (KLEIN, "c1 c2 c1 c2", Kind.ZXZXZ, "Thm 5 I b"),
    (KLEIN, "c1 C2", Kind.ZXZXZ, "Thm 5 I b"),
    # Klein bottle, pure even power of h: the whole group (Thm 5 I a)
    (KLEIN, "1", Kind.FULL_ST_GROUP, "Thm 5 I a"),
    (KLEIN, "C2^2", Kind.FULL_ST_GROUP, "Thm 5 I a"),
    (KLEIN, "c2^2", Kind.FULL_ST_GROUP, "Thm 5 I a"),
    (KLEIN, "C2^4", Kind.FULL_ST_GROUP, "Thm 5 I a"),
    (KLEIN, "c2^6", Kind.FULL_ST_GROUP, "Thm 5 I a"),
    # orientable genus 2, nontrivial base: Z^2 (Thm 3 I)
    (GENUS2, "a1", Kind.ZXZ, "Thm 3 I"),
    (GENUS2, "b2", Kind.ZXZ, "Thm 3 I"),
    (GENUS2, "a1 b1", Kind.ZXZ, "Thm 3 I"),
    (GENUS2, "a1 b1 a1 b1 f", Kind.ZXZ, "Thm 3 I"),
    (GENUS2, "a2^2 B1", Kind.ZXZ, "Thm 3 I"),
    # orientable genus 2, trivial base: the whole group (Thm 3 II)
    (GENUS2, "1", Kind.FULL_ST_GROUP, "Thm 3 II"),
    (GENUS2, "f", Kind.FULL_ST_GROUP, "Thm 3 II"),
    (GENUS2, "f^3", Kind.FULL_ST_GROUP, "Thm 3 II"),
    (GENUS2, "F^2", Kind.FULL_ST_GROUP, "Thm 3 II"),
    (GENUS2, "a1 b1 A1 B1 a2 b2 A2 B2 f^2", Kind.FULL_ST_GROUP, "Thm 3 II"),
    # nonorientable genus 3, orientation-reversing base: Z (Thm 6 I)
    (NONOR3, "c1", Kind.Z, "Thm 6 I"),
    (NONOR3, "c2 f", Kind.Z, "Thm 6 I"),
    (NONOR3, "c1^3", Kind.Z, "Thm 6 I"),
    (NONOR3, "c3 F^2", Kind.Z, "Thm 6 I"),
    (NONOR3, "c1 c2 c1", Kind.Z, "Thm 6 I"),
    # nonorientable genus 3, preserving base, Z x Z (Thm 6 II a)
    (NONOR3, "c1 c2", Kind.ZXZ, "Thm 6 II a"),
    (NONOR3, "c2 c3", Kind.ZXZ, "Thm 6 II a"),
    (NONOR3, "c1 c2 c1 c2", Kind.ZXZ, "Thm 6 II a"),
    (NONOR3, "c1 c3 f", Kind.ZXZ, "Thm 6 II a"),
    (NONOR3, "c1^2 f", Kind.ZXZ, "Thm 6 II a"),
    # nonorientable genus 3, Klein-bottle-group case (Thm 6 II b)
    (NONOR3, "c1^2", Kind.KLEIN_BOTTLE_GROUP, "Thm 6 II b"),
    (NONOR3, "c2^2", Kind.KLEIN_BOTTLE_GROUP, "Thm 6 II b"),
    (NONOR3, "c1^4", Kind.KLEIN_BOTTLE_GROUP, "Thm 6 II b"),
    (NONOR3, "c3^2", Kind.KLEIN_BOTTLE_GROUP, "Thm 6 II b"),
    (NONOR3, "c1 c2^2 C1", Kind.KLEIN_BOTTLE_GROUP, "Thm 6 II b"),
    # nonorientable genus 3, trivial base, nonzero fiber (Thm 6 III a)
    (NONOR3, "f", Kind.ORIENTATION_PRESERVING_SUBGROUP, "Thm 6 III a"),
    (NONOR3, "f^2", Kind.ORIENTATION_PRESERVING_SUBGROUP, "Thm 6 III a"),
    (NONOR3, "F", Kind.ORIENTATION_PRESERVING_SUBGROUP, "Thm 6 III a"),
    (NONOR3, "f^3", Kind.ORIENTATION_PRESERVING_SUBGROUP, "Thm 6 III a"),
    (NONOR3, "F^3", Kind.ORIENTATION_PRESERVING_SUBGROUP, "Thm 6 III a"),
    # nonorientable genus 3, trivial tangent lift (Thm 6 III b)
    (NONOR3, "1", Kind.FULL_ST_GROUP, "Thm 6 III b"),
    (NONOR3, "c1 C1", Kind.FULL_ST_GROUP, "Thm 6 III b"),
    (NONOR3, "c2 c3 C3 C2", Kind.FULL_ST_GROUP, "Thm 6 III b"),
    (NONOR3, "f F", Kind.FULL_ST_GROUP, "Thm 6 III b"),
    (NONOR3, "c1^2 c2^2 c3^2 f", Kind.FULL_ST_GROUP, "Thm 6 III b"),
]

SQUARE = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
FIGURE_EIGHT = Polyline(
    ((0, 0), (2, 1), (3, 0), (2, -1), (0, 0), (-2, 1), (-3, 0), (-2, -1))
)


def _case_count():
    counts = {}
    for _, _, kind, case in BATTERY:
        counts[(kind, case)] = counts.get((kind, case), 0) + 1
    return counts


def test_criterion_1_theorem_table():
    """Exact reproduction of the classification table, < 1 s per input."""
    for count in _case_count().values():
        assert count >= 5
    worst = 0.0
    for surface, text, kind, case in BATTERY:
        xi = st_parse(text, surface)
        start = time.perf_counter()
        report = classify_pi1(surface, xi)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert report.group.kind is kind, (surface, text, report.group.kind)
        assert report.case == case, (surface, text, report.case)
        assert elapsed < 1.0, (surface, text, elapsed)
    print(
        f"ACCEPTANCE criterion 1: PASS - {len(BATTERY)} battery inputs across "
        f"{len(_case_count())} cases, slowest classify {worst * 1000:.1f} ms"
    )


def test_criterion_2_oracle_agreement():
    """verify_classification passes on the whole battery in under 60 s."""
    start = time.perf_counter()
    for surface, text, _, _ in BATTERY:
        xi = st_parse(text, surface)
        outcome = verify_classification(surface, xi)
        assert outcome.passed, (surface, text, outcome.detail)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    print(
        f"ACCEPTANCE criterion 2: PASS - oracle verified {len(BATTERY)} "
        f"classifications in {elapsed:.1f} s"
    )


def test_criterion_3_higher_homotopy():
    for surface in (SPHERE, RP2):
        assert classify_pin(surface, 2).kind is Kind.Z
        for n in range(3, 7):
            group = classify_pin(surface, n)
            assert group.kind is Kind.SYMBOLIC_SPHERE_SUM
            assert group.label() == f"SymbolicSphereSum({n})"
        assert classify_pin(surface, 3).describe() == "Z (+) pi_4(S^2)"
        assert classify_pin(surface, 4).describe() == "pi_4(S^2) (+) pi_5(S^2)"
    for surface in (TORUS, KLEIN, GENUS2, NONOR3, PUNCTURED):
        for n in range(2, 6):
            assert classify_pin(surface, n).kind is Kind.TRIVIAL_GROUP
    print("ACCEPTANCE criterion 3: PASS - higher homotopy table exact")


def _random_element(surface, rng, maxlen, maxfib=3):
    pres = presentation(surface)
    n = len(pres.generators)
    letters = ()
    if n:
        letters = tuple(
            rng.randrange(1, n + 1) * rng.choice([1, -1])
            for _ in range(rng.randrange(maxlen + 1))
        )
    return st_word(surface, letters, rng.randrange(-maxfib, maxfib + 1))


def test_criterion_4_algebra_property_suite():
    """10^4 randomized trials per regime; zero failures allowed."""
    trials = 10_000
    regimes = (SPHERE, TORUS, RP2, KLEIN, GENUS2, NONOR3, PUNCTURED)
    seeds = {}
    for surface in regimes:
        # crc32, unlike the per-process salted str hash, replays a failure
        seed = seeds[str(surface)] = zlib.crc32(str(surface).encode())
        where = f"surface {surface}, seed {seed}"
        rng = random.Random(seed)
        pres = presentation(surface)
        n = len(pres.generators)
        decomposable = 0
        for _ in range(trials):
            a = _random_element(surface, rng, 5)
            b = _random_element(surface, rng, 5)
            c = _random_element(surface, rng, 5)
            # associativity and inverse law, field-wise on normal forms
            assert st_multiply(st_multiply(a, b), c) == st_multiply(a, st_multiply(b, c)), where
            assert st_is_trivial(st_multiply(a, st_invert(a))), where
            if n:
                # orientation character is a homomorphism
                u = word(pres, tuple(rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(rng.randrange(5))))
                v = word(pres, tuple(rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(rng.randrange(5))))
                uv = word(pres, u.letters + v.letters)
                assert pres.word_character(uv.letters) == pres.word_character(u.letters) * pres.word_character(v.letters), where
            # twist law: w f^m = f^(eps(w) m) w
            w = _random_element(surface, rng, 5, maxfib=0)
            m = rng.randrange(-3, 4)
            assert st_multiply(w, st_word(surface, (), m)) == st_multiply(
                st_word(surface, (), base_character(w) * m), w
            ), where
            # decompose round-trip wherever it is defined
            if surface not in (SPHERE, RP2):
                xi = _random_element(surface, rng, 4)
                if xi.base.letters:
                    decomposable += 1
                    dec = decompose(xi)
                    assert dec.recompose() == xi, where
        if surface not in (SPHERE, RP2):
            assert decomposable > trials // 2, where
    print(
        f"ACCEPTANCE criterion 4: PASS - {trials} randomized trials in each of "
        f"{len(regimes)} regimes, zero failures; seeds {seeds}"
    )


def test_criterion_5_presentation_sanity():
    for g in (2, 3):
        rank, torsion = abelianization(st_presentation(SurfaceSpec(True, g, 0)))
        assert rank == 2 * g and torsion == (2 * g - 2,), (g, rank, torsion)
    # element counts by closure enumeration under the group operation
    for surface, atoms, order in ((SPHERE, ("f",), 2), (RP2, ("c1", "f"), 4)):
        gens = [st_parse(a, surface) for a in atoms]
        elements = {st_parse("1", surface)}
        frontier = list(elements)
        while frontier:
            nxt = []
            for el in frontier:
                for g_ in gens:
                    for cand in (st_multiply(el, g_), st_multiply(el, st_invert(g_))):
                        if cand not in elements:
                            elements.add(cand)
                            nxt.append(cand)
            frontier = nxt
        assert len(elements) == order, (surface, len(elements))
    assert st_presentation(SPHERE).relators == ((1, 1),)
    assert st_presentation(RP2).relators == ((1, 1, 1, 1),)
    print(
        "ACCEPTANCE criterion 5: PASS - Smith normal form Z^(2g) + Z/(2g-2) "
        "for g in {2, 3}; element counts 2 and 4 by enumeration"
    )


def test_criterion_6_curve_ingestion():
    assert lift(CurveOnSurface(Model.PLANE, SQUARE), TORUS).fiber == 1
    assert lift(CurveOnSurface(Model.PLANE, Polyline(tuple(reversed(SQUARE.vertices)))), TORUS).fiber == -1
    fig8 = CurveOnSurface(Model.PLANE, FIGURE_EIGHT)
    for surface in (TORUS, NONOR3):
        el = lift(fig8, surface)
        assert st_is_trivial(el)
        assert classify_pi1(surface, el).group.kind is Kind.FULL_ST_GROUP
    geodesic = CurveOnSurface(Model.TORUS, Polyline(((0.5, 0.5), (1.2, 0.5), (1.5, 0.5))))
    el = lift(geodesic, TORUS)
    assert st_text(el) == "a1"
    assert classify_pi1(TORUS, el).group.kind is Kind.ZXZXZ
    print(
        "ACCEPTANCE criterion 6: PASS - convex polygon turns +-1, figure "
        "eight lifts trivially (full group), straight geodesic lifts to (a1, 0)"
    )


def test_criterion_7_regular_homotopy():
    fibers = {n: st_word(TORUS, (), n) for n in range(-2, 3)}
    for n1, u in fibers.items():
        for n2, v in fibers.items():
            assert regular_homotopy_equivalent(TORUS, u, v) is (n1 == n2)
    k1 = st_word(KLEIN, (), 1)
    assert regular_homotopy_equivalent(KLEIN, k1, st_word(KLEIN, (), -1)) is True
    assert regular_homotopy_equivalent(KLEIN, k1, st_word(KLEIN, (), 2)) is False
    print(
        "ACCEPTANCE criterion 7: PASS - torus fiber powers pairwise "
        "inequivalent (5x5 table); Klein bottle identifies f with f^-1 only"
    )
