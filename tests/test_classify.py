import pytest

from curvespace import SurfaceSpec, classify_pi1, st_parse, verify_classification
from curvespace.words import klein_coordinates
from curvespace.stbundle import st_is_trivial, st_multiply, st_power, st_text
from curvespace.classify import _DESCRIPTIONS, GroupDescription, Kind, classify_pin, regular_homotopy_equivalent

from conftest import GENUS2, GENUS3, KLEIN, NONOR3, RP2, SPHERE, TORUS, ST


def kind_of(surface, text):
    return classify_pi1(surface, st_parse(text, surface)).group.kind


def test_sphere_always_z2():
    for text in ("1", "f"):
        report = classify_pi1(SPHERE, ST(text, SPHERE))
        assert report.group.kind is Kind.Z2
        assert report.case == "Thm 1"


def test_rp2_always_z4():
    for text in ("1", "c1", "c1^2", "f", "c1^3"):
        report = classify_pi1(RP2, ST(text, RP2))
        assert report.group.kind is Kind.Z4
        assert report.case == "Thm 4"


def test_torus_nontrivial_is_z3():
    for text in ("a1", "b1", "f", "a1 b1 f^2", "A1^3"):
        report = classify_pi1(TORUS, ST(text, TORUS))
        assert report.group.kind is Kind.ZXZXZ
        assert report.case == "Thm 2"
        assert [st_text(w) for w in report.group.witnesses] == ["a1", "b1", "f"]


def test_torus_trivial_lift_is_full_group():
    report = classify_pi1(TORUS, ST("1", TORUS))
    assert report.group.kind is Kind.FULL_ST_GROUP
    assert report.case == "Thm 2"


def test_klein_cases():
    # odd h-exponent: Z, generated by g^k h f^m with the same k and m
    report = classify_pi1(KLEIN, ST("c1 f^2", KLEIN))
    assert report.group.kind is Kind.Z and report.case == "Thm 5 II"
    (alpha,) = report.group.witnesses
    assert klein_coordinates(alpha.base.letters) == (1, 1) and alpha.fiber == 2
    # even, not a pure even power of h: Z^3
    assert kind_of(KLEIN, "c1 c2") is Kind.ZXZXZ
    assert kind_of(KLEIN, "f") is Kind.ZXZXZ
    # pure even powers of h (including the identity): the whole group
    assert kind_of(KLEIN, "C2^2") is Kind.FULL_ST_GROUP
    assert kind_of(KLEIN, "1") is Kind.FULL_ST_GROUP
    assert classify_pi1(KLEIN, ST("C2^2", KLEIN)).case == "Thm 5 I a"
    assert classify_pi1(KLEIN, ST("c1 c2", KLEIN)).case == "Thm 5 I b"


def test_klein_alpha_identities():
    """Whenever the Z case fires: alpha^2 = h^2 and xi = alpha^(2l+1)."""
    h_squared = st_parse("C2^2", KLEIN)
    for text in ("c2", "c1", "c1 f", "c2^3 f^2", "c1 c2 c1"):
        xi = st_parse(text, KLEIN)
        report = classify_pi1(KLEIN, xi)
        if report.group.kind is not Kind.Z:
            continue
        (alpha,) = report.group.witnesses
        assert st_multiply(alpha, alpha) == h_squared
        _, l = klein_coordinates(xi.base.letters)
        assert st_power(alpha, l) == xi


def test_orientable_hyperbolic():
    report = classify_pi1(GENUS2, ST("a1", GENUS2))
    assert report.group.kind is Kind.ZXZ and report.case == "Thm 3 I"
    assert report.decomposition == (1, 0)
    report = classify_pi1(GENUS2, ST("f^3", GENUS2))
    assert report.group.kind is Kind.FULL_ST_GROUP and report.case == "Thm 3 II"
    # genus 3 behaves the same way
    assert kind_of(GENUS3, "a2 b3") is Kind.ZXZ
    assert kind_of(GENUS3, "1") is Kind.FULL_ST_GROUP


def test_punctured_orientable_follows_thm3():
    disk = SurfaceSpec(True, 0, 1)
    assert kind_of(disk, "f^2") is Kind.FULL_ST_GROUP
    punct_torus = SurfaceSpec(True, 1, 1)
    assert kind_of(punct_torus, "a1") is Kind.ZXZ


def test_moebius_band():
    """Punctured projective plane: infinite cyclic, orientation-reversing
    core; the squared core has the whole Klein-bottle group around it."""
    moebius = SurfaceSpec(False, 1, 1)
    report = classify_pi1(moebius, st_parse("c1", moebius))
    assert report.group.kind is Kind.Z and report.case == "Thm 6 I"
    report = classify_pi1(moebius, st_parse("c1^2", moebius))
    assert report.group.kind is Kind.KLEIN_BOTTLE_GROUP
    assert verify_classification(moebius, st_parse("c1^2", moebius)).passed


def test_nonorientable_cases():
    # I: orientation-reversing base
    report = classify_pi1(NONOR3, ST("c1", NONOR3))
    assert report.group.kind is Kind.Z and report.case == "Thm 6 I"
    # II a with orientation-preserving root
    report = classify_pi1(NONOR3, ST("c1 c2", NONOR3))
    assert report.group.kind is Kind.ZXZ and report.case == "Thm 6 II a"
    # II a with reversing root and nonzero fiber: witnesses are root^2, f
    report = classify_pi1(NONOR3, ST("c1^2 f", NONOR3))
    assert report.group.kind is Kind.ZXZ and report.case == "Thm 6 II a"
    assert st_text(report.group.witnesses[0]) == "c1^2"
    # II b: reversing root, even power, zero fiber: Klein bottle group
    report = classify_pi1(NONOR3, ST("c1^2", NONOR3))
    assert report.group.kind is Kind.KLEIN_BOTTLE_GROUP and report.case == "Thm 6 II b"
    assert [st_text(w) for w in report.group.witnesses] == ["c1", "f"]
    # III a / III b
    report = classify_pi1(NONOR3, ST("f", NONOR3))
    assert report.group.kind is Kind.ORIENTATION_PRESERVING_SUBGROUP
    assert report.case == "Thm 6 III a"
    report = classify_pi1(NONOR3, ST("1", NONOR3))
    assert report.group.kind is Kind.FULL_ST_GROUP and report.case == "Thm 6 III b"


def test_nonorientable_case_I_witness_squares_to_root_square():
    """The Z witness w = root f^l satisfies w^2 = root^2 (fiber cancels)."""
    from curvespace.stbundle import st_word

    for text in ("c1", "c1 f^2", "c3 F", "c1 c2 c1"):
        xi = st_parse(text, NONOR3)
        report = classify_pi1(NONOR3, xi)
        if report.group.kind is not Kind.Z:
            continue
        (w,) = report.group.witnesses
        root_lift = st_word(NONOR3, w.base.letters, 0)
        assert st_multiply(w, w) == st_power(root_lift, 2)


def test_kbg_witnesses_satisfy_relation():
    report = classify_pi1(NONOR3, ST("c1^2", NONOR3))
    x, y = report.group.witnesses
    from curvespace.stbundle import st_invert

    rel = st_multiply(st_multiply(st_multiply(x, y), st_invert(x)), y)
    assert st_is_trivial(rel)


def test_witnesses_commute_with_xi():
    battery = [
        (TORUS, "a1 b1"),
        (KLEIN, "c2"),
        (KLEIN, "c1 c2"),
        (GENUS2, "a1 b1 a1 b1 f"),
        (NONOR3, "c1"),
        (NONOR3, "c1^2"),
        (NONOR3, "c1^2 f"),
        (NONOR3, "c1 c2"),
    ]
    for surface, text in battery:
        xi = st_parse(text, surface)
        report = classify_pi1(surface, xi)
        for w in report.group.witnesses:
            assert st_multiply(w, xi) == st_multiply(xi, w)


def test_case_labels_total_and_fixed():
    import random

    labels = {
        "Thm 1",
        "Thm 2",
        "Thm 3 I",
        "Thm 3 II",
        "Thm 4",
        "Thm 5 I a",
        "Thm 5 I b",
        "Thm 5 II",
        "Thm 6 I",
        "Thm 6 II a",
        "Thm 6 II b",
        "Thm 6 III a",
        "Thm 6 III b",
    }
    rng = random.Random(3)
    from curvespace import presentation
    from curvespace.stbundle import st_word

    for surface in (SPHERE, RP2, TORUS, KLEIN, GENUS2, NONOR3, SurfaceSpec(False, 2, 1)):
        pres = presentation(surface)
        n = len(pres.generators)
        for _ in range(40):
            letters = tuple(
                rng.randrange(1, n + 1) * rng.choice([1, -1]) for _ in range(rng.randrange(5))
            ) if n else ()
            xi = st_word(surface, letters, rng.randrange(-3, 4))
            report = classify_pi1(surface, xi)
            assert report.case in labels


def test_classify_pin():
    assert classify_pin(RP2, 2).kind is Kind.Z
    assert classify_pin(TORUS, 5).kind is Kind.TRIVIAL_GROUP
    sums = classify_pin(SPHERE, 3)
    assert sums.kind is Kind.SYMBOLIC_SPHERE_SUM
    assert sums.label() == "SymbolicSphereSum(3)"
    assert sums.describe() == "Z (+) pi_4(S^2)"
    assert classify_pin(SPHERE, 4).describe() == "pi_4(S^2) (+) pi_5(S^2)"
    assert classify_pin(GENUS2, 2).kind is Kind.TRIVIAL_GROUP
    with pytest.raises(ValueError):
        classify_pin(SPHERE, 1)


GROUP_TEXTS = {
    (Kind.Z2, None): ("Z/2", "Z2"),
    (Kind.Z4, None): ("Z/4", "Z4"),
    (Kind.Z, None): ("Z", "Z"),
    (Kind.ZXZ, None): ("Z x Z", "ZxZ"),
    (Kind.ZXZXZ, None): ("Z x Z x Z", "ZxZxZ"),
    (Kind.KLEIN_BOTTLE_GROUP, None): ("Klein bottle group <x, y | x y x^-1 y>", "KleinBottleGroup"),
    (Kind.FULL_ST_GROUP, None): ("the whole tangent-bundle fundamental group", "FullSTGroup"),
    (Kind.ORIENTATION_PRESERVING_SUBGROUP, None): (
        "index-two subgroup of the tangent-bundle group: "
        "elements whose base projection preserves orientation (character +1)",
        "OrientationPreservingSubgroup",
    ),
    (Kind.TRIVIAL_GROUP, None): ("0", "TrivialGroup"),
    (Kind.SYMBOLIC_SPHERE_SUM, 3): ("Z (+) pi_4(S^2)", "SymbolicSphereSum(3)"),
    (Kind.SYMBOLIC_SPHERE_SUM, 5): ("pi_5(S^2) (+) pi_6(S^2)", "SymbolicSphereSum(5)"),
}


@pytest.mark.parametrize("kind, degree", GROUP_TEXTS, ids=lambda x: getattr(x, "name", str(x)))
def test_group_texts(kind, degree):
    group = GroupDescription(kind, sphere_sum_degree=degree)
    assert (group.describe(), group.label()) == GROUP_TEXTS[kind, degree]


def test_group_texts_cover_every_kind():
    assert {kind for kind, _ in GROUP_TEXTS} == set(Kind)
    assert set(_DESCRIPTIONS) == set(Kind) - {Kind.SYMBOLIC_SPHERE_SUM}


def test_regular_homotopy_examples():
    # figure-eight lift vs the trivial element on the torus
    assert regular_homotopy_equivalent(TORUS, ST("1", TORUS), ST("1", TORUS)) is True
    assert regular_homotopy_equivalent(TORUS, ST("f", TORUS), ST("F", TORUS)) is False
    assert regular_homotopy_equivalent(KLEIN, ST("f", KLEIN), ST("F", KLEIN)) is True
    assert regular_homotopy_equivalent(KLEIN, ST("f", KLEIN), ST("f^2", KLEIN)) is False


def test_group_description_checks_witness_count():
    from curvespace.classify import GroupDescription

    with pytest.raises(ValueError, match="ZxZ needs 2 witnesses"):
        GroupDescription(Kind.ZXZ, (ST("c2", NONOR3),))


def test_structured_report_fields():
    report = classify_pi1(TORUS, ST("a1", TORUS))
    lines = report.structured().splitlines()
    assert lines[0] == "case=Thm 2"
    assert lines[1] == "kind=ZxZxZ"
    assert lines[2:] == ["witness.1=a1", "witness.2=b1", "witness.3=f"]
    keys = {line.split("=")[0] for line in lines}
    assert keys == {"case", "kind", "witness.1", "witness.2", "witness.3"}
