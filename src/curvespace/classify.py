"""The classification decision tree.

``classify_pi1`` answers "what is the fundamental group of the space of
immersed closed curves, based at this curve?" by computing the centralizer
of the curve's tangent lift inside the tangent-bundle group.  Every answer
carries explicit generator witnesses (or, for the index-two answer, a
membership predicate), so the brute-force oracle can check it.
``classify_pin`` answers the same question for the higher homotopy groups,
which only the sphere and the projective plane make nontrivial.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .surfaces import FINITE_ORDERS, Regime, SurfaceSpec, regime
from .words import SurfaceRecord, klein_coordinates, spell_klein, surface_record
from .stbundle import (
    STWord,
    base_character,
    decompose,
    st_is_conjugate,
    st_is_trivial,
    st_power,
    st_text,
    st_word,
)


class Kind(Enum):
    Z2 = "Z2"
    Z4 = "Z4"
    Z = "Z"
    ZXZ = "ZxZ"
    ZXZXZ = "ZxZxZ"
    KLEIN_BOTTLE_GROUP = "KleinBottleGroup"
    FULL_ST_GROUP = "FullSTGroup"
    ORIENTATION_PRESERVING_SUBGROUP = "OrientationPreservingSubgroup"
    SYMBOLIC_SPHERE_SUM = "SymbolicSphereSum"
    TRIVIAL_GROUP = "TrivialGroup"


_RANK = {Kind.Z: 1, Kind.ZXZ: 2, Kind.KLEIN_BOTTLE_GROUP: 2, Kind.ZXZXZ: 3}

ORIENTATION_PRESERVING_PREDICATE = (
    "elements whose base projection preserves orientation (character +1)"
)

# the text of every kind but the sphere sum, whose text depends on its degree
_DESCRIPTIONS = {
    Kind.Z2: "Z/2",
    Kind.Z4: "Z/4",
    Kind.Z: "Z",
    Kind.ZXZ: "Z x Z",
    Kind.ZXZXZ: "Z x Z x Z",
    Kind.KLEIN_BOTTLE_GROUP: "Klein bottle group <x, y | x y x^-1 y>",
    Kind.FULL_ST_GROUP: "the whole tangent-bundle fundamental group",
    Kind.ORIENTATION_PRESERVING_SUBGROUP: (
        "index-two subgroup of the tangent-bundle group: " + ORIENTATION_PRESERVING_PREDICATE
    ),
    Kind.TRIVIAL_GROUP: "0",
}


class GroupDescription(namedtuple("GroupDescription", "kind witnesses sphere_sum_degree")):
    """A named group with generator witnesses living in the tangent-bundle
    group of the classified surface; the index-two subgroup has none, and
    its kind names its predicate, :data:`ORIENTATION_PRESERVING_PREDICATE`."""

    __slots__ = ()

    def __new__(
        cls,
        kind: Kind,
        witnesses: tuple[STWord, ...] = (),
        sphere_sum_degree: int | None = None,
    ):
        # rank check applies when witnesses are supplied at all (the higher
        # homotopy answers reuse the kinds without pi_1 witnesses)
        want = _RANK.get(kind)
        if want is not None and witnesses and len(witnesses) != want:
            raise ValueError(f"{kind.value} needs {want} witnesses")
        return super().__new__(cls, kind, witnesses, sphere_sum_degree)

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))

    def label(self) -> str:
        if self.kind is Kind.SYMBOLIC_SPHERE_SUM:
            return f"SymbolicSphereSum({self.sphere_sum_degree})"
        return self.kind.value

    def describe(self) -> str:
        if self.kind is not Kind.SYMBOLIC_SPHERE_SUM:
            return _DESCRIPTIONS[self.kind]
        n = self.sphere_sum_degree
        first = "Z" if n == 3 else f"pi_{n}(S^2)"
        return f"{first} (+) pi_{n + 1}(S^2)"


class ClassificationReport(
    namedtuple("ClassificationReport", "element case group decomposition", defaults=(None,))
):
    """The answer of :func:`classify_pi1`: the element, the case of the
    decision tree, the group, and ``(k, l)`` of the element's root-and-fiber
    decomposition where it has one."""

    __slots__ = ()

    def text(self) -> str:
        element = st_text(self.element)
        lines = [
            f"surface:        {self.element.surface}",
            f"input:          {element}",
            f"tangent lift:   {element}",
        ]
        if self.decomposition is not None:
            k, l = self.decomposition
            lines.append(f"decomposition:  root^{k} * f^{l}")
        lines.append(f"case:           {self.case}")
        lines.append(f"pi_1 of curve space: {self.group.describe()}")
        for i, w in enumerate(self.group.witnesses, start=1):
            lines.append(f"  generator {i}:  {st_text(w)}")
        if self.group.kind is Kind.ORIENTATION_PRESERVING_SUBGROUP:
            lines.append(f"  membership:   {ORIENTATION_PRESERVING_PREDICATE}")
        return "\n".join(lines)

    def structured(self) -> str:
        lines = [f"case={self.case}", f"kind={self.group.label()}"]
        for i, w in enumerate(self.group.witnesses, start=1):
            lines.append(f"witness.{i}={st_text(w)}")
        return "\n".join(lines)


def _full_group(rec: SurfaceRecord) -> GroupDescription:
    # the lift of every generator and the fiber; never asked on the finite
    # groups, whose answers are cyclic
    return GroupDescription(Kind.FULL_ST_GROUP, rec.lifts + (rec.fiber,))


def classify_pi1(surface: SurfaceSpec, xi: STWord) -> ClassificationReport:
    """Centralizer of the tangent lift, as a named group with witnesses."""
    if xi.surface != surface:
        raise ValueError("element does not live over the given surface")
    rec = surface_record(surface)
    reg = rec.regime
    f = rec.fiber

    def report(case, group, dec=None):
        return ClassificationReport(xi, case, group, dec)

    if reg is Regime.SPHERE:
        return report("Thm 1", GroupDescription(Kind.Z2, (f,)))

    if reg is Regime.RP2:
        # the crosscap lift generates
        return report("Thm 4", GroupDescription(Kind.Z4, rec.lifts))

    if reg is Regime.TORUS:
        kind = Kind.FULL_ST_GROUP if st_is_trivial(xi) else Kind.ZXZXZ
        return report("Thm 2", GroupDescription(kind, rec.lifts + (f,)))

    if reg is Regime.KLEIN:
        k, l = klein_coordinates(xi.base.letters)
        m = xi.fiber
        if l % 2 != 0:
            # xi = g^k h^(2l'+1) f^m; the centralizer is generated by
            # alpha = g^k h f^m, and xi = alpha^(2l'+1)
            alpha = st_word(surface, spell_klein(k, 1), m)
            return report("Thm 5 II", GroupDescription(Kind.Z, (alpha,)))
        if k == 0 and m == 0:
            return report("Thm 5 I a", _full_group(rec))
        group = GroupDescription(
            Kind.ZXZXZ,
            (
                st_word(surface, spell_klein(1, 0), 0),
                st_word(surface, spell_klein(0, 2), 0),
                f,
            ),
        )
        return report("Thm 5 I b", group)

    base_trivial = not xi.base.letters

    if surface.orientable:
        if base_trivial:
            return report("Thm 3 II", _full_group(rec))
        dec = decompose(xi)
        group = GroupDescription(Kind.ZXZ, (dec.root_lift, f))
        return report("Thm 3 I", group, (dec.k, dec.l))

    if base_trivial:
        if xi.fiber != 0:
            return report("Thm 6 III a", GroupDescription(Kind.ORIENTATION_PRESERVING_SUBGROUP))
        return report("Thm 6 III b", _full_group(rec))

    dec = decompose(xi)
    root = dec.root_lift
    if base_character(xi) == -1:
        witness = STWord(root.base, dec.l)
        return report("Thm 6 I", GroupDescription(Kind.Z, (witness,)), (dec.k, dec.l))
    if base_character(root) == +1:
        group = GroupDescription(Kind.ZXZ, (root, f))
        return report("Thm 6 II a", group, (dec.k, dec.l))
    if dec.l != 0:
        group = GroupDescription(Kind.ZXZ, (st_power(root, 2), f))
        return report("Thm 6 II a", group, (dec.k, dec.l))
    group = GroupDescription(Kind.KLEIN_BOTTLE_GROUP, (root, f))
    return report("Thm 6 II b", group, (dec.k, dec.l))


def classify_pin(surface: SurfaceSpec, n: int) -> GroupDescription:
    """Higher homotopy of the space of curves; nontrivial exactly where the
    tangent-bundle group is finite (over the sphere and the projective plane)."""
    if n < 2:
        raise ValueError("classify_pin needs n >= 2")
    if regime(surface) in FINITE_ORDERS:
        if n == 2:
            return GroupDescription(Kind.Z)
        return GroupDescription(Kind.SYMBOLIC_SPHERE_SUM, sphere_sum_degree=n)
    return GroupDescription(Kind.TRIVIAL_GROUP)


def regular_homotopy_equivalent(surface: SurfaceSpec, u: STWord, v: STWord) -> bool:
    """Are two tangent lifts freely homotopic in the tangent bundle?  Decided
    exactly on every surface, in polynomial time on the closed hyperbolic
    ones (see :func:`curvespace.stbundle.st_is_conjugate`)."""
    if u.surface != surface or v.surface != surface:
        raise ValueError("elements do not live over the given surface")
    return st_is_conjugate(u, v)
