"""Surfaces, their computational regimes, and fundamental-group presentations.

A surface is described by orientability, genus and puncture count; the genus
of a nonorientable surface counts crosscaps (the projective plane is genus 1).
:func:`regime` is the one place where a surface's engine is chosen, and
:func:`presentation` builds every surface's group by one rule: closed
surfaces with generators carry the standard one-relator presentations,
punctured ones are free.  The unit tangent circle bundle gets the extension
presentation: one extra generator ``f`` (the class of an oriented fiber), a
commutation relator for every surface generator (twisted when the generator
reverses orientation), and, for closed surfaces, the surface relator set
equal to ``f**chi`` where chi is the Euler characteristic.  Over the sphere
and the projective plane that group is finite cyclic, of the order in
:data:`FINITE_ORDERS`.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from enum import Enum
from functools import cache


class SurfaceError(ValueError):
    """Invalid surface description."""


class Regime(Enum):
    """Which algebraic engine a surface needs."""

    SPHERE = "sphere"
    TORUS = "torus"
    RP2 = "projective-plane"
    KLEIN = "klein-bottle"
    CLOSED_ORIENTABLE_HYPERBOLIC = "closed-orientable-hyperbolic"
    CLOSED_NONORIENTABLE_HYPERBOLIC = "closed-nonorientable-hyperbolic"
    PUNCTURED = "punctured"


#: most generators a surface's presentation may have: :func:`presentation`
#: builds them all at once, and the closed hyperbolic engine's relator
#: pieces (the offsets of its relator band) grow with the square of the
#: relator's length, so this bounds the time and memory a surface can take
#: (genus 32 orientable and 64 crosscaps, with 128-letter relators, build
#: their tables in well under a second and 6 MB)
_MAX_GENERATORS = 64


class CheckedRecord:
    """The ``_make`` of the records whose constructor checks their fields:
    the base checks the number of fields and the constructor their values,
    and ``_replace`` builds through ``_make``, so it checks them too.  It
    comes first among a record's bases."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


class SurfaceSpec(CheckedRecord, namedtuple("SurfaceSpec", "orientable genus punctures")):
    """Orientability + genus + punctures.  Immutable and hashable.

    ``orientable`` must be ``True`` or ``False``, and genus and punctures
    integers (anything :func:`operator.index` takes; stored as ``int``);
    other values raise :class:`SurfaceError`, so equal records always
    describe one surface and print one way."""

    __slots__ = ()

    def __new__(cls, orientable: bool, genus: int, punctures: int = 0):
        if not isinstance(orientable, bool):
            raise SurfaceError(f"orientable must be True or False, not {orientable!r}")
        try:
            genus, punctures = operator.index(genus), operator.index(punctures)
        except TypeError:
            raise SurfaceError(f"genus and punctures must be integers, not {genus!r} and {punctures!r}") from None
        if genus < 0:
            raise SurfaceError("genus must be nonnegative")
        if punctures < 0:
            raise SurfaceError("puncture count must be nonnegative")
        if not orientable and genus < 1:
            raise SurfaceError("a nonorientable surface needs at least one crosscap")
        generators = (2 if orientable else 1) * genus + max(punctures - 1, 0)
        if generators > _MAX_GENERATORS:
            raise SurfaceError(
                f"the surface has {generators} generators; at most {_MAX_GENERATORS} are supported"
            )
        return super().__new__(cls, orientable, genus, punctures)

    @classmethod
    def parse(cls, text: str) -> "SurfaceSpec":
        """Parse the CLI form ``<orientable|nonorientable>:<genus>:<punctures>``."""
        m = re.fullmatch(r"(orientable|nonorientable):([0-9]+):([0-9]+)", text.strip())
        if not m:
            raise SurfaceError(
                f"bad surface {text!r}; expected e.g. 'orientable:2:0'"
            )
        try:
            genus, punctures = (int(m.group(i).lstrip("0") or "0") for i in (2, 3))
        except ValueError:
            # int() refuses more than 4300 digits: a count far over the cap
            raise SurfaceError(
                f"the surface has more than {_MAX_GENERATORS} generators; at most {_MAX_GENERATORS} are supported"
            ) from None
        return cls(m.group(1) == "orientable", genus, punctures)

    def __str__(self) -> str:
        side = "orientable" if self.orientable else "nonorientable"
        return f"{side}:{self.genus}:{self.punctures}"


def euler_characteristic(spec: SurfaceSpec) -> int:
    if spec.orientable:
        return 2 - 2 * spec.genus - spec.punctures
    return 2 - spec.genus - spec.punctures


def regime(spec: SurfaceSpec) -> Regime:
    """Pure function of the spec fields; every surface lands in exactly one case."""
    if spec.punctures > 0:
        return Regime.PUNCTURED
    if spec.orientable:
        if spec.genus == 0:
            return Regime.SPHERE
        if spec.genus == 1:
            return Regime.TORUS
        return Regime.CLOSED_ORIENTABLE_HYPERBOLIC
    if spec.genus == 1:
        return Regime.RP2
    if spec.genus == 2:
        return Regime.KLEIN
    return Regime.CLOSED_NONORIENTABLE_HYPERBOLIC


#: the regimes whose tangent-bundle group is finite, with its order; both
#: groups are cyclic and their fiber class has order 2
FINITE_ORDERS = {Regime.SPHERE: 2, Regime.RP2: 4}


class Generator(CheckedRecord, namedtuple("Generator", "name character")):
    """A group generator together with its orientation character, the
    integer +1 or -1 (a float such as ``1.0`` raises ``ValueError``)."""

    __slots__ = ()

    def __new__(cls, name: str, character: int):
        if not isinstance(character, int) or character not in (+1, -1):
            raise ValueError("character must be +1 or -1")
        return super().__new__(cls, name, character)


class Presentation(namedtuple("Presentation", "generators relators surface", defaults=(None,))):
    """A finite presentation: a tuple of :class:`Generator` and a tuple of
    relators.

    Letters of relators (and of words over this presentation) are nonzero
    integers: ``+(i+1)`` is generator ``i``, negative means its inverse.
    ``surface`` (a :class:`SurfaceSpec` or None) tags the presentations
    that :func:`presentation` and :func:`st_presentation` build; word
    operations take only a surface's own :func:`presentation`.
    """

    __slots__ = ()

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def letter_character(self, letter: int) -> int:
        return self.generators[abs(letter) - 1].character

    def word_character(self, letters) -> int:
        c = 1
        for x in letters:
            c *= self.generators[abs(x) - 1].character
        return c

    def spell(self, letters) -> str:
        """Run-compressed text of a letter sequence; empty spells ``1``."""
        if not letters:
            return "1"
        parts = []
        i = 0
        letters = tuple(letters)
        while i < len(letters):
            j = i
            while j < len(letters) and letters[j] == letters[i]:
                j += 1
            name = self.generators[abs(letters[i]) - 1].name
            if letters[i] < 0:
                name = name.upper()
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return " ".join(parts)


@cache
def presentation(spec: SurfaceSpec) -> Presentation:
    """Standard presentation of the fundamental group of the surface, built
    once per surface: the handles ``a_i b_i`` (character +1) or crosscaps
    ``c_i`` (character -1), then ``z1 ... z(p-1)`` for ``p`` punctures, and
    one relator, ``[a1,b1]...[ag,bg]`` or ``c1^2...ck^2``, exactly when the
    surface is closed and has generators."""
    g = spec.genus
    if spec.orientable:
        gens = [Generator(f"{x}{i}", +1) for i in range(1, g + 1) for x in "ab"]
        relator = tuple(x for a in range(1, 2 * g, 2) for x in (a, a + 1, -a, -a - 1))
    else:
        gens = [Generator(f"c{i}", -1) for i in range(1, g + 1)]
        relator = tuple(x for c in range(1, g + 1) for x in (c, c))
    gens += [Generator(f"z{i}", +1) for i in range(1, spec.punctures)]
    relators = (relator,) if relator and not spec.punctures else ()
    return Presentation(tuple(gens), relators, surface=spec)


@cache
def st_presentation(spec: SurfaceSpec) -> Presentation:
    """Presentation of the fundamental group of the unit tangent bundle.

    The fiber generator is always called ``f`` and always comes last.  The
    sphere and the projective plane are finite cyclic (:data:`FINITE_ORDERS`)
    and are emitted as ``<f | f^order>``.  Everywhere else the surface
    relator lifts to ``f**chi`` and each surface generator x satisfies
    ``x f x^-1 = f**eps(x)``.  Built once per surface.
    """
    f = Generator("f", +1)
    order = FINITE_ORDERS.get(regime(spec))
    if order:
        return Presentation((f,), ((1,) * order,), surface=spec)
    base = presentation(spec)
    fidx = len(base.generators) + 1  # letter number of f
    # the surface relator, if any, lifted to f**chi
    relators = [r + (fidx,) * -euler_characteristic(spec) for r in base.relators]
    for x, g in enumerate(base.generators, 1):
        relators.append((x, fidx, -x, -g.character * fidx))
    return Presentation(base.generators + (f,), tuple(relators), surface=spec)


# ---------------------------------------------------------------------------
# integer linear algebra for presentation sanity checks and the oracle


def smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Diagonal of the Smith normal form of the integer matrix ``rows``.

    Returns the invariant factors d_1 | d_2 | ... (nonnegative), padded with
    zeros up to min(#rows, ncols).  Each step takes an entry ``p`` of least
    magnitude as the pivot and clears its column and its row by floor
    division.  If a remainder is left, the least magnitude has dropped and
    the step repeats.  If some entry is not a multiple of ``p``, its row is
    added to the pivot row, whose reduction leaves such a remainder.
    Otherwise ``|p|`` is recorded and its row and column are deleted.  Every
    recorded pivot divides all the entries left, so the factors come out in
    divisibility order.  Small matrices only.
    """
    m = [list(r) for r in rows]
    diag: list[int] = []
    size = min(len(m), ncols)
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not entries:
            return diag + [0] * (size - len(diag))
        _, i, j = min(entries)
        pivot, rest = m[i], m[:i] + m[i + 1 :]
        p = pivot[j]
        for row in rest:
            q = row[j] // p
            if q:
                row[:] = [x - q * y for x, y in zip(row, pivot)]
        for k, q in enumerate([x // p for x in pivot]):
            if q and k != j:
                for row in m:
                    row[k] -= q * row[j]
        if any(pivot[:j] + pivot[j + 1 :]) or any(row[j] for row in rest):
            continue
        bad = next((row for row in rest if any(x % p for x in row)), None)
        if bad is None:
            diag.append(abs(p))
            m = [row[:j] + row[j + 1 :] for row in rest]
        else:
            # the pivot row plus ``bad``, reduced by the pivot's column
            pivot[:] = [x % p for x in bad]
            pivot[j] = p


def exponent_vector(pres: Presentation, letters) -> tuple[int, ...]:
    """The signed number of times each generator of ``pres`` occurs in
    ``letters``: the word's image in the abelianized free group."""
    v = [0] * len(pres.generators)
    for x in letters:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def abelianization(pres: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion orders > 1) of the abelianized presented group."""
    n = len(pres.generators)
    diag = smith_diagonal([exponent_vector(pres, rel) for rel in pres.relators], n)
    rank = n - sum(1 for d in diag if d != 0)
    torsion = tuple(sorted(d for d in diag if d > 1))
    return rank, torsion


def presentation_text(pres: Presentation) -> str:
    gens = " ".join(f"{g.name}({g.character:+d})" for g in pres.generators)
    rels = "; ".join(pres.spell(r) for r in pres.relators) if pres.relators else "(none)"
    return f"generators: {gens or '(none)'}\nrelators:   {rels}"
