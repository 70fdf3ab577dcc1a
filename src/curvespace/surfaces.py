"""Surfaces, their computational regimes, and fundamental-group presentations.

A surface is described by orientability, genus and puncture count; the genus
of a nonorientable surface counts crosscaps (the projective plane is genus 1).
Closed surfaces carry the standard one-relator presentations, punctured ones
are free.  The unit tangent circle bundle gets the extension presentation:
one extra generator ``f`` (the class of an oriented fiber), a commutation
relator for every surface generator (twisted when the generator reverses
orientation), and, for closed surfaces, the surface relator set equal to
``f**chi`` where chi is the Euler characteristic.
"""

from __future__ import annotations

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


class SurfaceSpec(namedtuple("SurfaceSpec", "orientable genus punctures")):
    """Orientability + genus + punctures.  Immutable and hashable."""

    __slots__ = ()

    def __new__(cls, orientable: bool, genus: int, punctures: int = 0):
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
    def _make(cls, iterable):
        # the base checks the length and the constructor the values;
        # _replace builds through _make, so it validates too
        return cls(*super()._make(iterable))

    @classmethod
    def parse(cls, text: str) -> "SurfaceSpec":
        """Parse the CLI form ``<orientable|nonorientable>:<genus>:<punctures>``."""
        m = re.fullmatch(r"(orientable|nonorientable):([0-9]+):([0-9]+)", text.strip())
        if not m:
            raise SurfaceError(
                f"bad surface {text!r}; expected e.g. 'orientable:2:0'"
            )
        return cls(m.group(1) == "orientable", int(m.group(2)), int(m.group(3)))

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


class Generator(namedtuple("Generator", "name character")):
    """A group generator together with its orientation character (+1 or -1)."""

    __slots__ = ()

    def __new__(cls, name: str, character: int):
        if character not in (+1, -1):
            raise ValueError("character must be +1 or -1")
        return super().__new__(cls, name, character)

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


class Presentation(
    namedtuple("Presentation", "generators relators surface lifted", defaults=(None, False))
):
    """A finite presentation: a tuple of :class:`Generator` and a tuple of
    relators.

    Letters of relators (and of words over this presentation) are nonzero
    integers: ``+(i+1)`` is generator ``i``, negative means its inverse.
    ``surface`` (a :class:`SurfaceSpec` or None) and ``lifted`` tag
    presentations produced by :func:`presentation` / :func:`st_presentation`
    so that word operations can pick the right normal-form engine.
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


def _orientable_generators(genus: int) -> list[Generator]:
    gens = []
    for i in range(1, genus + 1):
        gens.append(Generator(f"a{i}", +1))
        gens.append(Generator(f"b{i}", +1))
    return gens


def _crosscap_generators(genus: int) -> list[Generator]:
    return [Generator(f"c{i}", -1) for i in range(1, genus + 1)]


def _puncture_generators(punctures: int) -> list[Generator]:
    return [Generator(f"z{i}", +1) for i in range(1, punctures)]


def _orientable_relator(genus: int) -> tuple[int, ...]:
    # product of commutators [a_i, b_i]
    out: list[int] = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        out += [a, b, -a, -b]
    return tuple(out)


def _crosscap_relator(genus: int) -> tuple[int, ...]:
    out: list[int] = []
    for i in range(1, genus + 1):
        out += [i, i]
    return tuple(out)


@cache
def presentation(spec: SurfaceSpec) -> Presentation:
    """Standard presentation of the fundamental group of the surface, built
    once per surface."""
    if spec.punctures > 0:
        if spec.orientable:
            gens = _orientable_generators(spec.genus)
        else:
            gens = _crosscap_generators(spec.genus)
        gens += _puncture_generators(spec.punctures)
        return Presentation(tuple(gens), (), surface=spec)
    if spec.orientable:
        if spec.genus == 0:
            return Presentation((), (), surface=spec)
        return Presentation(
            tuple(_orientable_generators(spec.genus)),
            (_orientable_relator(spec.genus),),
            surface=spec,
        )
    return Presentation(
        tuple(_crosscap_generators(spec.genus)),
        (_crosscap_relator(spec.genus),),
        surface=spec,
    )


@cache
def st_presentation(spec: SurfaceSpec) -> Presentation:
    """Presentation of the fundamental group of the unit tangent bundle.

    The fiber generator is always called ``f`` and always comes last.  The
    sphere and the projective plane are finite cyclic (orders 2 and 4) and are
    emitted as such.  Everywhere else the surface relator lifts to ``f**chi``
    and each surface generator x satisfies ``x f x^-1 = f**eps(x)``.  Built
    once per surface.
    """
    reg = regime(spec)
    if reg is Regime.SPHERE:
        f = Generator("f", +1)
        return Presentation((f,), ((1, 1),), surface=spec, lifted=True)
    if reg is Regime.RP2:
        f = Generator("f", +1)
        return Presentation((f,), ((1, 1, 1, 1),), surface=spec, lifted=True)

    base = presentation(spec)
    gens = base.generators + (Generator("f", +1),)
    fidx = len(gens)  # letter number of f
    relators: list[tuple[int, ...]] = []
    if base.relators:
        chi = euler_characteristic(spec)
        lifted_relator = base.relators[0] + (fidx,) * (-chi)
        relators.append(lifted_relator)
    for i, g in enumerate(base.generators):
        x = i + 1
        if g.character == +1:
            relators.append((x, fidx, -x, -fidx))
        else:
            relators.append((x, fidx, -x, fidx))
    return Presentation(gens, tuple(relators), surface=spec, lifted=True)


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
    gens = " ".join(
        f"{g.name}({'+1' if g.character > 0 else '-1'})" for g in pres.generators
    )
    rels = "; ".join(pres.spell(r) for r in pres.relators) if pres.relators else "(none)"
    return f"generators: {gens or '(none)'}\nrelators:   {rels}"
