"""Answers the benchmark knows without asking curvespace.

Everything here is derived from the conventions the README documents
(generator names, relators, orientation characters, the fiber rule
``x f x^-1 = f^eps(x)``, the relator lifting to ``f^chi``, the Klein-bottle
coordinates ``g = c1 c2`` and ``h = c2^-1`` and the case table), never from
the engine's own code, so a wrong engine answer cannot also make the
expectation wrong.

Words are tuples of nonzero ints: ``+i`` is the i-th generator in README
order, ``-i`` its inverse.  The fiber letter ``f`` is kept out of these
tuples and carried as an integer exponent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Surface:
    orientable: bool
    genus: int
    punctures: int = 0

    def __str__(self) -> str:
        side = "orientable" if self.orientable else "nonorientable"
        return f"{side}:{self.genus}:{self.punctures}"

    @property
    def regime(self) -> str:
        if self.punctures:
            return "punctured"
        if self.orientable:
            return ("sphere", "torus")[self.genus] if self.genus < 2 else "orientable_hyperbolic"
        return ("", "rp2", "klein")[self.genus] if self.genus < 3 else "nonorientable_hyperbolic"

    @property
    def names(self) -> tuple[str, ...]:
        if self.orientable:
            out = [n for i in range(1, self.genus + 1) for n in (f"a{i}", f"b{i}")]
        else:
            out = [f"c{i}" for i in range(1, self.genus + 1)]
        return tuple(out + [f"z{i}" for i in range(1, self.punctures)])

    @property
    def characters(self) -> tuple[int, ...]:
        return tuple(-1 if n.startswith("c") else 1 for n in self.names)

    @property
    def relator(self) -> tuple[int, ...]:
        """The README relator of a closed surface; empty when punctured."""
        if self.punctures:
            return ()
        if self.orientable:
            return tuple(x for i in range(self.genus) for x in (2 * i + 1, 2 * i + 2, -(2 * i + 1), -(2 * i + 2)))
        return tuple(x for i in range(1, self.genus + 1) for x in (i, i))

    @property
    def chi(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus - self.punctures
        return 2 - self.genus - self.punctures

    def character(self, letters) -> int:
        c = 1
        for x in letters:
            c *= self.characters[abs(x) - 1]
        return c

    def abelian(self, letters) -> tuple[int, ...]:
        v = [0] * len(self.names)
        for x in letters:
            v[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(v)

    def abelian_equal(self, u, v) -> bool:
        """Equal images in H1 of the surface: the difference is an integer
        multiple of the relator's exponent vector."""
        d = [a - b for a, b in zip(self.abelian(u), self.abelian(v))]
        rel = self.abelian(self.relator)
        if not any(rel):
            return not any(d)
        pivot = next(i for i, r in enumerate(rel) if r)
        if d[pivot] % rel[pivot]:
            return False
        m = d[pivot] // rel[pivot]
        return all(di == m * ri for di, ri in zip(d, rel))

    def certainly_nontrivial(self, letters) -> bool:
        """True when H1 (or, on a free group, free reduction) proves the base
        element is not the identity."""
        if self.punctures:
            return bool(free_reduce(letters))
        return not self.abelian_equal(letters, ())


def abelian_equal_power(surface: Surface, root, k: int, letters) -> bool:
    """Does ``root^k`` have the homology class of ``letters``?"""
    power = tuple(root) * k if k >= 0 else invert(root) * -k
    return surface.abelian_equal(power, letters)


def free_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def spell(surface: Surface, letters, fiber: int = 0) -> str:
    """Word-grammar text, one token per letter, fiber letters last."""
    names = surface.names
    toks = [names[x - 1] if x > 0 else names[-x - 1].upper() for x in letters]
    if fiber:
        toks.append(("f" if fiber > 0 else "F") + (f"^{abs(fiber)}" if abs(fiber) > 1 else ""))
    return " ".join(toks) or "1"


def parse_text(surface: Surface, text: str) -> tuple[tuple[int, ...], int]:
    """(base letters, fiber) of a word-grammar text; each fiber letter is
    pushed to the right end past the base letters after it."""
    names = surface.names
    base: list[int] = []
    fibers: list[tuple[int, int]] = []  # (sign, number of base letters before it)
    for tok in text.split():
        if tok == "1":
            continue
        name, _, power = tok.partition("^")
        e = int(power) if power else 1
        if name[0].isupper():
            name, e = name.lower(), -e
        if name == "f":
            fibers += [(1 if e > 0 else -1, len(base))] * abs(e)
        else:
            i = names.index(name) + 1
            base += [i if e > 0 else -i] * abs(e)
    fiber = sum(sign * surface.character(base[at:]) for sign, at in fibers)
    return tuple(base), fiber


def inverse_text(text: str) -> str:
    """Inverse of a word-grammar text, computed on the tokens."""
    out = []
    for tok in reversed(text.split()):
        if tok == "1":
            continue
        name, _, power = tok.partition("^")
        flipped = name.lower() if name[0].isupper() else name.upper()
        out.append(flipped + (f"^{power}" if power else ""))
    return " ".join(out) or "1"


def relator_conjugate_fiber(surface: Surface, rotation: int, sign: int, t) -> int:
    """Fiber exponent of ``t V t^-1`` where ``V`` is ``R^sign`` rotated left by
    ``rotation`` letters: ``R`` lifts to ``f^chi`` and conjugating ``f^m`` by
    ``x`` gives ``f^(eps(x) m)``."""
    base = surface.relator if sign > 0 else invert(surface.relator)
    return sign * surface.chi * surface.character(base[:rotation]) * surface.character(t)


def rotate(letters, i: int) -> tuple[int, ...]:
    return tuple(letters[i:]) + tuple(letters[:i])


# -- Klein bottle: the deck group acting on the plane ------------------------
# g(x, y) = (x, y + 1), h(x, y) = (x + 1, 1 - y); an isometry (x, y) ->
# (x + tx, sy * y + ty) is stored as (tx, sy, ty).  c1 = g h, c2 = h^-1.


def _compose(a, b):
    """a after b."""
    return (a[0] + b[0], a[1] * b[1], a[1] * b[2] + a[2])


def _klein_inverse(a):
    return (-a[0], a[1], -a[1] * a[2])


_G = (0, 1, 1)
_H = (1, -1, 1)
_KLEIN_LETTER = {1: _compose(_G, _H), 2: _klein_inverse(_H)}


def klein_isometry(letters):
    acc = (0, 1, 0)
    for x in letters:
        m = _KLEIN_LETTER[abs(x)]
        acc = _compose(acc, m if x > 0 else _klein_inverse(m))
    return acc


def klein_coordinates(letters) -> tuple[int, int]:
    """(k, l) with the element equal to g^k h^l."""
    tx, _, ty = klein_isometry(letters)
    return ty - (tx % 2), tx


def klein_gh(k: int, l: int):
    acc = (0, 1, 0)
    for _ in range(abs(k)):
        acc = _compose(acc, _G if k > 0 else _klein_inverse(_G))
    for _ in range(abs(l)):
        acc = _compose(acc, _H if l > 0 else _klein_inverse(_H))
    return acc


# -- the README case table ---------------------------------------------------


@dataclass(frozen=True)
class Element:
    """A tangent-bundle element as the benchmark built it.

    ``base`` is the spelled base word, ``fiber`` the fiber exponent of the
    element (fiber letters pushed right, plus ``relator_fiber`` from relator
    copies inside ``base``), ``base_trivial`` whether
    the base is the identity by construction, and ``square_of_reversing``
    whether the base is by construction an even power of an
    orientation-reversing word (the spelling then carries no fiber letters
    other than ``fiber``).
    """

    surface: Surface
    base: tuple[int, ...]
    fiber: int
    base_trivial: bool
    square_of_reversing: bool = False
    relator_fiber: int = 0

    @property
    def text_fiber(self) -> int:
        """The fiber letters spelled out; relator copies in ``base`` carry
        the rest implicitly."""
        return self.fiber - self.relator_fiber

    @property
    def text(self) -> str:
        return spell(self.surface, self.base, self.text_fiber)


def residue(e: Element) -> int:
    """Finite regimes: the sphere group is Z/2 on f, the projective plane
    Z/4 with c1 at residue 1 and f at residue 2."""
    if e.surface.regime == "sphere":
        return e.fiber % 2
    return (sum(1 if x > 0 else -1 for x in e.base) + 2 * e.text_fiber) % 4


def expected_case(e: Element) -> tuple[str, str]:
    """(case label, kind) from the README case table."""
    s = e.surface
    reg = s.regime
    if reg == "sphere":
        return "Thm 1", "Z2"
    if reg == "rp2":
        return "Thm 4", "Z4"
    if reg == "torus":
        trivial = not any(s.abelian(e.base)) and e.fiber == 0
        return "Thm 2", "FullSTGroup" if trivial else "ZxZxZ"
    if reg == "klein":
        k, l = klein_coordinates(e.base)
        if l % 2:
            return "Thm 5 II", "Z"
        if k == 0 and e.fiber == 0:
            return "Thm 5 I a", "FullSTGroup"
        return "Thm 5 I b", "ZxZxZ"
    if s.orientable:
        if e.base_trivial:
            return "Thm 3 II", "FullSTGroup"
        return "Thm 3 I", "ZxZ"
    if e.base_trivial:
        if e.fiber:
            return "Thm 6 III a", "OrientationPreservingSubgroup"
        return "Thm 6 III b", "FullSTGroup"
    if s.character(e.base) == -1:
        return "Thm 6 I", "Z"
    if e.square_of_reversing and e.fiber == 0:
        return "Thm 6 II b", "KleinBottleGroup"
    return "Thm 6 II a", "ZxZ"


def not_a_square(surface: Surface, letters) -> bool:
    """An odd exponent sum rules out being a square (relators have even
    exponent sums on every generator, or are absent)."""
    return any(c % 2 for c in surface.abelian(letters))


def expected_pin(surface: Surface, n: int) -> str:
    if surface.regime in ("sphere", "rp2"):
        return "Z" if n == 2 else f"SymbolicSphereSum({n})"
    return "TrivialGroup"
