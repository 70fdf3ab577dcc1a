"""Arithmetic in the fundamental group of the unit tangent bundle.

Elements are kept as ``base * f**fiber`` with every fiber letter pushed to
the right; pushing ``f**m`` through a base word ``w`` turns it into
``f**(eps(w)*m)`` where ``eps`` is the orientation character.  Over the
sphere and the projective plane the whole group is finite cyclic (orders 2
and 4): the fiber class has order 2 in both, so the fiber is kept mod 2,
and on the projective plane the lift of the crosscap generator is a
residue-1 element whose square is the fiber class.  An element's residue
is read off its base and fiber; every operation here takes the general path.

Base normalization shifts the fiber whenever a relator copy is removed on
the closed hyperbolic regimes (the surface relator equals ``f**chi``
upstairs) and whenever ``c1^2`` is removed on the projective plane; the
bookkeeping lives in :mod:`curvespace.words` and is reused here, so every
regime normalizes through one path.  Conjugacy is decided by one rule on
every regime from the data that its engine supplies: a base conjugator
and, only for an orientation-preserving base on a nonorientable surface
whose fiber the conjugator does not match, the primitive root
(:func:`st_is_conjugate`).

Every function here reads the surface's record
(:func:`curvespace.words.surface_record`) and none looks up the regime.  The
element type ``STWord`` and ``st_text`` live beside the record in
:mod:`curvespace.words` and are imported here for this module's callers.
"""

from __future__ import annotations

from collections import namedtuple

from .surfaces import SurfaceSpec
from .words import (
    AmbientMismatchError,
    STWord,
    TrivialWordError,
    Word,
    invert_letters,
    parse_letters,
    st_text,
    surface_record,
)


def st_word(surface: SurfaceSpec, base_letters, fiber: int) -> STWord:
    """Normalizing constructor: the element spelled by ``base_letters``
    times ``f**fiber`` (:meth:`~curvespace.words.SurfaceRecord.lift`)."""
    return surface_record(surface).lift(tuple(base_letters), fiber)


def st_identity(surface: SurfaceSpec) -> STWord:
    return st_word(surface, (), 0)


def _check_ambient(u: STWord, v: STWord):
    if u.surface != v.surface:
        raise AmbientMismatchError("tangent-bundle words over different surfaces")


def base_character(u: STWord) -> int:
    """Orientation character of the projection to the surface group."""
    return u.base.ambient.word_character(u.base.letters)


def st_multiply(u: STWord, v: STWord) -> STWord:
    _check_ambient(u, v)
    m = base_character(v) * u.fiber + v.fiber
    return st_word(u.surface, u.base.letters + v.base.letters, m)


def st_invert(u: STWord) -> STWord:
    return st_word(u.surface, invert_letters(u.base.letters), -base_character(u) * u.fiber)


def st_power(u: STWord, e: int) -> STWord:
    """``u**e`` by repeated squaring: ``floor(log2 e) + popcount(e) - 1``
    products for ``e > 0``, none for ``e = 1``.  Normal forms are canonical,
    so any bracketing of the product gives the same element."""
    if e < 0:
        return st_power(st_invert(u), -e)
    acc = None
    while e:
        if e & 1:
            acc = u if acc is None else st_multiply(acc, u)
        e >>= 1
        if e:
            u = st_multiply(u, u)
    return st_identity(u.surface) if acc is None else acc


def st_is_trivial(u: STWord) -> bool:
    return not u.base.letters and u.fiber == 0


def st_conjugate(u: STWord, by: STWord) -> STWord:
    return st_multiply(st_multiply(by, u), st_invert(by))


# ---------------------------------------------------------------------------
# conjugacy


def st_is_conjugate(u: STWord, v: STWord) -> bool:
    """Are ``u`` and ``v`` conjugate?  Always decided, in polynomial time, by
    one rule on every regime.

    Conjugating ``(w, m)`` by ``(t, n)`` gives ``(t w t^-1, d_t + eps(t) (m +
    n (eps(w) - 1)))``, ``d_t`` the fiber shift of normalizing ``t w t^-1``.
    The conjugators of ``w`` onto the base of ``v = (w', m')`` are the
    engine's ``v0`` times the centralizer ``C(w)``, so ``u`` and ``v`` are
    conjugate iff ``x = eps(v0) (m' - d_v0)`` is the image of ``m`` under
    ``C(w)``, modulo ``step = 1 - eps(w)``.  If ``w`` reverses orientation,
    ``z -> d_z mod 2`` is a homomorphism on ``C(w)``, which is cyclic on the
    primitive root ``r`` with ``w = r^e``, ``e`` odd and ``d_w = 0``: so
    ``d_r`` is even and ``x = m mod 2`` decides.  Otherwise an
    orientation-preserving ``z`` in ``C(w)`` commutes with ``f`` and with
    the lift of ``w``, so ``d_z = 0``, and an orientation-reversing one maps
    ``m`` to ``d_z - m``: the answer is ``x = m``, or on a nonorientable
    surface ``x = -m`` at ``w = 1`` and ``x = d_r - m`` for a reversing
    root ``r`` (the Klein bottle's ``g`` and ``h^2`` shift by 0).  Only that
    last case asks the engine for the root."""
    _check_ambient(u, v)
    rec = surface_record(u.surface)
    eps = rec.presentation.word_character
    w = u.base.letters
    v0 = rec.engine.conjugator(rec, w, v.base.letters)
    if v0 is None:
        return False

    def shift(t, image):
        # w is a normal form and t any spelling, each letter lifted at fiber
        # zero: another spelling of t conjugates by t f^s, which moves the
        # shift by a multiple of step
        nf, d = rec.engine.normalize(rec, t + w + invert_letters(t))
        assert nf == image, "the conjugator does not conjugate to the expected base"
        return d

    x = eps(v0) * (v.fiber - shift(v0, v.base.letters))
    m = u.fiber
    if eps(w) < 0:
        return (x - m) % 2 == 0
    if x == m or u.surface.orientable:
        return x == m
    if not w:
        return x == -m
    r = rec.engine.root(rec, w)[0]
    return eps(r) < 0 and x == shift(r, w) - m


# ---------------------------------------------------------------------------
# the canonical root-and-fiber decomposition


class LiftDecomposition(namedtuple("LiftDecomposition", "root_lift k l")):
    """``element = root_lift**k * f**l`` with the root primitive downstairs
    and its lift fixed at fiber zero."""

    __slots__ = ()

    def recompose(self) -> STWord:
        return st_multiply(st_power(self.root_lift, self.k), st_word(self.root_lift.surface, (), self.l))


def decompose(xi: STWord) -> LiftDecomposition:
    rec = surface_record(xi.surface)
    if rec.engine.root is None:
        raise ValueError("no root decomposition on finite tangent-bundle groups")
    if not xi.base.letters:
        raise TrivialWordError("the base class is trivial; the element is a pure fiber power")
    # the base is a normal form and so is the root: the engine takes it and
    # the root lifts at fiber zero as it is
    root, k = rec.engine.root(rec, xi.base.letters)
    root_lift = STWord(Word(rec.presentation, root), 0)
    power = st_power(root_lift, k)
    if power.base != xi.base:
        raise AssertionError("root power does not reproduce the base")
    return LiftDecomposition(root_lift, k, xi.fiber - power.fiber)


# ---------------------------------------------------------------------------
# text form


def st_parse(text: str, surface: SurfaceSpec) -> STWord:
    """Parse the word grammar extended with the reserved fiber letter ``f``."""
    rec = surface_record(surface)
    letters = parse_letters(text, rec.names)
    fidx = len(rec.names)
    base: list[int] = []
    fiber = 0
    for x in letters:
        if abs(x) == fidx:
            fiber += 1 if x > 0 else -1
        else:
            if fiber:
                fiber *= rec.presentation.letter_character(x)
            base.append(x)
    return rec.lift(tuple(base), fiber)
