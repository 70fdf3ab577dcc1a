"""Arithmetic in the fundamental group of the unit tangent bundle.

Elements are kept as ``base * f**fiber`` with every fiber letter pushed to
the right; pushing ``f**m`` through a base word ``w`` turns it into
``f**(eps(w)*m)`` where ``eps`` is the orientation character.  Over the
sphere and the projective plane the whole group is finite cyclic (orders 2
and 4) and only a residue is stored: the fiber class has order 2 in both,
and on the projective plane the lift of the crosscap generator is a residue-1
element whose square is the fiber class.

Base normalization inside the closed hyperbolic regimes shifts the fiber
whenever a relator copy is removed (the surface relator equals ``f**chi``
upstairs); the bookkeeping lives in :mod:`curvespace.words` and is reused
here.
"""

from __future__ import annotations

from collections import namedtuple

from .surfaces import Regime, SurfaceSpec, presentation, regime
from .words import (
    AmbientMismatchError,
    TrivialWordError,
    Word,
    _engine,
    invert_letters,
    klein_coordinates,
    normalize_with_fiber,
    parse_letters,
)

_FINITE_ORDER = {Regime.SPHERE: 2, Regime.RP2: 4}


class STWord(namedtuple("STWord", "surface base fiber residue", defaults=(None,))):
    """Normal-form element of the tangent-bundle fundamental group: a base
    :class:`Word` and a fiber exponent, or, on the sphere and the projective
    plane, ``base`` and ``fiber`` None and the element's ``residue``."""

    __slots__ = ()

    def __str__(self) -> str:
        return st_text(self)


def st_word(surface: SurfaceSpec, base_letters, fiber: int) -> STWord:
    """Normalizing constructor: the element spelled by ``base_letters``
    times ``f**fiber``."""
    reg = regime(surface)
    if reg is Regime.SPHERE:
        if tuple(base_letters):
            raise ValueError("the sphere has no base generators")
        return STWord(surface, None, None, fiber % 2)
    if reg is Regime.RP2:
        res = 0
        for x in base_letters:
            if abs(x) != 1:
                raise ValueError("projective-plane base letters must be c1")
            res += 1 if x > 0 else -1
        # the fiber class is the square of the crosscap lift: residue 2
        return STWord(surface, None, None, (res + 2 * fiber) % 4)
    pres = presentation(surface)
    nf, shift = normalize_with_fiber(tuple(base_letters), pres)
    return STWord(surface, Word(pres, nf), fiber + shift, None)


def st_identity(surface: SurfaceSpec) -> STWord:
    return st_word(surface, (), 0)


def fiber_generator(surface: SurfaceSpec) -> STWord:
    return st_word(surface, (), 1)


def generator_lift(surface: SurfaceSpec, name: str) -> STWord:
    pres = presentation(surface)
    return st_word(surface, (pres.index_of(name) + 1,), 0)


def _check_ambient(u: STWord, v: STWord):
    if u.surface != v.surface:
        raise AmbientMismatchError("tangent-bundle words over different surfaces")


def base_character(u: STWord) -> int:
    """Orientation character of the projection to the surface group."""
    if u.residue is not None:
        if regime(u.surface) is Regime.RP2:
            return -1 if u.residue % 2 else +1
        return +1
    return u.base.ambient.word_character(u.base.letters)


def st_multiply(u: STWord, v: STWord) -> STWord:
    _check_ambient(u, v)
    if u.residue is not None:
        order = _FINITE_ORDER[regime(u.surface)]
        return STWord(u.surface, None, None, (u.residue + v.residue) % order)
    m = base_character(v) * u.fiber + v.fiber
    return st_word(u.surface, u.base.letters + v.base.letters, m)


def st_invert(u: STWord) -> STWord:
    if u.residue is not None:
        order = _FINITE_ORDER[regime(u.surface)]
        return STWord(u.surface, None, None, (-u.residue) % order)
    return st_word(u.surface, invert_letters(u.base.letters), -base_character(u) * u.fiber)


def st_power(u: STWord, e: int) -> STWord:
    """``u**e`` by repeated squaring: O(log |e|) products, none for
    ``e = 1``.  Normal forms are canonical, so any bracketing of the product
    gives the same element."""
    if e < 0:
        return st_power(st_invert(u), -e)
    if e == 0:
        return st_identity(u.surface)
    while not e & 1:
        u = st_multiply(u, u)
        e >>= 1
    acc = u
    e >>= 1
    while e:
        u = st_multiply(u, u)
        if e & 1:
            acc = st_multiply(acc, u)
        e >>= 1
    return acc


def st_is_trivial(u: STWord) -> bool:
    if u.residue is not None:
        return u.residue == 0
    return not u.base.letters and u.fiber == 0


def st_conjugate(u: STWord, by: STWord) -> STWord:
    return st_multiply(st_multiply(by, u), st_invert(by))


# ---------------------------------------------------------------------------
# conjugacy


def st_is_conjugate(u: STWord, v: STWord) -> bool:
    """Are ``u`` and ``v`` conjugate?  Always decided: on free and closed
    hyperbolic surfaces the base conjugator and primitive root come from
    :mod:`curvespace.words` in polynomial time, and the fiber is settled by
    the offset arithmetic of :func:`_coset_st_conjugate`."""
    _check_ambient(u, v)
    reg = regime(u.surface)
    if u.residue is not None:
        return u.residue == v.residue
    if reg is Regime.TORUS:
        return u == v
    if reg is Regime.KLEIN:
        return _klein_st_conjugate(u, v)
    ub, vb = u.base.letters, v.base.letters
    if (not ub) != (not vb):
        return False
    if not ub:
        # pure fiber powers: conjugation can only flip the exponent, and a
        # flip needs an orientation-reversing element downstairs
        if u.fiber == v.fiber:
            return True
        has_reversing = any(g.character < 0 for g in u.base.ambient.generators)
        return has_reversing and u.fiber == -v.fiber
    return _coset_st_conjugate(u, v)


def _klein_st_conjugate(u: STWord, v: STWord) -> bool:
    k1, l1 = klein_coordinates(u.base.letters)
    k2, l2 = klein_coordinates(v.base.letters)
    m1, m2 = u.fiber, v.fiber
    if l1 != l2:
        return False
    if l1 % 2 == 0:
        return (k2, m2) in ((k1, m1), (-k1, -m1))
    return (k2 - k1) % 2 == 0 and (m2 - m1) % 2 == 0


def _coset_st_conjugate(u: STWord, v: STWord) -> bool:
    """Conjugacy on free and closed hyperbolic surfaces, where the base
    centralizer is the cyclic group on the primitive root.  Free groups have
    no relator, so there d0 = c_rho = 0 below.

    The bases of ``u`` and ``v`` and the engine's answers are normal forms,
    which normalize with no fiber shift, so they go to the engine and are
    lifted at fiber zero as they are."""
    pres = u.base.ambient
    engine = _engine(pres)
    v0 = engine.conjugator(pres, u.base.letters, v.base.letters)
    if v0 is None:
        return False
    rho, _ = engine.root(pres, u.base.letters)
    w0 = STWord(u.surface, u.base, 0)
    lift = lambda t: STWord(u.surface, t, 0)
    conj_v0 = st_conjugate(w0, lift(v0))
    conj_rho = st_conjugate(w0, lift(rho))
    assert conj_v0.base == v.base and conj_rho.base == u.base
    d0, c_rho = conj_v0.fiber, conj_rho.fiber
    eps_v0 = pres.word_character(v0.letters)
    eps_rho = pres.word_character(rho.letters)
    eps_w = base_character(u)
    m, mp = u.fiber, v.fiber
    # conjugating (w, m) by (v0 rho^j, n) gives fiber
    #   eps(v0) * conj_rho^j(m + n (eps(w) - 1)) + d0
    # with conj_rho(x) = eps(rho) x + c_rho.
    if eps_w == +1:
        if eps_rho == +1:
            diff = mp - d0 - eps_v0 * m
            return diff == 0 if c_rho == 0 else diff % c_rho == 0
        return mp in (d0 + eps_v0 * m, d0 + eps_v0 * (c_rho - m))
    # eps_w == -1 forces eps_rho == -1; f^n contributes arbitrary even shifts
    return (mp - d0 - eps_v0 * m) % 2 == 0 or (mp - d0 - eps_v0 * (c_rho - m)) % 2 == 0


# ---------------------------------------------------------------------------
# the canonical root-and-fiber decomposition


class LiftDecomposition(namedtuple("LiftDecomposition", "root_lift k l")):
    """``element = root_lift**k * f**l`` with the root primitive downstairs
    and its lift fixed at fiber zero."""

    __slots__ = ()

    def recompose(self) -> STWord:
        return st_multiply(
            st_power(self.root_lift, self.k),
            st_word(self.root_lift.surface, (), self.l),
        )


def decompose(xi: STWord) -> LiftDecomposition:
    if xi.residue is not None:
        raise ValueError("no root decomposition on finite tangent-bundle groups")
    if not xi.base.letters:
        raise TrivialWordError(
            "the base class is trivial; the element is a pure fiber power"
        )
    # the base is a normal form and so is the root: the engine takes it and
    # the root lifts at fiber zero as it is
    pres = xi.base.ambient
    root, k = _engine(pres).root(pres, xi.base.letters)
    root_lift = STWord(xi.surface, root, 0)
    power = st_power(root_lift, k)
    if power.base != xi.base:
        raise AssertionError("root power does not reproduce the base")
    return LiftDecomposition(root_lift, k, xi.fiber - power.fiber)


# ---------------------------------------------------------------------------
# text form


def st_parse(text: str, surface: SurfaceSpec) -> STWord:
    """Parse the word grammar extended with the reserved fiber letter ``f``."""
    pres = presentation(surface)
    names = pres.names() + ("f",)
    letters = parse_letters(text, names)
    fidx = len(names)
    base: list[int] = []
    fiber = 0
    for x in letters:
        if abs(x) == fidx:
            fiber += 1 if x > 0 else -1
        else:
            if fiber:
                fiber *= pres.letter_character(x)
            base.append(x)
    return st_word(surface, tuple(base), fiber)


def st_text(u: STWord) -> str:
    if u.residue is not None:
        if regime(u.surface) is Regime.SPHERE:
            return "f" if u.residue else "1"
        return {0: "1", 1: "c1", 2: "c1^2", 3: "c1^3"}[u.residue]
    base = u.base.ambient.spell(u.base.letters) if u.base.letters else ""
    if u.fiber == 0:
        return base or "1"
    ftxt = "f" if u.fiber == 1 else ("F" if u.fiber == -1 else (f"f^{u.fiber}" if u.fiber > 0 else f"F^{-u.fiber}"))
    return f"{base} {ftxt}".strip()
