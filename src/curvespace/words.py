"""Exact arithmetic in surface fundamental groups.

Each regime has one engine, and the table ``_ENGINES`` is the only place
where a regime picks its algorithm.  An engine normalizes letters (with the
fiber shift described below), finds conjugators and finds primitive roots.
A surface's regime is resolved once, on its first use, into a
:class:`SurfaceRecord` (:func:`surface_record`) that holds its engine, the
closed hyperbolic engine's relator band and what the tangent-bundle module
asks of the surface; every call reads that.  :meth:`SurfaceRecord.normalize`
gives a range-checked normal form with its fiber shift.  The engines take
the record and answer in plain letters; :func:`conjugating_element` and
:func:`primitive_root` wrap their answers in a :class:`Word`.  Normal forms
by regime:

* free (punctured surfaces): free reduction;
* torus: exponent vector, spelled ``a1^p b1^q``;
* Klein bottle: semidirect coordinates ``g^k h^l`` with ``g = c1 c2``
  (orientation preserving) and ``h = c2^-1`` (orientation reversing),
  multiplied with ``h g = g^-1 h``; spelled back in the crosscap letters;
* closed hyperbolic (orientable genus >= 2, nonorientable genus >= 3):
  free reduction and Dehn shortening of subwords longer than half a
  cyclically rotated relator, found through one relator index built once
  per surface into its record, then the shortlex-least word among the
  spellings of the same length, read off a layered graph of bounded width
  around the word (the relator band, :func:`_dehn_normalize`).  This is
  the unique shortlex-minimal form in the one-relator surface
  presentations.  A pass is linear in the word's length n and there are at
  most n / 2 of them.
  The band's move table is filled by rule, not by search: a Dehn-reduced
  word of at most ``L / 2 + 2`` letters is geodesic, a relator subword of
  fewer than ``L / 2`` letters is its element's only geodesic spelling, and
  a half relator's only other one is its complement (:func:`_band_steps`).
  Conjugacy and primitive roots first read the H_1 class (:func:`_homology`):
  conjugates share it, and a root's is ``1 / e`` of its ``e``-th power's,
  which picks the exponents and pieces that a root is tried with.  Where it
  is 0 on an orientable surface, the area class (:func:`_area_class`) of an
  ``e``-th power is ``e`` times its root's, which narrows the exponents.
  Both then work on minimal-length conjugates, found through the same band,
  and conjugators come from rotations, as on free groups
  (:func:`_cyclic_conjugator`).  Nothing is capped: every answer is decided
  in polynomial time;
* projective plane: the parity of the exponent sum; sphere: the empty word.

Words are normalized only over a surface's own presentation, the one that
:func:`curvespace.surfaces.presentation` builds.  Any other, such as a
tangent-bundle one (:mod:`curvespace.stbundle`), an ad-hoc one (the oracle)
or a surface-tagged one with other relators, raises ``ValueError``.

The relator moves carry a fiber exponent so that the tangent-bundle module
can reuse them: the surface relator equals ``f**chi`` upstairs, so replacing
the first part of a rotation of the relator (or of its inverse, ``-chi``) by
the inverse of the rest shifts the fiber by that times the orientation
character of the rotation prefix, twisted by the character of the
replacement and of everything to its right.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterator
from functools import cache, lru_cache

from .surfaces import (
    FINITE_ORDERS,
    Presentation,
    Regime,
    SurfaceSpec,
    euler_characteristic,
    exponent_vector,
    presentation,
    regime,
)


class AmbientMismatchError(ValueError):
    """Operands live over different presentations."""


class TrivialWordError(ValueError):
    """Operation undefined for the identity element."""


class WordParseError(ValueError):
    pass


Letters = tuple[int, ...]


class Word(namedtuple("Word", "ambient letters")):
    """A group element over the :class:`Presentation` ``ambient``, spelled by
    ``letters``.  :func:`word` and :func:`parse_word` store the normal form,
    but ``Word(ambient, raw)`` keeps any spelling, so the operations that
    read a word normalize it first."""

    __slots__ = ()

    def __str__(self) -> str:
        return self.ambient.spell(self.letters)

    def __len__(self) -> int:
        """The number of letters, not of fields."""
        return len(self.letters)

    @classmethod
    def _make(cls, iterable):
        # the base checks len(), which counts letters here, not fields;
        # _replace builds through _make
        result = tuple.__new__(cls, iterable)
        if tuple.__len__(result) != 2:
            raise TypeError(f"Expected 2 arguments, got {tuple.__len__(result)}")
        return result


# ---------------------------------------------------------------------------
# letter-sequence primitives


def free_reduce(letters) -> Letters:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_letters(letters) -> Letters:
    return tuple(-x for x in reversed(letters))


def cyclic_free_reduce(letters) -> tuple[Letters, Letters]:
    """Split ``w = p * core * p^-1`` with ``core`` cyclically freely reduced."""
    w = free_reduce(letters)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[:i], w[i:j]


def _rotation(s: Letters, t: Letters) -> int | None:
    """The least ``r`` with ``s[r:] + s[:r] == t``, or None.  Each letter is
    spelled as one character, so that ``str.find`` matches words."""
    if len(s) != len(t):
        return None
    text, target = ("".join([chr(0x4000 + x) for x in w]) for w in (s + s, t))
    r = text.find(target)
    return None if r < 0 else r


def _lex_key(letters) -> tuple:
    return tuple((abs(x), 0 if x > 0 else 1) for x in letters)


# ---------------------------------------------------------------------------
# torus and Klein-bottle exponent engines


def spell_torus(p: int, q: int) -> Letters:
    sa = (1,) if p >= 0 else (-1,)
    sb = (2,) if q >= 0 else (-2,)
    return sa * abs(p) + sb * abs(q)


# Klein coordinates: elements are g^k h^l with g = c1 c2, h = c2^-1 and the
# exchange law h g = g^-1 h, i.e. (k1,l1)*(k2,l2) = (k1 + (-1)^l1 k2, l1+l2).


def klein_coordinates(letters) -> tuple[int, int]:
    """``(k, l)`` with ``letters = g^k h^l``: the product of the letters'
    coordinates, ``c1^+-1 = (1, +-1)`` and ``c2^+-1 = (0, -+1)``,
    accumulated in place."""
    k = l = 0
    for x in letters:
        if x == 1 or x == -1:
            k += -1 if l & 1 else 1
            l += x
        else:
            l -= x // 2
    return k, l


def spell_klein(k: int, l: int) -> Letters:
    """The freely reduced spelling of ``g^k h^l``: ``g^k`` and ``h^l`` are
    each reduced, and the only letters that cancel between them are the
    ``c2`` that ends ``g`` and the ``c2^-1`` that is ``h``, when ``k > 0``
    and ``l > 0``."""
    if k > 0 and l > 0:
        return (1, 2) * (k - 1) + (1,) + (-2,) * (l - 1)
    glide = (1, 2) if k >= 0 else (-2, -1)
    vert = (-2,) if l >= 0 else (2,)
    return glide * abs(k) + vert * abs(l)


# ---------------------------------------------------------------------------
# Dehn rewriting for closed hyperbolic regimes


class _Band(namedtuple("_Band", "cycles at sign chi L pieces index classes steps letters ahead behind")):
    """Per-surface tables of the closed hyperbolic engine, built once into
    the surface's record (:attr:`SurfaceRecord.band`).

    The relator index: ``cycles`` holds the relator (side 0) and its inverse
    (side 1), each written out twice, so every cyclic subword is a slice
    ``cycles[side][start : start + size]``, ``start < L``.  Every generator
    occurs twice in the relator, so no two-letter subword occurs twice and
    the first two letters of a cyclic subword fix its place; ``at`` maps the
    first 2 and the first ``L // 2`` letters of each rotation to ``(side,
    start)``, ``4L`` keys.  ``L`` is even (``4g`` or ``2k``), ``chi`` is the
    Euler characteristic, ``sign`` the character that all generators share
    (+1 on orientable surfaces, -1 for crosscaps) and ``letters`` every
    generator and its inverse.  The relator band (:func:`_dehn_normalize`):
    ``pieces`` lists the normal forms of the elements spelled by cyclic
    subwords, the identity first, ``index`` inverts it and ``classes`` lists
    them by the key of their H_1 class (:func:`_class_key`).  ``steps`` maps
    ``(a, d)`` to the moves ``(y, d', s)``, in shortlex letter order, with
    ``a^-1 d y = d' f^s`` and ``d'`` a piece, filled on first use by
    :func:`_band_steps`; ``ahead`` caches :func:`_band_union`, ``behind`` :func:`_band_live`."""

    __slots__ = ()


def _band_tables(pres: Presentation) -> _Band:
    (sign,) = {g.character for g in pres.generators}
    relator = pres.relators[0]
    L = len(relator)
    half = L // 2
    cycles = (relator * 2, invert_letters(relator) * 2)
    letters = tuple(x for g in range(1, len(pres.generators) + 1) for x in (g, -g))
    band = _Band(cycles, {}, sign, euler_characteristic(pres.surface), L, [()], {(): 0}, {0: [0]}, {}, letters, {}, {})
    weight = {x: _class_key(_homology(pres, (x,))[0], L) for x in letters}
    for side, cycle in enumerate(cycles):
        for start in range(L):
            band.at[cycle[start : start + 2]] = band.at[cycle[start : start + half]] = (side, start)
            # a relator subword of under L/2 letters is its own normal form,
            # and a half relator's is the smaller of the two halves
            least = min(cycle[start : start + half], _half_swap(band, cycle[start : start + half])[0], key=_lex_key)
            key = 0
            for nf, x in zip((*(cycle[start : start + cut] for cut in range(1, half)), least), cycle[start:]):
                key += weight[x]
                if nf not in band.index:
                    band.index[nf] = len(band.pieces)
                    band.classes.setdefault(key, []).append(len(band.pieces))
                    band.pieces.append(nf)
    return band


def _class_key(free: tuple[int, ...], L: int) -> int | None:
    """Free H_1 coordinates as the digits of one integer in a base over
    ``L``, exact and linear up to ``L / 2`` in size, the most that a piece's
    reach; None for larger ones, which no piece has."""
    width = L.bit_length()
    return None if max(map(abs, free)) > L // 2 else sum(v << width * i for i, v in enumerate(free))


def _relator_move(band: _Band, side: int, start: int, size: int) -> tuple[Letters, int]:
    """The inverse of the rest of the rotation that ``cycles[side][start :
    start + size]`` begins, and the fiber shift of that move when nothing
    follows it (see the module docstring)."""
    rhs = invert_letters(band.cycles[side][start + size : start + band.L])
    return rhs, (1 - 2 * side) * band.chi * band.sign ** (start + band.L - size)


def _half_swap(band: _Band, u: Letters) -> tuple[Letters, int] | None:
    """The other half of the relator that ``u`` is half of, with the fiber
    shift of the swap, or None.  Both halves share one orientation
    character, so a swap followed by its reverse restores the fiber."""
    place = band.at.get(u) if len(u) == band.L // 2 else None
    return None if place is None else _relator_move(band, *place, band.L // 2)


def _dehn_shorten(w: Letters, band: _Band) -> tuple[Letters, int]:
    """Dehn-irreducible form of the freely reduced ``w`` and the fiber shift.

    Rewrites the leftmost cyclic subword of the relator or its inverse that
    is longer than ``L // 2``, the longest one at that position, until none
    is left, in one left-to-right pass that is linear in ``len(w)``.
    ``done`` holds the letters left of the cursor and ``todo`` the rest,
    reversed.  A rewrite and the free cancellation it sets off leave every
    letter left of the cancellation's end as it was, so no window ending
    there can match and the scan resumes ``L - 1`` letters before that end.
    The index names the one rotation that the next ``L // 2`` letters can
    start, so one lookup clears a position, or finds the subword.  The pushed
    right-hand side needs no cancellation against the next letter: it ends
    with the inverse of the letter that continues the subword in its
    rotation, and were that letter next, the longer subword would match.
    """
    cycles, at, L = band.cycles, band.at, band.L
    half = L // 2
    done: list[int] = []
    todo = list(reversed(w))
    shift = 0
    while len(todo) > half:
        window = tuple(todo[: -half - 1 : -1])
        size = half
        if window in at:
            side, start = at[window]
            while size < min(L, len(todo)) and todo[-size - 1] == cycles[side][start + size]:
                size += 1
        if size == half:
            done.append(todo.pop())
            continue
        del todo[-size:]
        rhs, e = _relator_move(band, side, start, size)
        shift += e * band.sign ** len(todo)
        todo += reversed(rhs)
        while done and todo and done[-1] == -todo[-1]:
            done.pop()
            todo.pop()
        cut = max(0, len(done) - L + 1)
        todo += reversed(done[cut:])
        del done[cut:]
    done += reversed(todo)
    return tuple(done), shift


def _half_window(w: Letters, band: _Band) -> bool:
    """Does some window of ``w`` read half a relator?"""
    at, half = band.at, band.L // 2
    return any(w[i : i + half] in at for i in range(len(w) - half + 1))


def _band_steps(band: _Band, a: int, d: int):
    """The moves out of offset ``d`` at a layer whose letter is ``a``, and
    the bit mask of their targets.

    The word ``a^-1 d y`` can cancel only at its two ends, since pieces are
    freely reduced.  Its normal form is read by rule, not by search.  It has
    at most ``L // 2 + 2`` letters, and a Dehn-reduced word that short is
    geodesic, so Dehn shortening brings it to its geodesic length.  A word of
    more than ``L // 2`` letters is then no piece.  A relator subword of
    fewer than ``L // 2`` letters is its element's only geodesic spelling,
    so it is its own normal form.  A half relator's only other geodesic
    spelling is its complement, so the shortlex-lesser of the two is."""
    L = band.L
    piece = band.pieces[d]
    body = piece[1:] if piece[:1] == (a,) else (-a,) + piece
    out = []
    for y in band.letters:
        u = body[:-1] if body[-1:] == (-y,) else body + (y,)
        s = 0
        if 2 * len(u) >= L:
            u, s = _dehn_shorten(u, band)
            swap = _half_swap(band, u)
            if swap is not None and _lex_key(swap[0]) < _lex_key(u):
                u, s = swap[0], s + swap[1]
        k = band.index.get(u)
        if k is not None:
            out.append((y, k, s))
    band.steps[a, d] = entry = (tuple(out), sum(1 << k for _, k, _ in out))
    return entry


def _dehn_normalize(letters, band: _Band) -> tuple[Letters, int]:
    """Normal form plus the accumulated fiber shift.

    The word is freed and Dehn-shortened (:func:`_dehn_shorten`, linear in
    its length) to ``w``.  If no window of ``w`` is half a relator, ``w`` is
    its only spelling of that length and is the normal form.  Otherwise a
    layered graph over ``w`` holds every spelling ``v`` of the same length
    whose offsets ``w[:j]^-1 v[:j]`` are relator pieces: geodesics of one
    element fellow-travel, so every geodesic spelling of ``w`` is a path from
    ``(0, 1)`` to ``(n, 1)``, and a non-geodesic ``w`` is exposed by a path
    through a free cancellation or a shortening key, which is spelled out,
    shortened and the search restarted.  Otherwise the greedy shortlex-least
    path is the normal form.  Each layer holds at most the ``(L - 1)^2``
    pieces (49 on genus 2, 25 on nonorientable genus 3), so a pass is linear
    in the length, and each restart shortens the word.

    The fiber shift along a path follows ``phi <- s + eps(y) * phi`` from the
    moves' shifts; the spelling ``v`` ends with ``w = v f^-phi``.
    """
    w = free_reduce(letters)
    shift = 0
    while True:
        w, moved = _dehn_shorten(w, band)
        shift += moved
        if not _half_window(w, band):
            return w, shift
        v, phi, clean = _band_walk(w, band)
        shift -= phi
        if clean:
            return v, shift
        w = free_reduce(v)


def _band_live(w: Letters, band: _Band) -> list[int]:
    """The offsets of each layer of the band over ``w`` that lie on a path
    from ``(0, 1)`` to ``(len(w), 1)``, as bit masks over ``band.pieces``.

    A layer's successor mask depends only on its letter and its own mask, so
    both sweeps are one table lookup per layer once the masks that occur
    have been seen."""
    behind = band.behind
    masks = [1]
    for a in w:
        masks.append(_band_union(band, a, masks[-1]))
    # sweep back, replacing each forward mask by its live part
    after = masks[-1] = 1
    for j in range(len(w) - 1, -1, -1):
        key = (w[j], masks[j], after)
        mask = behind.get(key)
        if mask is None:
            mask = behind[key] = sum(
                1 << d for d in _bits(masks[j]) if _band_union(band, w[j], 1 << d) & after
            )
        masks[j] = after = mask
    return masks


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, one step per set bit: a mask
    spans all ``(L - 1)^2`` pieces and is mostly zeros."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _band_union(band: _Band, a: int, mask: int) -> int:
    """The targets of the moves out of the offsets in ``mask``, kept in
    ``band.ahead``."""
    out = band.ahead.get((a, mask))
    if out is None:
        out = 0
        for d in _bits(mask):
            entry = band.steps.get((a, d)) or _band_steps(band, a, d)
            out |= entry[1]
        band.ahead[a, mask] = out
    return out


def _band_walk(w: Letters, band: _Band) -> tuple[Letters, int, bool]:
    """A path of the band over ``w`` with its fiber offset ``phi``: one
    through a free cancellation or a shortening key if there is one (``clean``
    False), else the shortlex-least one.

    ``w`` itself is a path at offset 1 throughout, so a layer whose only live
    offset is 1 pins every path to ``w``; the search for a cancellation or a
    key and the greedy sweep only run between the first and the last layer
    with a choice.  Some layer has one: ``w`` reads half a relator, and the
    other half differs from it in its first letter."""
    steps = band.steps
    n = len(w)
    live = _band_live(w, band)
    wide = [j for j, mask in enumerate(live) if mask & (mask - 1)]
    lo, hi = wide[0] - 1, wide[-1] + 1
    found = _dirty_moves(w, band, live, lo, min(n, hi + band.L // 2))
    clean = found is None
    if clean:
        found = ([], lo, 0)
    moves, j, d = found
    while j < hi or d:
        y, d, s = next(m for m in steps[w[j], d][0] if live[j + 1] >> m[1] & 1)
        moves.append((y, s))
        j += 1
    phi = 0
    for _, s in moves:
        phi = s + band.sign * phi
    phi *= band.sign ** (n - j)
    v = w[:lo] + tuple(y for y, _ in moves) + w[j:]
    return v, phi, clean


def _dirty_moves(w, band, live, lo, hi):
    """The moves from layer ``lo`` of a live path with a free cancellation or
    a shortening key before layer ``hi``, with the layer and offset where
    they stop; None if there is none.

    A state is an offset, the path's last letter and the place ``(side,
    start, size)`` of the longest suffix of two or more letters that is a
    cyclic subword of the relator or its inverse, or None.  Two letters fix
    a place, so a suffix that does not extend falls back to its last letter
    and the new one."""
    steps, cycles, at = band.steps, band.cycles, band.at
    half = band.L // 2
    last = w[lo - 1] if lo else 0
    run = at.get(w[max(lo - 2, 0) : lo])
    if run is not None:
        (side, start), size = run, 2
        while size < lo and cycles[side][start - 1] == w[lo - size - 1]:
            start, size = (start - 1) % band.L, size + 1
        run = (side, start, size)
    layer = {(0, last, run): None}
    history = [layer]
    for j in range(lo, hi):
        after = live[j + 1]
        nxt = {}
        for state in layer:
            d, last, run = state
            for y, k, s in steps[w[j], d][0]:
                if not after >> k & 1:
                    continue
                if run is not None and cycles[run[0]][run[1] + run[2]] == y:
                    ext = (run[0], run[1], run[2] + 1)
                else:
                    ext = at.get((last, y))
                    ext = None if ext is None else (*ext, 2)
                if y == -last or (ext is not None and ext[2] > half):
                    moves = [(y, s)]
                    while (back := history[-1][state]) is not None:
                        state, y, s = back
                        moves.append((y, s))
                        history.pop()
                    return moves[::-1], j + 1, k
                nxt.setdefault((k, y, ext), (state, y, s))
        layer = nxt
        history.append(layer)
    return None


# ---------------------------------------------------------------------------
# public word operations


def word(pres: Presentation, letters) -> Word:
    """Normal-form word over ``pres`` from raw letters."""
    nf, _ = _record(pres).normalize(tuple(letters))
    return Word(pres, nf)


def normal_form(u: Word) -> Word:
    return word(u.ambient, u.letters)


# -- conjugacy --------------------------------------------------------------


def conjugating_element(u: Word, v: Word) -> Word | None:
    """Some ``t`` with ``t u t^-1 = v``, or None if not conjugate."""
    if u.ambient != v.ambient:
        raise AmbientMismatchError("conjugacy needs a common presentation")
    rec = _record(u.ambient)
    t = rec.engine.conjugator(rec, normal_form(u).letters, normal_form(v).letters)
    return None if t is None else word(u.ambient, t)


def _equal_conjugator(rec, lu, lv) -> Letters | None:
    # abelian groups: conjugate only when equal
    return () if lu == lv else None


def _cyclic_conjugator(forms, sv: Letters, cv: Letters) -> Letters | None:
    """Some ``t`` with ``t u t^-1 = cv sv cv^-1``, or None, where each ``(x,
    c)`` in ``forms`` spells ``u = c x c^-1``: by an ``x == sv`` first, else
    by the first ``x`` with ``sv`` its rotation ``x[:r]^-1 x x[:r]``."""
    for x, c in forms:
        if x == sv:
            return cv + invert_letters(c)
    for x, c in forms:
        r = _rotation(x, sv)
        if r is not None:
            return cv + invert_letters(c + x[:r])
    return None


def _free_conjugator(rec, lu, lv) -> Letters | None:
    pu, su = cyclic_free_reduce(lu)
    pv, sv = cyclic_free_reduce(lv)
    return _cyclic_conjugator([(su, pu)], sv, pv)


def _klein_conjugator(rec, lu, lv) -> Letters | None:
    k1, l1 = klein_coordinates(lu)
    k2, l2 = klein_coordinates(lv)
    if l1 != l2:
        return None
    if l1 % 2 == 0:
        if (k2, l2) == (k1, l1):
            return ()
        if k2 == -k1:
            return spell_klein(0, 1)  # conjugate by h
        return None
    if (k2 - k1) % 2 != 0:
        return None
    return spell_klein((k2 - k1) // 2, 0)  # conjugate by g^t


# closed hyperbolic conjugacy: an element's minimal-length conjugates, as
# normal forms x with conjugators c (the element is c x c^-1).


def _minimal_conjugates(letters, band: _Band) -> Iterator[tuple[Letters, Letters]]:
    """The minimal-length conjugates ``(x, c)`` of the element with normal
    form ``letters``: every minimal conjugate in normal form is a listed
    ``x`` or a rotation of one, listed lazily.

    Two minimal conjugates are joined by an annulus of relator faces one
    face thick, so one is a rotation of a geodesic spelling of the other (a
    chain of conjugations by the first letters of geodesic spellings, layer 1
    of the band) or lies on the far side of a ring of faces around it (see
    :func:`_ring_partners`).  A cyclic word with a half-relator window (read
    around the cycle) needs only the search along first letters, which lists
    every minimal conjugate (a shorter one found on the way restarts it).  A
    cyclic word ``x`` with no such window is minimal, every rotation is its
    own only spelling of that length, and its other minimal conjugates are
    the rotations of its ring partners, which the list holds with it.

    Those partners read no half relator either, so no search starts from
    them.  In the universal cover every vertex has degree ``L``, and two
    edges at a vertex are consecutive in a relator exactly when they are
    adjacent around it.  At the end of a one-letter spoke from the ring to a
    partner, the partner's two edges are separated by the spoke and by
    ``L - 3 >= 3`` edges, so no relator subword of the partner passes a
    spoke.  And no face of the ring holds half a relator of the partner: it
    would leave ``L/2 - 2`` letters of ``x`` there, and swapping the half
    would run the partner through the vertices of ``x``, whose only spelling
    makes it a rotation of ``x``.  So every face holds ``L/2 - 1`` of each.
    """
    half = band.L // 2
    x, c = letters, ()
    while True:
        p, core = cyclic_free_reduce(x)
        if p:
            x, c = _dehn_normalize(core, band)[0], c + p
            continue
        if not _cyclic_half_window(x, band):
            yield x, c
            # a ring around such a word has at least two faces, each with
            # L/2 - 1 letters of it
            if len(x) % (half - 1) == 0 and len(x) > half:
                yield from ((t, c + band.pieces[d]) for t, d in _ring_partners(x, band))
            return
        seen = {x: c}
        queue = [x]
        shorter = None
        while queue and shorter is None:
            s = queue.pop()
            cs = seen[s]
            after = _band_live(s, band)[1]
            firsts = [y for y, k, _ in band.steps[s[0], 0][0] if after >> k & 1]
            for y in firsts:
                t, _ = _dehn_normalize((-y,) + s + (y,), band)
                if len(t) < len(s):
                    shorter = t, cs + (y,)
                    break
                if t not in seen:
                    seen[t] = cs + (y,)
                    queue.append(t)
        if shorter is None:
            yield from seen.items()
            return
        x, c = shorter


def _ring_partners(x: Letters, band: _Band) -> list[tuple[Letters, int]]:
    """The ring partners of the cyclic word ``x``, each with its offset ``d``:
    the normal forms ``t`` of ``d^-1 x d``, the minimal conjugates on the far
    sides of rings of relator faces around ``x``, one per cyclic word.

    The offsets ``d`` are those that start a walk once around the band over
    ``x`` back to ``d`` without meeting offset 1 (:func:`_ring_offsets`).
    Such a walk spells ``d^-1 x d``, and normal forms are canonical, so
    ``t`` is the normal form of that product.  Offsets ``x[:k]`` and
    ``x[-k:]^-1`` are skipped; their walks spell rotations of ``x``.  ``x``
    reads no half relator cyclically, so ``k < L / 2`` and such an offset is
    a relator subword, its own normal form.  A partner that is a rotation of
    ``x`` or of an earlier partner is dropped: rings around ``x`` reach one
    cyclic word from several offsets."""
    start = (1 << len(band.pieces)) - 2
    for k in range(1, band.L // 2):
        for r in (x[:k], invert_letters(x[-k:])):
            d = band.index.get(r)
            if d is not None:
                start &= ~(1 << d)
    partners = []
    for d in _bits(_ring_offsets(x, band, start) & start):
        if _ring_offsets(x, band, 1 << d) >> d & 1:
            t = _dehn_normalize(invert_letters(band.pieces[d]) + x + band.pieces[d], band)[0]
            if all(_rotation(y, t) is None for y in (x, *(p for p, _ in partners))):
                partners.append((t, d))
    return partners


def _cyclic_half_window(x: Letters, band: _Band) -> bool:
    """Does the cyclic word ``x`` read half a relator anywhere?"""
    half = band.L // 2
    return _half_window((x * (half // len(x) + 2))[: len(x) + half - 1], band)


def _ring_offsets(x: Letters, band: _Band, start: int) -> int:
    """The offsets that walks once around the band over ``x`` from the
    offsets in the mask ``start`` reach without meeting offset 1 (such a walk
    only spells a rotation of ``x``), by the band's shared mask table."""
    mask = start
    for a in x:
        mask = _band_union(band, a, mask) & ~1
        if not mask:
            break
    return mask


def _dehn_conjugator(rec, lu, lv) -> Letters | None:
    # conjugates share their H_1 class, so compare the classes before any search
    if not lu or not lv:
        return () if lu == lv else None
    if _homology(rec.presentation, lu) != _homology(rec.presentation, lv):
        return None
    sv, cv = next(_minimal_conjugates(lv, rec.band))
    return _cyclic_conjugator(list(_minimal_conjugates(lu, rec.band)), sv, cv)


def _homology(pres, letters) -> tuple[tuple[int, ...], int]:
    """The H_1 class of ``letters`` on a closed surface, as free coordinates
    and crosscap parity: ``(v, 0)`` for the exponent vector ``v`` if it is
    orientable, else ``v_i - v_0`` (``i >= 1``) and ``v_0 mod 2``, as the
    relator row is ``(2, ..., 2)``.  Two words agree exactly in one class."""
    v = exponent_vector(pres, letters)
    return (v, 0) if pres.surface.orientable else (tuple(x - v[0] for x in v[1:]), v[0] % 2)


def _area_class(pres, letters) -> tuple[int, ...]:
    """The area class of a null-homologous word on a closed orientable
    surface: ``A(p, q)``, ``p < q``, adds ``s V_p`` for each letter ``q^s``,
    ``V`` the exponent vector before it.  The relator adds 1 at each ``(a_i,
    b_i)``, so ``A(a1, b1)`` is taken off the other ``(a_i, b_i)`` and
    dropped.  The class adds on products and conjugation keeps it, so an
    ``e``-th power's class is ``e`` times its root's."""
    v = [0] * len(pres.generators)
    area = [[0] * q for q in range(len(v))]
    for x in letters:
        q, s = abs(x) - 1, 1 if x > 0 else -1
        area[q] = [a + s * b for a, b in zip(area[q], v)]
        v[q] += s
    for i in range(3, len(v), 2):
        area[i][i - 1] -= area[1][0]
    return tuple(c for row in area[2:] for c in row)


# -- primitive roots ---------------------------------------------------------


def primitive_root(u: Word) -> tuple[Word, int]:
    """(root, exponent) with ``root**exponent == u`` and the exponent maximal.

    The root generates the maximal cyclic subgroup containing ``u`` wherever
    that subgroup is unique (free and closed hyperbolic regimes, the torus,
    and most of the Klein bottle); for pure even powers of the Klein
    orientation-reversing side the choice ``h`` is fixed by convention.
    """
    rec = _record(u.ambient)
    if rec.engine.root is None:
        raise ValueError("primitive roots are undefined on finite fundamental groups")
    un = normal_form(u)
    if not un.letters:
        raise TrivialWordError("the identity has no primitive root")
    root, k = rec.engine.root(rec, un.letters)
    return Word(u.ambient, root), k


def _torus_root(rec, letters) -> tuple[Letters, int]:
    p, q = exponent_vector(rec.presentation, letters)
    d = math.gcd(abs(p), abs(q))
    return spell_torus(p // d, q // d), d


def _free_root(rec, letters) -> tuple[Letters, int]:
    prefix, core = cyclic_free_reduce(letters)
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            return free_reduce(prefix + core[:d] + invert_letters(prefix)), n // d
    raise AssertionError("unreachable")


def _klein_root(rec, letters) -> tuple[Letters, int]:
    k, l = klein_coordinates(letters)
    if l % 2 != 0 or k == 0:
        # (g^k h^s)^|l| = g^k h^l for s = sign(l); for a pure even power of
        # h (k = 0) every g^a h generates a cyclic group through it, so the
        # root h^s is only canonical by convention
        return spell_klein(k, 1 if l > 0 else -1), abs(l)
    d = math.gcd(abs(k), abs(l) // 2)
    return spell_klein(k // d, l // d), d


def _dehn_root(rec, letters) -> tuple[Letters, int]:
    """An ``e``-th root of an element has a conjugate ``t`` with ``t^e`` a
    minimal conjugate ``x``, spelled by the first ``len(x) // e`` letters of
    ``x`` and a relator piece; ``t^e`` can be shorter than ``e`` times ``t``.
    The H_1 class (:func:`_homology`) of ``t`` is ``1 / e`` of that of ``x``,
    so ``e`` divides the free coordinates (even only at crosscap parity 0)
    and only the pieces that complete the class are tried, largest ``e`` first.
    Where those coordinates are all 0 on an orientable surface, ``e`` also
    divides the area class (:func:`_area_class`)."""
    pres, band = rec.presentation, rec.band
    free, parity = _homology(pres, letters)
    g = math.gcd(*free)
    if not g and pres.surface.orientable:
        g = math.gcd(*_area_class(pres, letters))
    if g == 1:
        return letters, 1
    x, c = next(_minimal_conjugates(letters, band))
    n = len(x)
    for e in range(n, 1, -1):
        if g % e or parity and e % 2 == 0:
            continue
        key = _class_key(tuple(v // e - h for v, h in zip(free, _homology(pres, x[: n // e])[0])), band.L)
        for d in band.classes.get(key, ()):
            t, _ = _dehn_normalize(x[: n // e] + band.pieces[d], band)
            # a cyclic word that reads no half relator spells its own powers
            rigid = t and t[0] != -t[-1] and not _cyclic_half_window(t, band)
            if (t * e if rigid else _dehn_normalize(t * e, band)[0]) == x:
                return _dehn_normalize(c + t + invert_letters(c), band)[0], e
    return letters, 1


# ---------------------------------------------------------------------------
# the engine table


class _Engine(namedtuple("_Engine", "normalize conjugator root")):
    """How one regime normalizes, conjugates and takes roots.

    Each function takes the surface's :class:`SurfaceRecord` and answers in
    plain letters.  ``normalize(rec, letters)`` returns the normal-form
    letters and the fiber shift.  ``conjugator(rec, lu, lv)`` takes normal
    forms and returns some ``t`` with ``t u t^-1 = v``, in any spelling, or
    None.  ``root(rec, letters)`` takes a nontrivial normal form and returns
    the primitive root, as a normal form, and the exponent.  ``root`` is
    None on the finite groups, where primitive roots are undefined."""

    __slots__ = ()


def _rp2_normalize(rec, letters) -> tuple[Letters, int]:
    # c1^2 is the fiber class upstairs, so c1^exp = c1^(exp mod 2) f^(exp // 2)
    exp = sum(1 if x > 0 else -1 for x in letters)
    return ((1,) if exp % 2 else ()), exp // 2


_DEHN_ENGINE = _Engine(lambda rec, letters: _dehn_normalize(letters, rec.band), _dehn_conjugator, _dehn_root)

_ENGINES = {
    Regime.SPHERE: _Engine(lambda rec, letters: ((), 0), _equal_conjugator, None),
    Regime.RP2: _Engine(_rp2_normalize, _equal_conjugator, None),
    Regime.TORUS: _Engine(
        lambda rec, letters: (spell_torus(*exponent_vector(rec.presentation, letters)), 0),
        _equal_conjugator,
        _torus_root,
    ),
    Regime.KLEIN: _Engine(
        lambda rec, letters: (spell_klein(*klein_coordinates(letters)), 0), _klein_conjugator, _klein_root
    ),
    Regime.PUNCTURED: _Engine(lambda rec, letters: (free_reduce(letters), 0), _free_conjugator, _free_root),
    Regime.CLOSED_ORIENTABLE_HYPERBOLIC: _DEHN_ENGINE,
    Regime.CLOSED_NONORIENTABLE_HYPERBOLIC: _DEHN_ENGINE,
}


# ---------------------------------------------------------------------------
# the per-surface record


class STWord(namedtuple("STWord", "base fiber")):
    """Normal-form element of the tangent-bundle fundamental group: a base
    :class:`Word` and a fiber exponent; ``surface`` is the base's.  Where the
    group is finite the fiber is reduced mod 2 and ``residue`` names the
    element: its letters (the crosscap lift, 1) plus half the order per fiber
    class; elsewhere it is None.  Arithmetic lives in :mod:`curvespace.stbundle`."""

    __slots__ = ()

    @property
    def surface(self) -> SurfaceSpec:
        return self.base.ambient.surface

    @property
    def residue(self) -> int | None:
        order = surface_record(self.surface).order
        return None if order is None else len(self.base.letters) + order // 2 * self.fiber

    def __str__(self) -> str:
        return st_text(self)


class SurfaceRecord(
    namedtuple("SurfaceRecord", "presentation regime engine order names lifts fiber band")
):
    """What every call over one surface reads, resolved once by
    :func:`surface_record`.

    ``presentation`` is the surface's, ``regime`` its
    :class:`~curvespace.surfaces.Regime` (the classification's case split)
    and ``engine`` that regime's.  ``order`` is the tangent-bundle group's
    order where :data:`~curvespace.surfaces.FINITE_ORDERS` lists one, else
    None.  ``names`` are the generator names and then the fiber letter
    ``f``, ``lifts`` the lift of each generator at fiber zero and ``fiber``
    the fiber class.  ``band`` holds the relator index and band of the closed
    hyperbolic engine (:func:`_band_tables`); on the other regimes it is None."""

    __slots__ = ()

    def normalize(self, letters) -> tuple[Letters, int]:
        """Normal-form letters and the fiber exponent picked up by relator
        moves.

        The shift is nonzero only on the closed hyperbolic regimes and the
        projective plane: free reduction is exact, the torus/Klein relators
        lift without any fiber twist (their Euler characteristic vanishes),
        and on the projective plane ``c1^2`` is the fiber class upstairs.  A
        letter outside the generator range raises :class:`WordParseError`."""
        n = len(self.presentation.generators)
        for x in letters:
            if x == 0 or abs(x) > n:
                raise WordParseError(f"letter {x} outside the generator range")
        return self.engine.normalize(self, letters)

    def lift(self, letters, fiber: int) -> STWord:
        """The tangent-bundle element ``letters * f**fiber`` in normal form, its
        fiber reduced mod 2 on a finite group (the fiber class has order 2)."""
        nf, shift = self.normalize(letters)
        fiber += shift
        return STWord(Word(self.presentation, nf), fiber if self.order is None else fiber % 2)


@cache
def surface_record(spec: SurfaceSpec) -> SurfaceRecord:
    """The record of ``spec``, built on the surface's first use; the
    element operations look up no regime after that."""
    pres = presentation(spec)
    reg = regime(spec)
    order = FINITE_ORDERS.get(reg)
    names = pres.names() + ("f",)
    engine = _ENGINES[reg]
    band = _band_tables(pres) if engine is _DEHN_ENGINE else None
    rec = SurfaceRecord(pres, reg, engine, order, names, (), None, band)
    lifts = tuple(rec.lift((x,), 0) for x in range(1, len(names)))
    return rec._replace(lifts=lifts, fiber=rec.lift((), 1))


def _record(pres: Presentation) -> SurfaceRecord:
    rec = None if pres.surface is None else surface_record(pres.surface)
    # ``pres`` is nearly always the record's own object, compared at once
    if rec is None or pres is not rec.presentation and pres != rec.presentation:
        raise ValueError(
            "words need a surface's own presentation; the stbundle module handles "
            "tangent-bundle words and the oracle ad-hoc presentations"
        )
    return rec


# ---------------------------------------------------------------------------
# text form


_TOKEN = re.compile(r"([A-Za-z]+[0-9]*)(?:\^(-?[0-9]+))?$")

#: most letters a word may expand to: powers are spelled out letter by
#: letter, so this bounds the time and memory a parse can take
_MAX_WORD_LETTERS = 1_000_000


def _token_power(token: str, names: tuple[str, ...]) -> tuple[int, int]:
    """The generator number of a token other than ``1`` and its signed
    power."""
    m = _TOKEN.fullmatch(token)
    if not m:
        raise WordParseError(f"bad token {token!r}")
    name, power = m.group(1), m.group(2) or "1"
    sign = 1
    if name[0].isupper():
        sign = -1
        name = name.lower()
    try:
        idx = names.index(name) + 1
    except ValueError:
        raise WordParseError(f"unknown generator {name!r}") from None
    if power[0] == "-":
        sign, power = -sign, power[1:]
    power = power.lstrip("0") or "0"
    if len(power) > len(str(_MAX_WORD_LETTERS)):
        # over the cap whatever the rest of the word, and int() refuses a
        # string of more than 4300 digits
        _check_length(_MAX_WORD_LETTERS + 1)
    return idx, sign * int(power)


@lru_cache(maxsize=128)
def _letter_table(names: tuple[str, ...]) -> dict[str, int]:
    """The signed letter of each token that spells one letter: every name
    and its uppercase inverse, each read by :func:`_token_power`, so the
    table answers as the general path does.  Every name, a generator of a
    surface presentation (``a1``, ``c3``, ``z2``) or the fiber ``f``, reads
    as one letter with no power.  Built once per name tuple."""
    table = {}
    for name in names:
        for token in (name, name.upper()):
            idx, power = _token_power(token, names)
            table[token] = idx * power
    return table


def _check_length(length: int) -> None:
    if length > _MAX_WORD_LETTERS:
        raise WordParseError(f"the word expands to more than {_MAX_WORD_LETTERS} letters")


def parse_letters(text: str, names: tuple[str, ...]) -> Letters:
    """Parse the word grammar over the given generator names.

    Lowercase names, uppercase = inverse, ``^`` powers, juxtaposition with
    spaces, and ``1`` for the empty word.  A word whose powers add up to
    more than ``_MAX_WORD_LETTERS`` letters is rejected before it is spelled
    out.  Tokens of one letter are looked up in the names' letter table
    (:func:`_letter_table`); the rest go through the token grammar.
    """
    table = _letter_table(names)
    out: list[int] = []
    for token in text.split():
        letter = table.get(token)
        if letter is not None:
            out.append(letter)
            continue
        # a table token adds one letter and cannot fail otherwise, so the
        # length is checked before the next token that can fail, and at the
        # end: the first error in token order is the one raised
        _check_length(len(out))
        if token == "1":
            continue
        idx, total = _token_power(token, names)
        if total:
            _check_length(len(out) + abs(total))
            out += [idx if total > 0 else -idx] * abs(total)
    _check_length(len(out))
    return tuple(out)


def parse_word(text: str, pres: Presentation) -> Word:
    return word(pres, parse_letters(text, pres.names()))


def st_text(u: STWord) -> str:
    """Text of a tangent-bundle element: the base word, then the fiber
    power.  On the projective plane, the finite group with a generator, the
    residue is spelled as a power of the crosscap lift ``c1``; the sphere's
    base is empty and its fiber is 0 or 1, so it reads ``1`` or ``f``."""
    if u.residue is not None and u.base.ambient.generators:
        return u.base.ambient.spell((1,) * u.residue)
    base = u.base.ambient.spell(u.base.letters) if u.base.letters else ""
    if u.fiber == 0:
        return base or "1"
    ftxt = "f" if u.fiber == 1 else ("F" if u.fiber == -1 else (f"f^{u.fiber}" if u.fiber > 0 else f"F^{-u.fiber}"))
    return f"{base} {ftxt}".strip()
