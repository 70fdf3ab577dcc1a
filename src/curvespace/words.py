"""Exact arithmetic in surface fundamental groups.

Each regime has one engine, and the table ``_ENGINES`` is the only place
where a regime picks its algorithm.  An engine normalizes letters (with the
fiber shift described below), finds conjugators and finds primitive roots.
Normal forms by regime:

* free (punctured surfaces): free reduction;
* torus: exponent vector, spelled ``a1^p b1^q``;
* Klein bottle: semidirect coordinates ``g^k h^l`` with ``g = c1 c2``
  (orientation preserving) and ``h = c2^-1`` (orientation reversing),
  multiplied with ``h g = g^-1 h``; spelled back in the crosscap letters;
* closed hyperbolic (orientable genus >= 2, nonorientable genus >= 3):
  free reduction, Dehn shortening of subwords longer than half a cyclically
  rotated relator, and replacement of exactly-half subwords by their
  lexicographically smaller complements, both read from one table of
  relator moves built once per surface.  Together these rewrite every word
  of the one-relator surface presentations to a unique shortlex-minimal form.
  The shortening pass is linear in the word's length n.  The swap phase
  costs O(L^2) per swap it tries (L the relator length) plus the O(n) copy
  of each new orbit state; the orbit itself can grow exponentially and is
  capped;
* projective plane: the parity of the exponent sum; sphere: the empty word.

Words are normalized only over the surface presentations that
:func:`curvespace.surfaces.presentation` builds.  Tangent-bundle
presentations (handled by :mod:`curvespace.stbundle`) and ad-hoc
presentations without a surface (handled by the oracle) raise ``ValueError``.

The relator moves carry a fiber exponent so that the tangent-bundle module
can reuse them: the surface relator equals ``f**chi`` upstairs, so removing a
rotated copy shifts the fiber by ``chi`` times the orientation character of
the rotation prefix, twisted by the character of everything to the right of
the replacement.
"""

from __future__ import annotations

import math
import re
from functools import cache
from typing import Callable, NamedTuple

from .surfaces import (
    Presentation,
    Regime,
    SurfaceSpec,
    euler_characteristic,
    presentation,
    regime,
)


class AmbientMismatchError(ValueError):
    """Operands live over different presentations."""


class TrivialWordError(ValueError):
    """Operation undefined for the identity element."""


class WordParseError(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """A bounded search hit its cap before deciding."""


Letters = tuple[int, ...]


class Word(NamedTuple):
    """A group element over ``ambient``, stored as its normal-form letters."""

    ambient: Presentation
    letters: Letters

    def __str__(self) -> str:
        return self.ambient.spell(self.letters)

    def __len__(self) -> int:
        """The number of letters, not of fields."""
        return len(self.letters)


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


def _lex_key(letters) -> tuple:
    return tuple((abs(x), 0 if x > 0 else 1) for x in letters)


# ---------------------------------------------------------------------------
# torus and Klein-bottle exponent engines


def torus_exponents(letters) -> tuple[int, int]:
    p = q = 0
    for x in letters:
        if abs(x) == 1:
            p += 1 if x > 0 else -1
        else:
            q += 1 if x > 0 else -1
    return p, q


def spell_torus(p: int, q: int) -> Letters:
    sa = (1,) if p >= 0 else (-1,)
    sb = (2,) if q >= 0 else (-2,)
    return sa * abs(p) + sb * abs(q)


# Klein coordinates: elements are g^k h^l with g = c1 c2, h = c2^-1 and the
# exchange law h g = g^-1 h, i.e. (k1,l1)*(k2,l2) = (k1 + (-1)^l1 k2, l1+l2).

_KLEIN_LETTER = {1: (1, 1), -1: (1, -1), 2: (0, -1), -2: (0, 1)}


def klein_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    k1, l1 = a
    k2, l2 = b
    return k1 + (k2 if l1 % 2 == 0 else -k2), l1 + l2


def klein_coordinates(letters) -> tuple[int, int]:
    acc = (0, 0)
    for x in letters:
        acc = klein_product(acc, _KLEIN_LETTER[x])
    return acc


def spell_klein(k: int, l: int) -> Letters:
    glide = (1, 2) if k >= 0 else (-2, -1)
    vert = (-2,) if l >= 0 else (2,)
    return free_reduce(glide * abs(k) + vert * abs(l))


# ---------------------------------------------------------------------------
# Dehn rewriting for closed hyperbolic regimes


@cache
def _dehn_tables(surface: SurfaceSpec):
    """The relator moves of a closed hyperbolic surface, built once per
    surface, and the character that all its generators share (+1 on
    orientable surfaces, -1 for crosscaps), so that a word's character is
    that sign to the power of its length.

    The moves map every prefix, of length ``L`` down to ``L / 2``, of every
    rotation of the relator and of its inverse to (the inverse of the rest of
    that rotation, the lifted fiber exponent of the rotation, the orientation
    character of that inverse).  A key longer than ``L / 2`` shortens a word
    and a key of exactly ``L / 2`` swaps it for its complement; ``L`` is even
    (``4g`` or ``2k``).  Every generator occurs twice in the relator, so no
    two-letter subword occurs twice among these rotations and every key has
    one move.  Both halves of a relator share one orientation character, so
    a swap followed by its reverse restores the fiber exactly.
    """
    pres = presentation(surface)
    (sign,) = {g.character for g in pres.generators}
    relator = pres.relators[0]
    chi = euler_characteristic(surface)
    L = len(relator)
    moves: dict[Letters, tuple[Letters, int, int]] = {}
    for delta, base in ((1, relator), (-1, invert_letters(relator))):
        for rot in range(L):
            variant = base[rot:] + base[:rot]
            e = delta * chi * pres.word_character(base[:rot])
            for cut in range(L, L // 2 - 1, -1):
                rhs = invert_letters(variant[cut:])
                moves[variant[:cut]] = (rhs, e, pres.word_character(rhs))
    return moves, sign


# cap on the fixed-length swap orbit explored per normalization; generous for
# desk-scale words, loud (SearchExhausted) rather than silently wrong beyond
_SWAP_ORBIT_CAP = 4096


def _dehn_shorten(w: Letters, moves, L: int, sign: int) -> tuple[Letters, int]:
    """Dehn-irreducible form of the freely reduced ``w`` and the fiber shift.

    Rewrites the leftmost occurrence of a shortening key (one longer than
    ``L // 2``), the longest one at that position, until none is left, in one
    left-to-right pass that is linear in ``len(w)``.  ``done`` holds the letters left of the cursor and
    ``todo`` the rest, reversed.  A rewrite and the free cancellation it sets
    off leave every letter left of the cancellation's end as it was, so no
    window ending there can match and the scan resumes ``L - 1`` letters
    before that end.  The first ``L // 2 + 1`` letters of a key are a key
    themselves, so one lookup clears a position.  The pushed right-hand side
    needs no cancellation against the next letter: it is freely reduced and
    ends with the inverse of the letter that continues the key in its
    rotation, and were that letter next, the longer key would have matched.
    """
    lo = L // 2 + 1
    done: list[int] = []
    todo = list(reversed(w))
    shift = 0
    while len(todo) >= lo:
        if tuple(todo[: -lo - 1 : -1]) not in moves:
            done.append(todo.pop())
            continue
        window = tuple(todo[: -L - 1 : -1])
        size = next(k for k in range(len(window), lo - 1, -1) if window[:k] in moves)
        rhs, e, eps_rhs = moves[window[:size]]
        del todo[-size:]
        shift += e * eps_rhs * sign ** len(todo)
        todo += reversed(rhs)
        while done and todo and done[-1] == -todo[-1]:
            done.pop()
            todo.pop()
        cut = max(0, len(done) - L + 1)
        todo += reversed(done[cut:])
        del done[cut:]
    done += reversed(todo)
    return tuple(done), shift


def _dehn_normalize(letters, pres: Presentation) -> tuple[Letters, int]:
    """Normal form plus the accumulated fiber shift.

    Phase 1 frees and Dehn-shortens the word (:func:`_dehn_shorten`, linear
    in its length).  Phase 2 explores the orbit of the result under
    half-relator swaps and takes the shortlex-least member, going back to
    phase 1 whenever a swap exposes a further shortening.  Every orbit state
    is freely reduced and Dehn-irreducible, so a swap at ``i`` can only
    cancel at its two seams or shorten through a window that overlaps
    ``[i, i + L/2)``: a swap costs O(L^2) for those checks plus the copy of
    the state.  Equal-length spellings of one element are connected by such
    swaps in the one-relator surface presentations, which makes the result a
    canonical form; the randomized associativity suites and the brute-force
    oracle cross-check this.
    """
    moves, sign = _dehn_tables(pres.surface)
    L = len(pres.relators[0])
    half = L // 2
    lo = half + 1
    w = free_reduce(letters)
    shift = 0
    while True:
        w, moved = _dehn_shorten(w, moves, L, sign)
        shift += moved
        # phase 2: canonicalize across the fixed-length swap orbit
        seen: dict[Letters, int] = {w: shift}
        stack = [w]
        restart = None
        while stack and restart is None:
            s = stack.pop()
            fs = seen[s]
            n = len(s)
            for i in range(n - half + 1):
                move = moves.get(s[i : i + half])
                if move is None:
                    continue
                rhs, e, eps_rhs = move
                head, tail = s[:i], s[i + half :]
                cand_shift = fs + e * eps_rhs * sign ** len(tail)
                cand = head + rhs + tail
                # the starts of the shortest windows that overlap the swap
                starts = range(max(0, i - half), min(i + half, n - half))
                if (
                    (head and head[-1] == -rhs[0])
                    or (tail and tail[0] == -rhs[-1])
                    or any(cand[j : j + lo] in moves for j in starts)
                ):
                    restart = (free_reduce(cand), cand_shift)
                    break
                if cand in seen:
                    if seen[cand] != cand_shift:
                        raise AssertionError("inconsistent fiber bookkeeping")
                    continue
                if len(seen) >= _SWAP_ORBIT_CAP:
                    raise SearchExhausted("half-relator swap orbit exceeded its cap")
                seen[cand] = cand_shift
                stack.append(cand)
        if restart is not None:
            w, shift = restart
            continue
        best = min(seen, key=_lex_key)
        return best, seen[best]


def normalize_with_fiber(letters, pres: Presentation) -> tuple[Letters, int]:
    """Normal-form letters and the fiber exponent picked up by relator moves.

    The shift is zero away from the closed hyperbolic regimes: free reduction
    is exact, and the torus/Klein relators lift without any fiber twist
    (their Euler characteristic vanishes).
    """
    return _engine(pres).normalize(letters, pres)


# ---------------------------------------------------------------------------
# public word operations


def word(pres: Presentation, letters) -> Word:
    """Normal-form word over ``pres`` from raw letters."""
    for x in letters:
        if x == 0 or abs(x) > len(pres.generators):
            raise WordParseError(f"letter {x} outside the generator range")
    nf, _ = normalize_with_fiber(tuple(letters), pres)
    return Word(pres, nf)


def identity(pres: Presentation) -> Word:
    return Word(pres, ())


def normal_form(u: Word) -> Word:
    return word(u.ambient, u.letters)


def multiply(u: Word, v: Word) -> Word:
    if u.ambient != v.ambient:
        raise AmbientMismatchError("cannot multiply words over different presentations")
    return word(u.ambient, u.letters + v.letters)


def invert(u: Word) -> Word:
    return word(u.ambient, invert_letters(u.letters))


def is_trivial(u: Word) -> bool:
    nf, _ = normalize_with_fiber(u.letters, u.ambient)
    return nf == ()


def orientation_character(u: Word) -> int:
    return u.ambient.word_character(u.letters)


# -- conjugacy --------------------------------------------------------------


def is_conjugate(u: Word, v: Word) -> bool:
    return conjugating_element(u, v) is not None


def conjugating_element(u: Word, v: Word) -> Word | None:
    """Some ``t`` with ``t u t^-1 = v``, or None if not conjugate."""
    if u.ambient != v.ambient:
        raise AmbientMismatchError("conjugacy needs a common presentation")
    pres = u.ambient
    conjugator = _engine(pres).conjugator
    return conjugator(pres, normal_form(u).letters, normal_form(v).letters)


def _equal_conjugator(pres, lu, lv) -> Word | None:
    # abelian groups: conjugate only when equal
    return identity(pres) if lu == lv else None


def _free_conjugator(pres, lu, lv) -> Word | None:
    pu, su = cyclic_free_reduce(lu)
    pv, sv = cyclic_free_reduce(lv)
    if len(su) != len(sv):
        return None
    if not su:
        return identity(pres)
    doubled = su + su
    for r in range(len(su)):
        if doubled[r : r + len(su)] == sv:
            # v = pv * rot_r(su) * pv^-1 and rot_r(su) = su[:r]^-1 su su[:r]
            t = pv + invert_letters(su[:r]) + invert_letters(pu)
            return word(pres, t)
    return None


def _klein_conjugator(pres, lu, lv) -> Word | None:
    k1, l1 = klein_coordinates(lu)
    k2, l2 = klein_coordinates(lv)
    if l1 != l2:
        return None
    if l1 % 2 == 0:
        if (k2, l2) == (k1, l1):
            return identity(pres)
        if k2 == -k1:
            return word(pres, spell_klein(0, 1))  # conjugate by h
        return None
    if (k2 - k1) % 2 != 0:
        return None
    return word(pres, spell_klein((k2 - k1) // 2, 0))  # conjugate by g^t


# closed hyperbolic conjugacy: breadth-first search over the cyclic forms
# reachable by rotations, Dehn shortenings and half-relator swaps.  States
# carry the conjugator needed to recover the original element.

_ORBIT_CAP = 20000


def _cyclic_orbit(pres, letters) -> dict[Letters, Letters]:
    """All reachable cyclic spellings ``s`` with conjugators ``c``:
    the input element equals ``c s c^-1``."""
    moves, _ = _dehn_tables(pres.surface)
    L = len(pres.relators[0])
    half = L // 2
    p0, s0 = cyclic_free_reduce(letters)
    seen: dict[Letters, Letters] = {s0: p0}
    queue = [s0]
    while queue:
        s = queue.pop()
        c = seen[s]
        n = len(s)
        nexts: list[tuple[Letters, Letters]] = []
        if n:
            rot = s[1:] + s[:1]
            nexts.append((rot, c + s[:1]))
        for i in range(n):
            for size in range(min(L, n - i), half - 1, -1):
                move = moves.get(s[i : i + size])
                if move is not None:
                    repl = free_reduce(s[:i] + move[0] + s[i + size :])
                    extra, core = cyclic_free_reduce(repl)
                    nexts.append((core, c + extra))
        for core, conj in nexts:
            if core not in seen:
                if len(seen) >= _ORBIT_CAP:
                    raise SearchExhausted("conjugacy orbit exceeded its cap")
                seen[core] = conj
                queue.append(core)
    return seen


def _dehn_conjugator(pres, lu, lv) -> Word | None:
    # abelianized certificate first: exponent vectors must agree modulo the
    # relator row (zero for commutator relators, (2,...,2) for crosscaps)
    if not _abelian_conjugacy_possible(pres, lu, lv):
        return None
    orbit_u = _cyclic_orbit(pres, lu)
    orbit_v = _cyclic_orbit(pres, lv)
    for s, cv in orbit_v.items():
        cu = orbit_u.get(s)
        if cu is not None:
            return word(pres, cv + invert_letters(cu))
    return None


def _abelian_conjugacy_possible(pres, lu, lv) -> bool:
    n = len(pres.generators)
    eu = [0] * n
    for x in lu:
        eu[abs(x) - 1] += 1 if x > 0 else -1
    for x in lv:
        eu[abs(x) - 1] -= 1 if x > 0 else -1
    if not pres.surface.orientable:
        # difference must be an integer multiple of (2, 2, ..., 2)
        t = eu[0]
        return all(d == t for d in eu) and t % 2 == 0
    return all(d == 0 for d in eu)


# -- primitive roots ---------------------------------------------------------


def primitive_root(u: Word) -> tuple[Word, int]:
    """(root, exponent) with ``root**exponent == u`` and the exponent maximal.

    The root generates the maximal cyclic subgroup containing ``u`` wherever
    that subgroup is unique (free and closed hyperbolic regimes, the torus,
    and most of the Klein bottle); for pure even powers of the Klein
    orientation-reversing side the choice ``h`` is fixed by convention.
    """
    pres = u.ambient
    root = _engine(pres).root
    if root is None:
        raise ValueError("primitive roots are undefined on finite fundamental groups")
    un = normal_form(u)
    if not un.letters:
        raise TrivialWordError("the identity has no primitive root")
    return root(pres, un.letters)


def _torus_root(pres, letters) -> tuple[Word, int]:
    p, q = torus_exponents(letters)
    d = math.gcd(abs(p), abs(q))
    return word(pres, spell_torus(p // d, q // d)), d


def _free_root(pres, letters) -> tuple[Word, int]:
    prefix, core = cyclic_free_reduce(letters)
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            root = free_reduce(prefix + core[:d] + invert_letters(prefix))
            return Word(pres, root), n // d
    raise AssertionError("unreachable")


def _klein_root(pres, letters) -> tuple[Word, int]:
    k, l = klein_coordinates(letters)
    if l % 2 != 0:
        # (g^k h^s)^|l| = g^k h^l for s = sign(l)
        s = 1 if l > 0 else -1
        return word(pres, spell_klein(k, s)), abs(l)
    if k == 0:
        # pure even power of h; every g^a h generates a cyclic group through
        # it, so the root is only canonical by convention
        s = 1 if l > 0 else -1
        return word(pres, spell_klein(0, s)), abs(l)
    d = math.gcd(abs(k), abs(l) // 2)
    return word(pres, spell_klein(k // d, l // d)), d


def _dehn_root(pres, letters) -> tuple[Word, int]:
    orbit = _cyclic_orbit(pres, letters)
    best: tuple[int, Letters, Letters] | None = None  # (exponent, root, conj)
    for s, c in orbit.items():
        n = len(s)
        for d in range(1, n + 1):
            if n % d == 0 and s == s[:d] * (n // d):
                if best is None or n // d > best[0]:
                    best = (n // d, s[:d], c)
                break
    assert best is not None
    e, seed, c = best
    root = word(pres, c + seed + invert_letters(c))
    # sanity: root^e really is u (``letters`` is already in normal form)
    power = word(pres, root.letters * e)
    if power.letters != letters:
        raise AssertionError("primitive root verification failed")
    return root, e


# ---------------------------------------------------------------------------
# the engine table


class _Engine(NamedTuple):
    """How one regime normalizes, conjugates and takes roots.

    ``normalize(letters, pres)`` returns the normal-form letters and the
    fiber shift; ``conjugator(pres, lu, lv)`` and ``root(pres, letters)`` take
    normal-form letters (``root`` only nontrivial ones) and answer as
    :func:`conjugating_element` and :func:`primitive_root` do.  ``root`` is
    None on the finite groups, where primitive roots are undefined.
    """

    normalize: Callable[[Letters, Presentation], tuple[Letters, int]]
    conjugator: Callable[[Presentation, Letters, Letters], Word | None]
    root: Callable[[Presentation, Letters], tuple[Word, int]] | None


def _rp2_normalize(letters, pres) -> tuple[Letters, int]:
    exp = sum(1 if x > 0 else -1 for x in letters)
    return ((1,) if exp % 2 else ()), 0


_DEHN_ENGINE = _Engine(_dehn_normalize, _dehn_conjugator, _dehn_root)

_ENGINES = {
    Regime.SPHERE: _Engine(lambda letters, pres: ((), 0), _equal_conjugator, None),
    Regime.RP2: _Engine(_rp2_normalize, _equal_conjugator, None),
    Regime.TORUS: _Engine(
        lambda letters, pres: (spell_torus(*torus_exponents(letters)), 0),
        _equal_conjugator,
        _torus_root,
    ),
    Regime.KLEIN: _Engine(
        lambda letters, pres: (spell_klein(*klein_coordinates(letters)), 0),
        _klein_conjugator,
        _klein_root,
    ),
    Regime.PUNCTURED: _Engine(
        lambda letters, pres: (free_reduce(letters), 0), _free_conjugator, _free_root
    ),
    Regime.CLOSED_ORIENTABLE_HYPERBOLIC: _DEHN_ENGINE,
    Regime.CLOSED_NONORIENTABLE_HYPERBOLIC: _DEHN_ENGINE,
}


def _engine(pres: Presentation) -> _Engine:
    if pres.lifted:
        raise ValueError("tangent-bundle words are handled by the stbundle module")
    if pres.surface is None:
        raise ValueError("words need a surface presentation; the oracle handles ad-hoc ones")
    return _ENGINES[regime(pres.surface)]


# ---------------------------------------------------------------------------
# text form


_TOKEN = re.compile(r"([A-Za-z]+[0-9]*)(?:\^(-?[0-9]+))?$")

#: most letters a word may expand to: powers are spelled out letter by
#: letter, so this bounds the time and memory a parse can take
_MAX_WORD_LETTERS = 1_000_000


def parse_letters(text: str, names: tuple[str, ...]) -> Letters:
    """Parse the word grammar over the given generator names.

    Lowercase names, uppercase = inverse, ``^`` powers, juxtaposition with
    spaces, and ``1`` for the empty word.  A word whose powers add up to
    more than ``_MAX_WORD_LETTERS`` letters is rejected before it is spelled
    out.
    """
    out: list[int] = []
    length = 0
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN.fullmatch(token)
        if not m:
            raise WordParseError(f"bad token {token!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        sign = 1
        if name[0].isupper():
            sign = -1
            name = name.lower()
        try:
            idx = names.index(name) + 1
        except ValueError:
            raise WordParseError(f"unknown generator {name!r}") from None
        total = sign * power
        if total:
            length += abs(total)
            if length > _MAX_WORD_LETTERS:
                raise WordParseError(f"the word expands to more than {_MAX_WORD_LETTERS} letters")
            out += [idx if total > 0 else -idx] * abs(total)
    return tuple(out)


def parse_word(text: str, pres: Presentation) -> Word:
    return word(pres, parse_letters(text, pres.names()))


def word_text(u: Word) -> str:
    return u.ambient.spell(u.letters)
