"""Brute-force verifiers.

Only :func:`bounded_is_trivial` is free of the normal-form engines: it
re-derives triviality by breadth-first insertion of relator conjugates.
Centralizers come from exhaustive enumeration of a bounded box of elements,
and classifications from comparing the enumerated centralizer against
products of the emitted witnesses; those boxes and products are built with
the engines (``st_word``, ``st_multiply``), so they check the decision tree,
not the normal forms.
Results are deterministic: fixed enumeration order, fixed tie-breaks.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

from .surfaces import SurfaceSpec, abelianization, presentation
from .words import Word, free_reduce, invert_letters, surface_record
from . import stbundle
from .stbundle import STWord, st_multiply, st_word
from .classify import Kind, classify_pi1


class SearchBound(namedtuple("SearchBound", "max_word_length max_fiber")):
    """The box of :func:`bounded_elements`: base words of at most
    ``max_word_length`` letters and fiber exponents of at most ``max_fiber``
    in absolute value.  The defaults are :data:`VERIFY_BOUND`.  Both fields
    are integers (anything :func:`operator.index` takes; stored as ``int``),
    the length at least 1 and the fiber at least 0; other values raise
    ``ValueError``."""

    __slots__ = ()

    def __new__(cls, max_word_length: int = 4, max_fiber: int = 3):
        try:
            max_word_length, max_fiber = operator.index(max_word_length), operator.index(max_fiber)
        except TypeError:
            raise ValueError(f"bounds must be integers, not {max_word_length!r} and {max_fiber!r}") from None
        if max_word_length < 1 or max_fiber < 0:
            raise ValueError("bounds must be positive (fiber may be zero)")
        return super().__new__(cls, max_word_length, max_fiber)

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


#: default box for :func:`verify_classification`, sized so that the full
#: acceptance battery stays well under a minute
VERIFY_BOUND = SearchBound()

#: :func:`bounded_is_trivial`'s verdict when the search neither reaches the
#: empty word nor certifies nontriviality
UNDECIDED = "undecided"

# the BFS layers, the letters an intermediate word may have beyond the
# longest relator, and the states it may hold
_BFS_DEPTH = 6
_BFS_LETTERS = 8
_STATE_CAP = 120_000

#: most (reduced base word, fiber) candidates that an element box, and most
#: products that a list of witnesses, may enumerate: both are held in memory
#: whole, so this bounds the time and memory of a verification (genus 3 at
#: the default bounds enumerates 122,983 candidates, in about 1.5 s)
_MAX_ENUMERATION = 200_000


def bounded_is_trivial(u: Word):
    """True / False / ``UNDECIDED``.

    A definite False needs an abelianization certificate, which is asked
    first: the BFS can never reach the empty word from a word it certifies.
    Otherwise BFS over free reduction plus insertion of rotated relator
    copies answers True when the empty word is reached, and the verdict is
    undecided when ``_BFS_DEPTH`` layers or ``_STATE_CAP`` states run out;
    intermediate words keep at most ``_BFS_LETTERS`` letters beyond the
    longest relator.  Never answers False for a word that is actually
    trivial.
    """
    start = free_reduce(u.letters)
    if not start:
        return True
    pres = u.ambient
    # every rotation of every relator and of its inverse, in a fixed order
    variants = sorted(
        {r[i:] + r[:i] for rel in pres.relators for r in (rel, invert_letters(rel)) for i in range(len(r))}
    )
    if not variants:
        return False  # free group: free reduction is a complete decision
    # u's exponent row lies in the relator lattice exactly when adding it as
    # a relator changes neither the rank nor the product of the invariant
    # factors: the lattices then have the same rank, and their index in the
    # common saturation is that product
    if abelianization(pres) != abelianization(pres._replace(relators=pres.relators + (u.letters,))):
        return False
    cap_len = _BFS_LETTERS + max(len(v) for v in variants)
    seen = {start}
    frontier = [start]
    for _ in range(_BFS_DEPTH):
        nxt = []
        for w in frontier:
            for var in variants:
                for i in range(len(w) + 1):
                    cand = free_reduce(w[:i] + var + w[i:])
                    if not cand:
                        return True
                    if len(cand) <= cap_len and cand not in seen:
                        if len(seen) >= _STATE_CAP:
                            return UNDECIDED
                        seen.add(cand)
                        nxt.append(cand)
        if not nxt:
            break
        frontier = nxt
    return UNDECIDED


# ---------------------------------------------------------------------------
# bounded element boxes and centralizers


def _reduced_words(names_count: int, max_len: int):
    """All freely reduced letter tuples up to ``max_len``, shortest first."""
    yield ()
    layer: list[tuple[int, ...]] = [()]
    alphabet = [x for i in range(1, names_count + 1) for x in (i, -i)]
    # with no generators every layer past the empty word is empty
    for _ in range(max_len if alphabet else 0):
        nxt = []
        for w in layer:
            for a in alphabet:
                if w and w[-1] == -a:
                    continue
                nxt.append(w + (a,))
        yield from nxt
        layer = nxt


@lru_cache(maxsize=16)
def bounded_elements(surface: SurfaceSpec, bound: SearchBound) -> tuple[STWord, ...]:
    """Every normal-form element with base length and |fiber| inside the box,
    in enumeration order: base length, then shortlex on the letters (a
    generator before its inverse, generators in presentation order), then
    fiber.  Only the 16 boxes used last are kept: one box can hold over
    10 MB (genus 3 at :data:`VERIFY_BOUND`: 122,983 elements, 13.4 MB)."""
    order = surface_record(surface).order
    if order:
        # the whole finite group, in residue order: residue r is r % half
        # crosscap letters times f**(r // half)
        half = order // 2
        return tuple(st_word(surface, (1,) * (r % half), r // half) for r in range(order))
    pres = presentation(surface)
    fibers = range(-bound.max_fiber, bound.max_fiber + 1)
    _check_enumeration(_box_candidates(len(pres.generators), bound), "box elements", bound)
    out = []
    for letters in _reduced_words(len(pres.generators), bound.max_word_length):
        base = st_word(surface, letters, 0).base
        if base.letters == letters:  # keep normal forms only
            out.extend(STWord(base, m) for m in fibers)
    return tuple(out)


def _box_candidates(generators: int, bound: SearchBound) -> int:
    """How many (reduced word, fiber) pairs :func:`bounded_elements`
    enumerates over ``generators`` generators, counted only until the count
    passes ``_MAX_ENUMERATION``."""
    fibers = 2 * bound.max_fiber + 1
    words, layer = 1, 2 * generators
    for _ in range(bound.max_word_length):
        if not layer or words * fibers > _MAX_ENUMERATION:
            break
        words += layer
        layer *= 2 * generators - 1
    return words * fibers


def _check_enumeration(count: int, what: str, bound: SearchBound) -> None:
    if count > _MAX_ENUMERATION:
        raise ValueError(
            f"bounds of base length {bound.max_word_length} and fiber {bound.max_fiber} ask for "
            f"more than {_MAX_ENUMERATION} {what}; lower them"
        )


def _product(table: dict, u: STWord, v: STWord) -> STWord:
    """``st_multiply(u, v)``, normalizing each pair of bases only once.

    ``table`` maps a pair of base spellings to their product at fiber
    zero, ``eps(v)`` and whether the group is finite; the fibers then add
    up linearly, because pushing ``f**m`` right through ``v`` turns it into
    ``f**(eps(v) m)``, and a finite group reduces the sum mod 2.
    """
    key = (u.base.letters, v.base.letters)
    hit = table.get(key)
    if hit is None:
        z = st_multiply(STWord(u.base, 0), STWord(v.base, 0))
        hit = table[key] = z, stbundle.base_character(v), z.residue is not None
    z, eps, finite = hit
    fiber = eps * u.fiber + v.fiber + z.fiber
    return STWord(z.base, fiber % 2 if finite else fiber)


def bounded_centralizer(
    surface: SurfaceSpec, xi: STWord, bound: SearchBound = VERIFY_BOUND
) -> tuple[STWord, ...]:
    """All bounded elements commuting with ``xi``, deterministically ordered."""
    table: dict = {}
    out = []
    for el in bounded_elements(surface, bound):
        if _product(table, el, xi) == _product(table, xi, el):
            out.append(el)
    return tuple(out)


# ---------------------------------------------------------------------------
# classification verification


class VerificationOutcome(
    namedtuple("VerificationOutcome", "passed detail counterexample", defaults=(None,))
):
    """Whether a check passed, what it found, and the offending element if
    there is one; true exactly when the check passed."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.passed


def _witness_products(surface: SurfaceSpec, witnesses, bound: SearchBound):
    """Products w1^e1 ... wd^ed over every witness, exponents capped so that
    everything inside the enumeration box is reachable; with no witnesses,
    the empty product, the identity."""
    emax = bound.max_word_length + bound.max_fiber
    _check_enumeration((2 * emax + 1) ** len(witnesses), "witness products", bound)
    table: dict = {}
    products = [stbundle.st_identity(surface)]
    for w in witnesses:
        powers = {0: stbundle.st_identity(surface)}
        for e in range(1, emax + 1):
            powers[e] = _product(table, powers[e - 1], w)
            powers[-e] = stbundle.st_invert(powers[e])
        products = [_product(table, p, powers[e]) for p in products for e in range(-emax, emax + 1)]
    return products


def verify_classification(
    surface: SurfaceSpec, xi: STWord, bound: SearchBound = VERIFY_BOUND
) -> VerificationOutcome:
    """Check an emitted classification against the enumerated centralizer.

    Full-group answers must match the whole box, the index-two subgroup
    answer must match its membership predicate, and the finitely generated
    answers must (i) commute and (ii) cover every enumerated centralizer
    element by a bounded witness product.
    """
    report = classify_pi1(surface, xi)
    kind = report.group.kind
    xi = report.element
    cent = bounded_centralizer(surface, xi, bound)
    box = bounded_elements(surface, bound)

    # a failing check reports the first offending element in box order
    if kind in (Kind.FULL_ST_GROUP, Kind.Z2, Kind.Z4):
        if len(cent) != len(box):
            members = set(cent)
            missing = next(el for el in box if el not in members)
            return VerificationOutcome(
                False, "an element of the box fails to commute", missing
            )
        return VerificationOutcome(True, f"whole box of {len(box)} elements commutes")

    if kind is Kind.ORIENTATION_PRESERVING_SUBGROUP:
        members = set(cent)
        bad = next(
            (el for el in box if (el in members) != (stbundle.base_character(el) == +1)), None
        )
        if bad is not None:
            return VerificationOutcome(
                False, "centralizer differs from the orientation-preserving box", bad
            )
        return VerificationOutcome(
            True, f"centralizer equals the orientation-preserving half ({len(cent)} elements)"
        )

    witnesses = report.group.witnesses
    products = _witness_products(surface, witnesses, bound)
    table: dict = {}
    for p in products:
        if _product(table, p, xi) != _product(table, xi, p):
            return VerificationOutcome(False, "a witness product fails to commute", p)
    product_set = set(products)
    for el in cent:
        if el not in product_set:
            return VerificationOutcome(
                False, "a centralizer element is not a witness product", el
            )
    if kind is Kind.KLEIN_BOTTLE_GROUP:
        x, y = witnesses
        rel = st_multiply(stbundle.st_conjugate(y, x), y)
        if not stbundle.st_is_trivial(rel):
            return VerificationOutcome(False, "witnesses fail the Klein-bottle relation", rel)
    return VerificationOutcome(
        True,
        f"{len(cent)} centralizer elements covered by {len(witnesses)} witnesses",
    )
