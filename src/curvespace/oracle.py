"""Independent brute-force verifiers.

Nothing here trusts the normal-form engines: triviality is re-derived by
breadth-first insertion of relator conjugates, centralizers by exhaustive
enumeration of a bounded box of elements, and classifications by comparing
the enumerated centralizer against products of the emitted witnesses.
Results are deterministic: fixed enumeration order, fixed tie-breaks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .surfaces import (
    Presentation,
    Regime,
    SurfaceSpec,
    exponent_vector,
    presentation,
    regime,
    smith_diagonal,
)
from .words import Word, free_reduce, invert_letters
from . import stbundle
from .stbundle import STWord, st_multiply, st_word
from .classify import Kind, classify_pi1


class SearchBound(namedtuple("SearchBound", "max_word_length max_fiber max_depth")):
    """Caps for the brute-force searches.

    ``max_word_length`` bounds enumerated base words, ``max_fiber`` the fiber
    exponents, ``max_depth`` the BFS depth for relator insertions.
    """

    __slots__ = ()

    def __new__(cls, max_word_length: int = 8, max_fiber: int = 4, max_depth: int = 6):
        if max_word_length < 1 or max_depth < 1 or max_fiber < 0:
            raise ValueError("bounds must be positive (fiber may be zero)")
        return super().__new__(cls, max_word_length, max_fiber, max_depth)

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


#: default bounds for :func:`verify_classification`, sized so that the full
#: acceptance battery stays well under a minute
VERIFY_BOUND = SearchBound(max_word_length=4, max_fiber=3, max_depth=4)

#: :func:`bounded_is_trivial`'s verdict when the box neither reaches the
#: empty word nor certifies nontriviality
UNDECIDED = "undecided"

# hard cap on BFS states, independent of the requested bounds
_STATE_CAP = 120_000

#: most (reduced base word, fiber) candidates that an element box, and most
#: products that a list of witnesses, may enumerate: both are held in memory
#: whole, so this bounds the time and memory of a verification (genus 3 at
#: the default bounds enumerates 122,983 candidates, in about 1.5 s)
_MAX_ENUMERATION = 200_000


@lru_cache(maxsize=None)
def _relator_variants(pres: Presentation) -> tuple[tuple[int, ...], ...]:
    variants = set()
    for rel in pres.relators:
        for base in (rel, invert_letters(rel)):
            for i in range(len(base)):
                variants.add(base[i:] + base[:i])
    return tuple(sorted(variants))


def _abelian_certificate_nontrivial(u: Word) -> bool:
    """True if the abelianization already shows ``u != 1``.

    The exponent vector of ``u`` lies in the lattice spanned by the relator
    rows exactly when adding it as one more row keeps the number of nonzero
    Smith invariant factors and their product: the two lattices then have
    the same rank, and their index in the common saturation is that product.
    """
    pres = u.ambient
    n = len(pres.generators)
    rows = [exponent_vector(pres, rel) for rel in pres.relators]

    def invariants(matrix):
        nonzero = [d for d in smith_diagonal(matrix, n) if d]
        return len(nonzero), math.prod(nonzero)

    return invariants(rows) != invariants(rows + [exponent_vector(pres, u.letters)])


def bounded_is_trivial(u: Word, bound: SearchBound = SearchBound()):
    """True / False / ``UNDECIDED``.

    BFS over free reduction plus insertion of rotated relator copies.  True
    when the empty word is reached; a definite False needs an abelianization
    certificate; otherwise the verdict is undecided at this bound.  Never
    answers False for a word that is actually trivial.
    """
    start = free_reduce(u.letters)
    if not start:
        return True
    pres = u.ambient
    variants = _relator_variants(pres)
    if not variants:
        return False  # free group: free reduction is a complete decision
    cap_len = bound.max_word_length + max(len(v) for v in variants)
    seen = {start}
    frontier = [start]
    for _ in range(bound.max_depth):
        nxt = []
        for w in frontier:
            for var in variants:
                for i in range(len(w) + 1):
                    cand = free_reduce(w[:i] + var + w[i:])
                    if not cand:
                        return True
                    if len(cand) <= cap_len and cand not in seen:
                        if len(seen) >= _STATE_CAP:
                            break
                        seen.add(cand)
                        nxt.append(cand)
        if not nxt:
            break
        frontier = nxt
    if _abelian_certificate_nontrivial(u):
        return False
    return UNDECIDED


# ---------------------------------------------------------------------------
# bounded element boxes and centralizers


def _reduced_words(names_count: int, max_len: int):
    """All freely reduced letter tuples up to ``max_len``, shortest first."""
    yield ()
    layer: list[tuple[int, ...]] = [()]
    alphabet = [i for i in range(1, names_count + 1)] + [
        -i for i in range(1, names_count + 1)
    ]
    alphabet.sort(key=lambda x: (abs(x), 0 if x > 0 else 1))
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


@lru_cache(maxsize=None)
def bounded_elements(surface: SurfaceSpec, bound: SearchBound) -> tuple[STWord, ...]:
    """Every normal-form element with base length and |fiber| inside the box,
    in enumeration order: base length, then shortlex on the letters (a
    generator before its inverse, generators in presentation order), then
    fiber."""
    reg = regime(surface)
    if reg in (Regime.SPHERE, Regime.RP2):
        order = 2 if reg is Regime.SPHERE else 4
        return tuple(STWord(surface, None, None, r) for r in range(order))
    pres = presentation(surface)
    fibers = range(-bound.max_fiber, bound.max_fiber + 1)
    _check_enumeration(_box_candidates(len(pres.generators), bound), "box elements", bound)
    out = []
    for letters in _reduced_words(len(pres.generators), bound.max_word_length):
        base = st_word(surface, letters, 0).base
        if base.letters == letters:  # keep normal forms only
            out.extend(STWord(surface, base, m, None) for m in fibers)
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
    zero and ``eps(v)``; the fibers then add up linearly, because pushing
    ``f**m`` right through ``v`` turns it into ``f**(eps(v) m)``.
    """
    if u.residue is not None:
        return st_multiply(u, v)
    key = (u.base.letters, v.base.letters)
    hit = table.get(key)
    if hit is None:
        z = st_multiply(STWord(u.surface, u.base, 0), STWord(v.surface, v.base, 0))
        hit = table[key] = z, stbundle.base_character(v)
    z, eps = hit
    return STWord(z.surface, z.base, eps * u.fiber + v.fiber + z.fiber)


def bounded_centralizer(
    surface: SurfaceSpec, xi: STWord, bound: SearchBound = SearchBound()
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


def _witness_products(witnesses, bound: SearchBound):
    """Products w1^e1 ... wd^ed over every witness, exponents capped so that
    everything inside the enumeration box is reachable."""
    emax = bound.max_word_length + bound.max_fiber
    if not witnesses:
        return []
    _check_enumeration((2 * emax + 1) ** len(witnesses), "witness products", bound)
    surface = witnesses[0].surface
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
    surface: SurfaceSpec, xi: STWord, bound: SearchBound | None = None
) -> VerificationOutcome:
    """Check an emitted classification against the enumerated centralizer.

    Full-group answers must match the whole box, the index-two subgroup
    answer must match its membership predicate, and the finitely generated
    answers must (i) commute and (ii) cover every enumerated centralizer
    element by a bounded witness product.
    """
    bound = bound or VERIFY_BOUND
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
    products = _witness_products(witnesses, bound)
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
        rel = st_multiply(st_multiply(st_multiply(x, y), stbundle.st_invert(x)), y)
        if not stbundle.st_is_trivial(rel):
            return VerificationOutcome(False, "witnesses fail the Klein-bottle relation", rel)
    return VerificationOutcome(
        True,
        f"{len(cent)} centralizer elements covered by {len(witnesses)} witnesses",
    )
