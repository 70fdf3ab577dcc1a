"""Polyline curves on the plane, the flat torus, and the flat Klein bottle.

A curve is a closed polyline.  Plane-model curves list their vertices once;
the closing edge back to the first vertex is implicit.  Torus and Klein
curves are given in the universal-cover chart (coordinates unbounded): the
vertex list is the developed path, and the last vertex must be the image of
the first under a deck transformation.  The Klein deck group is generated by

    V(x, y) = (x, y + 1)            (orientation preserving, the ``g`` side)
    T(x, y) = (x + 1, 1 - y)        (glide reflection, the ``h`` side)

with T V T^-1 = V^-1; the torus uses the two unit translations.

Discrete regularity stands in for the immersion condition: no zero-length
edges and every exterior angle strictly inside (-pi, pi).  Crossings of the
integer grid are read off segment by segment; paths through grid corners or
along grid lines are rejected as degenerate.

The tangent lift is computed from the deck equation upstairs: the unit
tangent bundle of the chart is trivial, the deck group acts on (x, y, theta)
with T flipping theta, and the fiber exponent is whatever power of the fiber
class closes the lifted path.  Each exterior angle is the change of edge
direction wrapped into (-pi, pi]; the changes telescope around the closed
path, so that power (for a plane curve, the turning number) is the signed
number of wraps, an integer count that stays exact however often the curve
winds.

Ingestion is linear in the number of vertices, and one code path serves
every model: a plane curve is walked as a developed path closed by the
identity deck transformation.  One loop over the vertices pulls a chart
path back to the unit cell, tests each of its vertices against the grid
lines, forms each edge with its zero-length test and its direction, takes
the exterior angle at each interior corner with its cusp test, counts the
direction wraps, and tracks each change of grid cell; the closing corner is
taken after the loop, once the deck transformation is known.  Every check
keeps its first failure; the failures are raised in a fixed order, which
``_validated`` lists.  The grid-corner test runs only on edges whose
endpoints lie in different grid cells: no vertex lies within 1e-9 of a grid
line, so two endpoints with the same floor on both axes lie in one open
cell, and no integer lies strictly between their coordinates on either
axis.  For the same reason an edge crosses exactly ``|dx| + |dy|`` grid
lines, where ``(dx, dy)`` is the step between its endpoint cells, so a path
that crosses more than ``_MAX_GRID_CROSSINGS`` lines is rejected before any
of its crossings is examined and the cost stays bounded however large the
coordinates are.  A chart vertex takes the exact floor and grid-line test
only when it lies outside the cell box of the last vertex that took it:
open bounds at ``q + 1e-9`` and ``q + 1 - 1e-9`` on each axis, between
which a coordinate lies in cell ``q`` and off every grid line.  A
chart path changes cell only a few times, so most vertices skip the test.

``load_curve`` reads the file text one piece of about ``_CHUNK`` characters
at a time.  A piece with no comment, no ``_`` and no non-ASCII character,
whose lines are each ``x,y`` ended by ``\\n``, is converted in bulk:
``float`` is mapped over its fields, and the piece is kept if the values
sum to a finite number.  Every other piece is split at each ``\\n`` and
read by the line loop, which names the first faulty line, so the errors and
their line numbers do not depend on the path.  Each piece is judged on
its own, whatever the rest of the text holds.  Besides the text,
``load_curve`` holds the vertex tuple it returns, built straight from the
pieces' points, and one piece with its lines or its fields, never a list
of every line, vertex or edge direction.  A curve's lift data (deck class
and fiber exponent, or the turning number of a plane curve) is computed
once per ``CurveOnSurface`` and cached on it: ``load_curve`` checks each
coordinate for finiteness as it parses its piece and stores what the loop
returns, and ``lift`` reuses it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property
from itertools import chain

from .surfaces import SurfaceSpec
from .words import spell_klein, spell_torus
from .stbundle import STWord, st_word

_TWO_PI = 2.0 * math.pi
_ANGLE_EPS = 1e-9
_CUSP_ANGLE = math.pi - _ANGLE_EPS
_INT_EPS = 1e-9
#: most grid lines a chart curve may cross; bounds the grid-corner tests
#: and, through the deck class, the length of the lifted word
_MAX_GRID_CROSSINGS = 100_000
#: characters of a curve file read at a time
_CHUNK = 1 << 13
#: the surfaces of the torus and Klein-bottle charts (plane curves lift to
#: every surface)
_TORUS = SurfaceSpec(True, 1)
_KLEIN = SurfaceSpec(False, 2)


class CurveError(ValueError):
    """Malformed, degenerate, or non-regular curve input."""


class Model(Enum):
    PLANE = "plane"
    TORUS = "torus"
    KLEIN = "klein"


class Polyline(namedtuple("Polyline", "vertices")):
    """A closed polyline: a tuple of ``(x, y)`` float pairs."""

    __slots__ = ()


class CurveOnSurface(namedtuple("CurveOnSurface", "model polyline")):
    """A :class:`Polyline` drawn in a :class:`Model`."""

    @cached_property
    def _lift_data(self):
        """(deck coordinates, fiber exponent), computed on first use and kept;
        plane curves have no deck coordinates (``None``) and their turning
        number as the fiber exponent.  It lives in the instance dict,
        outside the tuple of fields, so it takes no part in equality or
        hashing.  ``load_curve`` stores it there itself:
        the parser has already checked every coordinate for finiteness."""
        if not all(map(math.isfinite, chain.from_iterable(self.polyline.vertices))):
            raise CurveError("coordinates must be finite")
        return _validated(self)


def _validated(curve: CurveOnSurface):
    """(deck coordinates, fiber exponent) of a curve with finite
    coordinates, in one pass over its vertices.

    A chart curve's developed path is pulled back so its first vertex lies
    in the unit cell.  This identifies the basepoint frame with the
    fundamental-domain frame, so the endpoint deck transformation names the
    deck class.  A plane curve is walked as a developed path closed by the
    identity: its first vertex is repeated at the end, and it skips the
    grid-line test and the cell tracking.  Edge k runs from vertex k to
    vertex k + 1, and corner k lies between edges k - 1 and k; the pass
    takes each interior corner as soon as its second edge is formed, and
    the closing corner, between the last edge and the deck image of the
    first, after the endpoint and overflow checks, since a glide reflects
    that image.  The closing corner is ``vertex 0`` on a plane curve and
    ``the basepoint`` on a chart.  A chart vertex on a grid line is reported
    at once.  After a chart vertex takes the exact floor and grid-line test,
    the pass keeps the open box ``q + _INT_EPS < x < q + 1 - _INT_EPS`` of
    its cell on each axis.  A double strictly above the rounded
    ``q + _INT_EPS`` is above the real sum too, and one strictly below the
    rounded ``q + 1 - _INT_EPS`` below the real difference; ``fl(x - q)``
    is monotone in ``x``, so a later vertex strictly inside the box passes
    the exact grid-line test, lies in cell ``q``, and skips both floors,
    the grid-line test and the cell-change test.  Every other check keeps
    its first failure and raises it after the pass, in this order: a
    zero-length edge, an open endpoint, an overflow, a cusp (interior
    corners, then the closing one), and the first edge that passes the
    crossing cap or a grid corner.  The fiber exponent is the signed count
    of direction wraps over the corners.  No list of edges or directions is
    built: the pass keeps only the first and the last direction.
    :func:`_overflows` runs only on a curve with an edge whose squares sum
    past 1e308, where a corner product can overflow; that is a plane curve,
    since a chart vertex that far out is an integer, so it lies on a grid
    line and is rejected first.
    """
    model, verts = curve.model, curve.polyline.vertices
    chart = model is not Model.PLANE
    if len(verts) < 3:
        if chart:
            raise CurveError("a chart curve needs at least 3 vertices (endpoint repeated)")
        raise CurveError("a closed polyline needs at least 3 vertices")
    floor, hypot, atan2, pi = math.floor, math.hypot, math.atan2, math.pi
    if chart:
        i, j = floor(verts[0][0]), floor(verts[0][1])
        # the cell box starts empty, so the first vertex takes the exact test
        lox = hix = loy = hiy = 0.0
        # an odd Klein shift T^-i reflects the vertical coordinate
        flip = model is Model.KLEIN and i % 2 != 0
        path = verts
    else:
        path = chain(verts, verts[:1])
    zero = bad = big = cusp = None
    turns = count = 0
    for k, (x, y) in enumerate(path):
        if chart:
            x = x - i
            y = 1.0 - (y - j) if flip else y - j
            # a vertex inside the cell box is in cell (cx, cy) and off every
            # grid line, so it skips the tests below
            if not (lox < x < hix and loy < y < hiy):
                qx, qy = floor(x), floor(y)
                if _near_int(x) or _near_int(y):
                    raise CurveError("vertices may not lie on grid lines; perturb the curve")
                # edge k - 1 runs from (px, py) in cell (cx, cy) to (x, y)
                if k and (qx != cx or qy != cy) and bad is None:
                    count += abs(qx - cx) + abs(qy - cy)
                    if count > _MAX_GRID_CROSSINGS:
                        bad = CurveError(f"the path crosses more than {_MAX_GRID_CROSSINGS} grid lines")
                    elif _through_grid_corner((px, py), (x, y)):
                        bad = CurveError(f"edge {k - 1} passes through a grid corner; perturb the curve")
                cx, cy = qx, qy
                lox, hix = qx + _INT_EPS, qx + 1 - _INT_EPS
                loy, hiy = qy + _INT_EPS, qy + 1 - _INT_EPS
        if k:
            ex, ey = x - px, y - py
            # the squares sum below 1e-20 whenever hypot is below 1e-12, so
            # hypot is called only for a near-zero edge; two edges whose
            # squares sum to at most 1e308 have a finite cross and dot
            # product, so only a longer edge can make a corner overflow
            sq = ex * ex + ey * ey
            if sq < 1e-20 and zero is None and hypot(ex, ey) < 1e-12:
                zero = k - 1
            elif sq > 1e308:
                big = True
            # the direction of edge k - 1, in (-pi, pi]; corner k - 1 turns
            # the direction s of edge k - 2 into it
            t = atan2(ey, ex)
            if k > 1:
                angle = t - s
                if angle > pi:
                    angle -= _TWO_PI
                    turns -= 1
                elif angle <= -pi:
                    angle += _TWO_PI
                    turns += 1
                if cusp is None and abs(angle) > _CUSP_ANGLE:
                    cusp = k - 1
            else:
                t0 = t
            s = t
        else:
            x0, y0 = x, y
        px, py = x, y
    if zero is not None:
        raise CurveError(f"zero-length edge at vertex {zero}")

    # deck transformation solving endpoint = Delta(start)
    bx = px - x0
    if not _near_int(bx):
        raise CurveError("endpoint does not close up horizontally")
    b = round(bx)
    glide = model is Model.KLEIN and b % 2 != 0
    ay = py + y0 - 1.0 if glide else py - y0
    if not _near_int(ay):
        raise CurveError("endpoint is not a deck image of the start point")
    a = round(ay)
    if big and _overflows(verts):
        raise CurveError("coordinates too large: the exterior angles overflow")

    # the closing corner turns the last direction into d(Delta) of the
    # first edge, whose direction a glide reflects.  The unwrapped
    # differences telescope to 0, or after a glide to minus twice the first
    # direction, which the glide's turn of the basepoint frame adds back, so
    # the fiber exponent is the wrap count
    angle = (-t0 if glide else t0) - s
    if angle > pi:
        angle -= _TWO_PI
        turns -= 1
    elif angle <= -pi:
        angle += _TWO_PI
        turns += 1
    if cusp is None and abs(angle) > _CUSP_ANGLE:
        cusp = 0
    if cusp is not None:
        where = f"vertex {cusp}" if cusp or not chart else "the basepoint"
        raise CurveError(f"cusp (exterior angle of +-pi) at {where}")
    if not chart:
        return None, turns
    if bad is not None:
        raise bad
    # torus coordinates: Delta x counts a1, Delta y counts b1; Klein
    # coordinates (k, l): g-exponent (vertical), h-exponent (glide)
    return ((b, a) if model is Model.TORUS else (a, b)), turns


def _overflows(verts) -> bool:
    """True if some corner of the closed polygon has a cross or dot product
    of its two edges that is not finite: the curve's coordinates are too
    large.  :func:`_validated` calls it only when an edge's squares sum past
    1e308; below that bound on both edges no corner product overflows."""
    isfinite = math.isfinite
    (px, py), (x, y) = verts[-2], verts[-1]
    ux, uy = x - px, y - py
    for nx, ny in verts:
        ex, ey = nx - x, ny - y
        if not (isfinite(ux * ey - uy * ex) and isfinite(ux * ex + uy * ey)):
            return True
        x, y, ux, uy = nx, ny, ex, ey
    return False


def _near_int(x: float) -> bool:
    return abs(x - round(x)) < _INT_EPS


def _through_grid_corner(p, q) -> bool:
    """Does the edge from ``p`` to ``q`` pass through a grid corner: do two
    of the grid lines it crosses meet it less than 1e-9 apart, as fractions
    of its length?"""
    ts: list[float] = []
    for a0, a1 in ((p[0], q[0]), (p[1], q[1])):
        lo, hi = min(a0, a1), max(a0, a1)
        ts += [(n - a0) / (a1 - a0) for n in range(math.floor(lo) + 1, math.ceil(hi))]
    ts.sort()
    return any(t2 - t1 < 1e-9 for t1, t2 in zip(ts, ts[1:]))


def lift(curve: CurveOnSurface, surface: SurfaceSpec) -> STWord:
    """Tangent lift of the curve as a tangent-bundle group element."""
    if curve.model is Model.PLANE:
        return st_word(surface, (), curve._lift_data[1])
    if curve.model is Model.TORUS:
        if surface != _TORUS:
            raise CurveError("torus-model curves need the torus")
        (p, q), fiber = curve._lift_data
        return st_word(surface, spell_torus(p, q), fiber)
    if surface != _KLEIN:
        raise CurveError("klein-model curves need the Klein bottle")
    (a, b), fiber = curve._lift_data
    return st_word(surface, spell_klein(a, b), fiber)


# ---------------------------------------------------------------------------
# file format

#: every ASCII character but "," and "\n", the one character that ends a line
_NOT_SEPARATORS = bytes(c for c in range(128) if c not in b",\n")


def _chunks(text: str, start: int, size: int = _CHUNK):
    """``text`` from ``start`` on, in pieces of about ``size`` characters,
    each cut just after a ``\\n``.  Only a ``\\n`` ends a line, so the
    pieces split into exactly the lines of the whole text from ``start`` on,
    while at most one piece and its lines are held at a time; at ``size``
    zero each piece is one line."""
    end = len(text)
    while start < end:
        cut = text.find("\n", start + size) + 1 or end
        yield text[start:cut]
        start = cut


def _chunk_points(text: str, start: int, lineno: int):
    """The vertices of the lines of ``text`` from ``start`` on, one list per
    piece; line ``lineno + 1`` begins at ``start``.  Each piece is first
    offered to the bulk conversion (:func:`_bulk_points`); a piece that it
    turns down is split at each ``\\n`` and goes through the line loop
    (:func:`_line_points`), the only code that names a line fault.  So the
    first fault of the first faulty piece is raised, with its line number."""
    for piece in _chunks(text, start):
        points = _bulk_points(piece)
        if points is None:
            lines = piece.split("\n")
            points = _line_points(lines, lineno)
            lineno += len(lines) - 1  # after a piece's last "\n", no line
        else:
            lineno += len(points)
        yield points


def _bulk_points(piece: str):
    """The vertices of an ASCII piece with no ``_`` (which the line loop
    refuses and ``float`` reads) whose only separators are one ``,`` and one
    ``\\n`` per line, or None for any other piece or if a value is not a
    finite float (a sum of floats is finite only if every term is).  Such a
    piece has one ``x,y`` line per vertex, so its fields are the strings
    that the line loop would read; a ``#`` lies in a field, which ``float``
    refuses."""
    if not piece.isascii() or "_" in piece:
        return None
    # one "," and one "\n" per line, but no "\n" after a last line that
    # ends the text
    seps = piece.encode("ascii").translate(None, _NOT_SEPARATORS)
    if seps != b",\n" * (len(seps) >> 1) + b"," * (piece[-1] != "\n"):
        return None
    # the fields alternate x, y; a final "\n" leaves an empty field
    fields = piece.replace("\n", ",").split(",")
    if len(fields) & 1:
        fields.pop()
    try:
        values = list(map(float, fields))
    except ValueError:
        return None
    if not math.isfinite(sum(values)):
        return None
    it = iter(values)
    return list(zip(it, it))


def _line_points(lines, lineno: int):
    """The vertices of ``lines``, numbered from ``lineno + 1``, checked one
    line at a time.  Each line is stripped once, after its comment is cut:
    ``str.strip()`` removes only the ends, where it also takes U+001C to
    U+001F, U+0085, U+2028 and U+2029 that ``float()`` refuses, so the
    stripped line is the one parsed and the one quoted in an error, which
    must be ASCII with no ``_``, as ``float()`` reads both."""
    isfinite = math.isfinite
    points = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        if "#" in line:
            line = line.partition("#")[0]
        line = line.strip()
        if not line:
            continue
        xs, comma, ys = line.partition(",")
        if not comma or "," in ys:
            raise CurveError(f"line {lineno}: expected 'x,y'")
        if not line.isascii() or "_" in line:
            raise CurveError(f"line {lineno}: bad coordinates {line!r}")
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise CurveError(f"line {lineno}: bad coordinates {line!r}") from None
        if not (isfinite(x) and isfinite(y)):
            raise CurveError(f"line {lineno}: coordinates must be finite, not {line!r}")
        points.append((x, y))
    return points


def load_curve(text: str) -> CurveOnSurface:
    """Parse the curve file format and validate the curve.

    Line 1: ``model=plane|torus|klein``; then one ``x,y`` pair per line, with
    finite ASCII decimal coordinates.  Only ``\\n`` ends a line: a lone
    ``\\r`` or another line separator stays inside its line.  ``#`` starts
    a comment, which sends only its own piece through the line loop; blank
    lines are ignored.  Validation computes the lift data, which ``lift``
    then reuses.
    """
    # the header is looked for one line at a time, so finding it does not
    # split the whole text into lines
    offset = 0
    for lineno, raw in enumerate(_chunks(text, 0, 0), start=1):
        offset += len(raw)
        if "#" in raw:
            raw = raw.partition("#")[0]
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("model="):
            raise CurveError(f"line {lineno}: expected 'model=...' first")
        name = line[len("model=") :].strip()
        try:
            model = Model(name)
        except ValueError:
            raise CurveError(f"line {lineno}: unknown model {name!r}") from None
        break
    else:
        raise CurveError("empty curve file")
    # the tuple is built straight from the pieces' points, so no second
    # array of every vertex is held; a fault raises at its own piece
    points = _chunk_points(text, offset, lineno)
    curve = CurveOnSurface(model, Polyline(tuple(chain.from_iterable(points))))
    # the coordinates are finite, so the lift data is stored without the
    # finiteness pass that ``_lift_data`` runs on a directly built curve
    vars(curve)["_lift_data"] = _validated(curve)
    return curve


def read_curve_file(path: str) -> CurveOnSurface:
    # utf-8-sig also reads a file saved with a byte-order mark
    with open(path, "r", encoding="utf-8-sig") as fh:
        return load_curve(fh.read())
