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
class closes the lifted path.

Ingestion is one loop over the vertices, linear in their number, and one
loop serves every model: a plane curve is walked as a developed path closed
by the identity deck transformation.  The loop pulls a chart path back to
the unit cell, tests each of its vertices against the grid lines, and forms
each edge with its zero-length test, each exterior angle with its cusp
test, and each change of grid cell.  Every check keeps its first failure;
after the loop the failures are raised in a fixed order, which
``_validated`` lists.  A curve's lift data (turning number, or deck class,
fiber exponent and crossing log) is computed once per ``CurveOnSurface``
and cached on it: ``load_curve`` checks each coordinate for finiteness as
it parses its line and stores what the loop returns, and ``lift`` and
``crossing_log`` reuse it.  The crossing scan runs only on edges whose
endpoints lie in different grid cells: no vertex lies within 1e-9 of a
grid line, so two endpoints with the same floor on both axes lie in one
open cell, and no integer lies strictly between their coordinates on
either axis.  For the same reason an edge crosses exactly ``|dx| + |dy|``
grid lines, where ``(dx, dy)`` is the step between its endpoint cells, so
a path that crosses more than ``_MAX_GRID_CROSSINGS`` lines is rejected
before any crossing is listed and the cost stays bounded however large the
coordinates are.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property
from itertools import chain

from .surfaces import SurfaceSpec
from .words import spell_klein, spell_torus, klein_product
from .stbundle import STWord, st_word

_TWO_PI = 2.0 * math.pi
_ANGLE_EPS = 1e-9
_CUSP_ANGLE = math.pi - _ANGLE_EPS
_INT_EPS = 1e-9
_TURN_TOL = 1e-6
#: most grid lines a chart curve may cross; bounds the crossing log and,
#: through it, the length of the lifted word
_MAX_GRID_CROSSINGS = 100_000
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


class Crossing(namedtuple("Crossing", "edge axis line direction")):
    """One transition of the developed path across a grid line: ``axis`` is
    ``"x"`` for vertical lines and ``"y"`` for horizontal ones, ``direction``
    is +1 rightward or upward."""

    __slots__ = ()


class CurveOnSurface(namedtuple("CurveOnSurface", "model polyline")):
    """A :class:`Polyline` drawn in a :class:`Model`."""

    @cached_property
    def _lift_data(self):
        """(deck coordinates, fiber exponent, crossing log), computed on first
        use and kept; plane curves have no deck coordinates (``None``), an
        empty log, and their turning number as the fiber exponent.  It lives
        in the instance dict, outside the tuple of fields, so it takes no
        part in equality or hashing.  ``load_curve`` stores it there itself:
        the parser has already checked every coordinate for finiteness."""
        if not all(map(math.isfinite, chain.from_iterable(self.polyline.vertices))):
            raise CurveError("coordinates must be finite")
        return _validated(self)


def _validated(curve: CurveOnSurface):
    """(deck coordinates, fiber exponent, crossing log) of a curve with
    finite coordinates, in one pass over its vertices.

    A chart curve's developed path is pulled back so its first vertex lies
    in the unit cell.  This identifies the basepoint frame with the
    fundamental-domain frame, so crossing words and the endpoint deck
    transformation agree.  A plane curve is walked as a developed path
    closed by the identity: its first vertex is repeated at the end, and it
    skips the grid-line test, the cell tracking and the crossing log.  Edge
    k runs from vertex k to vertex k + 1, and corner k lies between edges
    k - 1 and k; the closing corner, between the last edge and the deck
    image of the first, is ``vertex 0`` on a plane curve and ``the
    basepoint`` on a chart.  A chart vertex on a grid line is reported at
    once.  Every other check keeps its first failure and raises it after
    the pass, in this order: a zero-length edge, an open endpoint, an
    overflow (plane curves only), a cusp (interior corners, then the
    closing one), an angle sum that is no multiple of 2 pi, the first edge
    that passes the crossing cap or a grid corner, and a crossing log that
    disagrees with the endpoint.  A plane curve's endpoint always closes;
    an overflowing product can pass for a cusp or a wrong angle, so only
    those failures, never a valid curve, pay for :func:`_overflows`.  A
    chart vertex large enough to overflow is an integer, so it lies on a
    grid line and is rejected first.
    """
    model, verts = curve.model, curve.polyline.vertices
    chart = model is not Model.PLANE
    if len(verts) < 3:
        if chart:
            raise CurveError("a chart curve needs at least 3 vertices (endpoint repeated)")
        raise CurveError("a closed polyline needs at least 3 vertices")
    floor, hypot, atan2 = math.floor, math.hypot, math.atan2
    if chart:
        i, j = floor(verts[0][0]), floor(verts[0][1])
        # an odd Klein shift T^-i reflects the vertical coordinate
        flip = model is Model.KLEIN and i % 2 != 0
        path = verts
    else:
        path = chain(verts, verts[:1])
    zero = cusp = bad = None
    total = 0.0
    crossings: list[Crossing] = []
    count = 0
    for k, (x, y) in enumerate(path):
        if chart:
            x = x - i
            y = 1.0 - (y - j) if flip else y - j
            qx, qy = floor(x), floor(y)
            # the grid line nearer to x is qx or qx + 1; the difference to
            # that one is at most 1/2 and exact, so this is
            # |x - round(x)| < _INT_EPS
            if (x - qx < _INT_EPS or qx + 1 - x < _INT_EPS
                    or y - qy < _INT_EPS or qy + 1 - y < _INT_EPS):
                raise CurveError("vertices may not lie on grid lines; perturb the curve")
            # edge k - 1 runs from (px, py) in cell (cx, cy) to (x, y)
            if k and (qx != cx or qy != cy) and bad is None:
                count += abs(qx - cx) + abs(qy - cy)
                if count > _MAX_GRID_CROSSINGS:
                    bad = CurveError(f"the path crosses more than {_MAX_GRID_CROSSINGS} grid lines")
                else:
                    try:
                        crossings += [c for _, c in _segment_crossings((px, py), (x, y), k - 1)]
                    except CurveError as exc:
                        bad = exc
            cx, cy = qx, qy
        if k:
            ex, ey = x - px, y - py
            # the squares sum below 1e-20 whenever hypot is below 1e-12, so
            # hypot is called only for a near-zero edge
            if ex * ex + ey * ey < 1e-20 and zero is None and hypot(ex, ey) < 1e-12:
                zero = k - 1
            if k > 1:
                a = atan2(ux * ey - uy * ex, ux * ex + uy * ey)
                if cusp is None and abs(a) > _CUSP_ANGLE:
                    cusp = k - 1
                total += a
            else:
                fx, fy = ex, ey
            ux, uy = ex, ey
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

    # the closing corner, against d(Delta) of the first edge; a glide flips
    # the tangent, which turns the basepoint frame by twice its angle
    gy = -fy if glide else fy
    corner = atan2(ux * gy - uy * fx, ux * fx + uy * gy)
    if cusp is None and abs(corner) > _CUSP_ANGLE:
        cusp = 0
    total += corner
    if glide:
        total += 2.0 * atan2(fy, fx)
    turns = total / _TWO_PI
    whole = math.isfinite(turns) and abs(turns - round(turns)) <= _TURN_TOL
    if not chart and (cusp is not None or not whole) and _overflows(verts):
        raise CurveError("coordinates too large: the exterior angles overflow")
    if cusp is not None:
        where = f"vertex {cusp}" if cusp or not chart else "the basepoint"
        raise CurveError(f"cusp (exterior angle of +-pi) at {where}")
    if not whole:
        if chart:
            raise CurveError("tangent lift does not close up to a fiber power")
        raise CurveError("exterior angles do not sum to a multiple of 2 pi")
    if not chart:
        return None, round(turns), ()
    if bad is not None:
        raise bad

    # the crossing log, validated against the deck solution
    end = cx, cy
    cx, cy = floor(x0), floor(y0)
    acc = (0, 0)
    if model is Model.TORUS:
        # torus coordinates: (rightward crossings, upward crossings)
        for c in crossings:
            if c.axis == "x":
                acc = (acc[0] + c.direction, acc[1])
                cx += c.direction
            else:
                acc = (acc[0], acc[1] + c.direction)
                cy += c.direction
        expected = (b, a)  # Delta x counts a1, Delta y counts b1
    else:
        # Klein coordinates (k, l): g-exponent (vertical), h-exponent (glide)
        for c in crossings:
            if c.axis == "x":
                acc = klein_product(acc, (0, c.direction))
                cx += c.direction
            else:
                sign = c.direction if cx % 2 == 0 else -c.direction
                acc = klein_product(acc, (sign, 0))
                cy += c.direction
        expected = (a, b)
    if (cx, cy) != end or acc != expected:
        raise CurveError("crossing log disagrees with the endpoint; degenerate input")
    return expected, round(turns), tuple(crossings)


def _overflows(verts) -> bool:
    """True if some corner of the closed polygon has a cross or dot product
    of its two edges that is not finite, computed as :func:`_validated`
    does."""
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


def _segment_crossings(p, q, edge_index: int) -> list[tuple[float, Crossing]]:
    out: list[tuple[float, Crossing]] = []
    for axis, (a0, a1) in (("x", (p[0], q[0])), ("y", (p[1], q[1]))):
        lo, hi = min(a0, a1), max(a0, a1)
        direction = 1 if a1 > a0 else -1
        for n in range(math.floor(lo) + 1, math.ceil(hi)):
            t = (n - a0) / (a1 - a0)
            out.append((t, Crossing(edge_index, axis, n, direction)))
    out.sort(key=lambda item: item[0])
    for (t1, c1), (t2, c2) in zip(out, out[1:]):
        if t2 - t1 < 1e-9:
            raise CurveError(
                f"edge {edge_index} passes through a grid corner; perturb the curve"
            )
    return out


def lift(curve: CurveOnSurface, surface: SurfaceSpec) -> STWord:
    """Tangent lift of the curve as a tangent-bundle group element."""
    if curve.model is Model.PLANE:
        return st_word(surface, (), curve._lift_data[1])
    if curve.model is Model.TORUS:
        if surface != _TORUS:
            raise CurveError("torus-model curves need the torus")
        (p, q), fiber, _ = curve._lift_data
        return st_word(surface, spell_torus(p, q), fiber)
    if surface != _KLEIN:
        raise CurveError("klein-model curves need the Klein bottle")
    (a, b), fiber, _ = curve._lift_data
    return st_word(surface, spell_klein(a, b), fiber)


def crossing_log(curve: CurveOnSurface) -> tuple[Crossing, ...]:
    """Grid crossings of the developed path, in order; empty for plane curves."""
    return curve._lift_data[2]


# ---------------------------------------------------------------------------
# file format


def load_curve(text: str) -> CurveOnSurface:
    """Parse the curve file format and validate the curve.

    Line 1: ``model=plane|torus|klein``; then one ``x,y`` pair per line, with
    finite coordinates.  ``#`` starts a comment; blank lines are ignored.
    Validation computes the curve's lift data, which ``lift`` and
    ``crossing_log`` then reuse.
    """
    comments = "#" in text
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        if comments and "#" in raw:
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
    isfinite = math.isfinite
    points: list[tuple[float, float]] = []
    for lineno, raw in lines:
        if comments and "#" in raw:
            raw = raw.partition("#")[0]
        # float() ignores the whitespace around a number, so a line is
        # stripped only to skip it when blank or to quote it in an error
        xs, comma, ys = raw.partition(",")
        if not comma or "," in ys:
            if not comma and not raw.strip():
                continue
            raise CurveError(f"line {lineno}: expected 'x,y'")
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            # str.strip() also removes U+001F, which float() keeps
            xs, _, ys = raw.strip().partition(",")
            try:
                x, y = float(xs), float(ys)
            except ValueError:
                raise CurveError(f"line {lineno}: bad coordinates {raw.strip()!r}") from None
        if not (isfinite(x) and isfinite(y)):
            raise CurveError(f"line {lineno}: coordinates must be finite, not {raw.strip()!r}")
        points.append((x, y))
    curve = CurveOnSurface(model, Polyline(tuple(points)))
    # the coordinates are finite, so the lift data is stored without the
    # finiteness pass that ``_lift_data`` runs on a directly built curve
    vars(curve)["_lift_data"] = _validated(curve)
    return curve


def read_curve_file(path: str) -> CurveOnSurface:
    with open(path, "r", encoding="utf-8") as fh:
        return load_curve(fh.read())
