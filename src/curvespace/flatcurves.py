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

Ingestion is one pass over the vertices, linear in their number: a curve's
lift data (turning number, or deck class, fiber exponent and crossing log)
is computed once per ``CurveOnSurface`` and cached on it, so ``load_curve``
validates by computing it and ``lift`` and ``crossing_log`` reuse it.  The
crossing scan runs only on edges whose endpoints lie in different grid
cells: no vertex lies within 1e-9 of a grid line, so two endpoints with the
same floor on both axes lie in one open cell, and no integer lies strictly
between their coordinates on either axis.  For the same reason an edge
crosses exactly ``|dx| + |dy|`` grid lines, where ``(dx, dy)`` is the step
between its endpoint cells, so a path that crosses more than
``_MAX_GRID_CROSSINGS`` lines is rejected before any crossing is listed and
the cost stays bounded however large the coordinates are.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple

from .surfaces import Regime, SurfaceSpec, regime
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


class CurveError(ValueError):
    """Malformed, degenerate, or non-regular curve input."""


class Model(Enum):
    PLANE = "plane"
    TORUS = "torus"
    KLEIN = "klein"


class Polyline(NamedTuple):
    vertices: tuple[tuple[float, float], ...]


class Crossing(NamedTuple):
    """One transition of the developed path across a grid line."""

    edge: int
    axis: str  # "x" for vertical lines, "y" for horizontal lines
    line: int
    direction: int  # +1 rightward/upward


class _CurveOnSurface(NamedTuple):
    model: Model
    polyline: Polyline


class CurveOnSurface(_CurveOnSurface):
    # no __slots__: cached_property stores the lift data in the instance dict

    @cached_property
    def _lift_data(self):
        """(deck coordinates, fiber exponent, crossing log), computed on first
        use and kept; plane curves have no deck coordinates (``None``), an
        empty log, and their turning number as the fiber exponent.  It lives
        in the instance dict, outside the tuple of fields, so it takes no
        part in equality or hashing."""
        if not all(map(math.isfinite, chain.from_iterable(self.polyline.vertices))):
            raise CurveError("coordinates must be finite")
        if self.model is Model.PLANE:
            return None, turning_number(self.polyline), ()
        return _chart_data(self)


def _edges(path) -> list[tuple[float, float]]:
    """Edge vectors between consecutive vertices of ``path``; edge i starts
    at vertex i.  Rejects a zero-length edge."""
    edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(path, islice(path, 1, None))]
    for i, (ex, ey) in enumerate(edges):
        if math.hypot(ex, ey) < 1e-12:
            raise CurveError(f"zero-length edge at vertex {i}")
    return edges


def _angle_sum(edges, first, closing_at: str) -> float:
    """Sum of the exterior angles between consecutive edges, then between the
    last edge and ``first``.  The corner after edge i is vertex i + 1; the
    closing corner is named by ``closing_at``.  Rejects a cusp."""
    total = 0.0
    following = chain(islice(edges, 1, None), (first,))
    for i, ((ux, uy), (vx, vy)) in enumerate(zip(edges, following), start=1):
        a = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
        if abs(a) > _CUSP_ANGLE:
            where = f"at vertex {i}" if i < len(edges) else closing_at
            raise CurveError(f"cusp (exterior angle of +-pi) {where}")
        total += a
    return total


def turning_number(p: Polyline) -> int:
    """Sum of signed exterior angles over two pi, for plane-model polylines."""
    verts = p.vertices
    if len(verts) < 3:
        raise CurveError("a closed polyline needs at least 3 vertices")
    edges = _edges(verts + verts[:1])
    turns = _angle_sum(edges, edges[0], "at vertex 0") / _TWO_PI
    if abs(turns - round(turns)) > _TURN_TOL:
        raise CurveError("exterior angles do not sum to a multiple of 2 pi")
    return round(turns)


# ---------------------------------------------------------------------------
# chart models


def _near_int(x: float) -> bool:
    return abs(x - round(x)) < _INT_EPS


def _cell(pt) -> tuple[int, int]:
    return math.floor(pt[0]), math.floor(pt[1])


def _normalize_start(verts, model: Model):
    """Pull the path back so its first vertex lies in the unit cell.

    This identifies the basepoint frame with the fundamental-domain frame,
    so crossing words and the endpoint deck transformation agree.
    """
    i, j = _cell(verts[0])
    if model is Model.TORUS or i % 2 == 0:
        return tuple((x - i, y - j) for x, y in verts)
    # odd Klein shift: T^-i reflects the vertical coordinate
    return tuple((x - i, 1.0 - (y - j)) for x, y in verts)


def _segment_crossings(p, q, edge_index: int) -> list[tuple[float, Crossing]]:
    out: list[tuple[float, Crossing]] = []
    for axis, (a0, a1) in (("x", (p[0], q[0])), ("y", (p[1], q[1]))):
        lo, hi = min(a0, a1), max(a0, a1)
        direction = 1 if a1 > a0 else -1
        n = math.floor(lo) + 1
        while n < hi:
            if n > lo:
                t = (n - a0) / (a1 - a0)
                out.append((t, Crossing(edge_index, axis, n, direction)))
            n += 1
    out.sort(key=lambda item: item[0])
    for (t1, c1), (t2, c2) in zip(out, out[1:]):
        if t2 - t1 < 1e-9:
            raise CurveError(
                f"edge {edge_index} passes through a grid corner; perturb the curve"
            )
    return out


def _chart_data(curve: CurveOnSurface):
    """(deck coordinates, fiber exponent, crossing log) for a torus/Klein
    chart curve."""
    model = curve.model
    verts = _normalize_start(curve.polyline.vertices, model)
    if len(verts) < 3:
        raise CurveError("a chart curve needs at least 3 vertices (endpoint repeated)")
    for x, y in verts:
        if abs(x - round(x)) < _INT_EPS or abs(y - round(y)) < _INT_EPS:
            raise CurveError("vertices may not lie on grid lines; perturb the curve")
    edges = _edges(verts)

    # deck transformation solving endpoint = Delta(start)
    x0, y0 = verts[0]
    xe, ye = verts[-1]
    bx = xe - x0
    if not _near_int(bx):
        raise CurveError("endpoint does not close up horizontally")
    b = round(bx)
    glide = model is Model.KLEIN and b % 2 != 0
    ay = ye + y0 - 1.0 if glide else ye - y0
    if not _near_int(ay):
        raise CurveError("endpoint is not a deck image of the start point")
    a = round(ay)

    # turning: interior corners plus the closing corner against d(Delta)
    first = edges[0]
    if glide:
        first = (first[0], -first[1])
    total = _angle_sum(edges, first, "at the basepoint")
    if glide:
        theta0 = math.atan2(edges[0][1], edges[0][0])
        fiber = (2.0 * theta0 + total) / _TWO_PI
    else:
        fiber = total / _TWO_PI
    if abs(fiber - round(fiber)) > _TURN_TOL:
        raise CurveError("tangent lift does not close up to a fiber power")

    # crossing log, validated against the deck solution
    crossings: list[Crossing] = []
    count = 0
    px, py = math.floor(x0), math.floor(y0)
    for i, (x, y) in enumerate(islice(verts, 1, None)):
        qx, qy = math.floor(x), math.floor(y)
        if qx != px or qy != py:
            count += abs(qx - px) + abs(qy - py)
            if count > _MAX_GRID_CROSSINGS:
                raise CurveError(f"the path crosses more than {_MAX_GRID_CROSSINGS} grid lines")
            crossings += [c for _, c in _segment_crossings(verts[i], verts[i + 1], i)]
            px, py = qx, qy
    cx, cy = _cell(verts[0])
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
    if (cx, cy) != _cell(verts[-1]) or acc != expected:
        raise CurveError("crossing log disagrees with the endpoint; degenerate input")
    return expected, round(fiber), tuple(crossings)


def lift(curve: CurveOnSurface, surface: SurfaceSpec) -> STWord:
    """Tangent lift of the curve as a tangent-bundle group element."""
    reg = regime(surface)
    if curve.model is Model.PLANE:
        return st_word(surface, (), curve._lift_data[1])
    if curve.model is Model.TORUS:
        if reg is not Regime.TORUS:
            raise CurveError("torus-model curves need the torus")
        (p, q), fiber, _ = curve._lift_data
        return st_word(surface, spell_torus(p, q), fiber)
    if reg is not Regime.KLEIN:
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
    model: Model | None = None
    points: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        line = raw.strip()
        if not line:
            continue
        if model is None:
            if not line.startswith("model="):
                raise CurveError(f"line {lineno}: expected 'model=...' first")
            name = line[len("model=") :].strip()
            try:
                model = Model(name)
            except ValueError:
                raise CurveError(f"line {lineno}: unknown model {name!r}") from None
            continue
        xs, comma, ys = line.partition(",")
        if not comma or "," in ys:
            raise CurveError(f"line {lineno}: expected 'x,y'")
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise CurveError(f"line {lineno}: bad coordinates {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CurveError(f"line {lineno}: coordinates must be finite, not {line!r}")
        points.append((x, y))
    if model is None:
        raise CurveError("empty curve file")
    curve = CurveOnSurface(model, Polyline(tuple(points)))
    curve._lift_data  # validate now; the result stays cached on the curve
    return curve


def read_curve_file(path: str) -> CurveOnSurface:
    with open(path, "r", encoding="utf-8") as fh:
        return load_curve(fh.read())
