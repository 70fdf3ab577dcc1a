import math
import re
import tracemalloc

import pytest

from curvespace import CurveOnSurface, Polyline, classify_pi1, st_parse, verify_classification
from curvespace.stbundle import st_is_trivial, st_multiply, st_text, st_word
from curvespace.flatcurves import (
    CurveError,
    Model,
    _validated,
    lift,
    load_curve,
    read_curve_file,
)
from curvespace.classify import Kind

from conftest import KLEIN, NONOR3, RP2, SPHERE, TORUS


SQUARE = Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
FIGURE_EIGHT = Polyline(
    ((0, 0), (2, 1), (3, 0), (2, -1), (0, 0), (-2, 1), (-3, 0), (-2, -1))
)


def plane_curve(poly):
    return CurveOnSurface(Model.PLANE, poly)


def turning_number(poly):
    """The turning number of a plane polyline: the fiber exponent of its lift
    to the torus, where the fiber class has infinite order."""
    return lift(plane_curve(poly), TORUS).fiber


def rotate(poly, k):
    v = poly.vertices
    return Polyline(v[k:] + v[:k])


def test_turning_numbers():
    assert turning_number(SQUARE) == 1
    assert turning_number(Polyline(tuple(reversed(SQUARE.vertices)))) == -1
    assert turning_number(FIGURE_EIGHT) == 0
    # a doubled square turns twice
    doubled = Polyline(SQUARE.vertices * 2)
    assert turning_number(doubled) == 2


def test_turning_number_invariances():
    for k in range(len(SQUARE.vertices)):
        assert turning_number(rotate(SQUARE, k)) == 1
    for k in range(len(FIGURE_EIGHT.vertices)):
        assert turning_number(rotate(FIGURE_EIGHT, k)) == 0
    assert turning_number(Polyline(tuple(reversed(FIGURE_EIGHT.vertices)))) == 0


def test_turning_number_subdivision_invariance():
    v = SQUARE.vertices
    sub = []
    n = len(v)
    for i in range(n):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % n]
        sub.append((x0, y0))
        sub.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
    assert turning_number(Polyline(tuple(sub))) == 1


def test_regularity_rejections():
    with pytest.raises(CurveError):
        turning_number(Polyline(((0, 0), (1, 0))))
    with pytest.raises(CurveError):
        turning_number(Polyline(((0, 0), (1, 0), (1, 0), (0, 1))))
    # cusp: the path doubles straight back
    with pytest.raises(CurveError):
        turning_number(Polyline(((0, 0), (2, 0), (1, 0))))
    # cusps at vertices 0 and 2: vertex 0 is the closing corner, checked last
    with pytest.raises(CurveError, match="cusp .* at vertex 2$"):
        turning_number(Polyline(((0, 0), (2, 0), (3, 0), (1, 0))))
    for bad in (math.inf, math.nan):
        with pytest.raises(CurveError, match="^coordinates must be finite$"):
            turning_number(Polyline(((0, 0), (1, 0), (bad, 1))))
    # finite, but the edges overflow; near 1e154 the corner products overflow
    # without a NaN, and once passed for a cusp at vertex 0 (the triangle)
    # or added up to a whole turn (the quad)
    for huge in (
        ((1e308, 0), (-1e308, 0), (0, 1e308)),
        ((2.41e154, -3.67e153), (-6.43e153, 8.48e153), (1.57e154, -1.83e153)),
        (
            (8.297679911921778e153, -9.780227487418082e153),
            (9.441306085543146e153, 8.974373626697597e153),
            (-9.218853223206456e153, -4.843499100200577e153),
            (-2.939743981254932e153, 7.059221076979758e153),
        ),
    ):
        with pytest.raises(CurveError, match="^coordinates too large"):
            turning_number(Polyline(huge))
    # each edge's squares sum past 1e308, so the corners are checked, but
    # every corner product is finite: a regular square, lifting to f
    side = 1.2e154
    square = Polyline(((0, 0), (side, 0), (side, side), (0, side)))
    assert st_text(lift(plane_curve(square), TORUS)) == "f"


def test_plane_lifts():
    assert st_text(lift(plane_curve(SQUARE), TORUS)) == "f"
    fig8 = plane_curve(FIGURE_EIGHT)
    assert st_is_trivial(lift(fig8, TORUS))
    assert st_is_trivial(lift(fig8, NONOR3))
    assert st_is_trivial(lift(fig8, KLEIN))
    # sphere: residues mod 2
    assert lift(plane_curve(SQUARE), SPHERE) == st_parse("f", SPHERE)
    assert st_is_trivial(lift(plane_curve(Polyline(SQUARE.vertices * 2)), SPHERE))


def test_plane_lift_on_rp2():
    # the fiber class has order two: a doubled circle is regularly homotopic
    # to the figure eight on the projective plane
    circle = lift(plane_curve(SQUARE), RP2)
    doubled = lift(plane_curve(Polyline(SQUARE.vertices * 2)), RP2)
    assert circle == st_parse("f", RP2)
    assert st_is_trivial(doubled)


def test_fig8_classification_matches_trivial_case():
    fig8 = plane_curve(FIGURE_EIGHT)
    assert classify_pi1(TORUS, lift(fig8, TORUS)).group.kind is Kind.FULL_ST_GROUP
    assert classify_pi1(NONOR3, lift(fig8, NONOR3)).group.kind is Kind.FULL_ST_GROUP


def test_torus_loops():
    horiz = load_curve("model=torus\n0.5,0.5\n1.2,0.5\n1.5,0.5\n")
    el = lift(horiz, TORUS)
    assert st_text(el) == "a1"
    assert classify_pi1(TORUS, el).group.kind is Kind.ZXZXZ
    assert verify_classification(TORUS, el).passed
    vert = load_curve("model=torus\n0.5,0.5\n0.5,1.2\n0.5,1.5\n")
    assert st_text(lift(vert, TORUS)) == "b1"
    diag = load_curve("model=torus\n0.5,0.4\n1.3,1.2\n1.5,1.4\n")
    assert st_text(lift(diag, TORUS)) == "a1 b1"


def test_klein_side_loops():
    right = load_curve("model=klein\n0.5,0.5\n1.2,0.5\n1.5,0.5\n")
    up = load_curve("model=klein\n0.5,0.5\n0.5,1.2\n0.5,1.5\n")
    # the glide side is c2^-1, the preserving side is c1 c2
    assert st_text(lift(right, KLEIN)) == "C2"
    assert st_text(lift(up, KLEIN)) == "c1 c2"


def test_klein_double_traverse_is_square():
    base = CurveOnSurface(Model.KLEIN, Polyline(((0.5, 0.5), (1.2, 0.7), (1.5, 0.5))))
    (a, b), fiber = _validated(base)

    def deck(pt):
        x, y = pt
        if b % 2 == 0:
            return (x + b, y + a)
        return (x + b, 1.0 - y + a)

    doubled = CurveOnSurface(
        Model.KLEIN,
        Polyline(base.polyline.vertices[:-1] + tuple(deck(p) for p in base.polyline.vertices)),
    )
    u = lift(base, KLEIN)
    assert lift(doubled, KLEIN) == st_multiply(u, u)


def test_chart_lift_subdivision_invariance():
    coarse = CurveOnSurface(Model.KLEIN, Polyline(((0.5, 0.5), (1.2, 0.7), (1.5, 0.5))))
    fine = CurveOnSurface(
        Model.KLEIN,
        Polyline(((0.5, 0.5), (0.85, 0.6), (1.2, 0.7), (1.35, 0.6), (1.5, 0.5))),
    )
    assert lift(coarse, KLEIN) == lift(fine, KLEIN)


def test_chart_rejections():
    # corner crossing: straight through the lattice point (1, 1)
    with pytest.raises(CurveError):
        lift(
            CurveOnSurface(Model.TORUS, Polyline(((0.5, 0.5), (1.2, 1.2), (1.5, 1.5)))),
            TORUS,
        )
    # vertex on a grid line
    with pytest.raises(CurveError):
        lift(
            CurveOnSurface(Model.TORUS, Polyline(((0.5, 0.5), (1.0, 0.6), (1.5, 0.5)))),
            TORUS,
        )
    # endpoint does not close up
    with pytest.raises(CurveError):
        lift(
            CurveOnSurface(Model.TORUS, Polyline(((0.5, 0.5), (1.2, 0.6), (1.6, 0.5)))),
            TORUS,
        )
    # model/surface mismatch
    with pytest.raises(CurveError):
        lift(
            CurveOnSurface(Model.KLEIN, Polyline(((0.5, 0.5), (1.2, 0.5), (1.5, 0.5)))),
            TORUS,
        )


def test_chart_rejections_by_message():
    for verts, message in (
        # the last vertex closes up horizontally, but not by a deck
        # transformation of the start point
        (((0.5, 0.5), (0.9, 0.7), (1.5, 0.6)), "endpoint is not a deck image of the start point"),
        # the closing edge turns straight back along the first one
        (((0.5, 0.5), (0.8, 0.6), (1.8, 0.6), (1.5, 0.5)), "cusp .* at the basepoint$"),
    ):
        with pytest.raises(CurveError, match=message):
            lift(CurveOnSurface(Model.TORUS, Polyline(verts)), TORUS)
    # on the Klein bottle the glide flips the first edge before the corner
    klein = CurveOnSurface(Model.KLEIN, Polyline(((0.5, 0.5), (0.8, 0.6), (1.8, 0.4), (1.5, 0.5))))
    with pytest.raises(CurveError, match="cusp .* at the basepoint$"):
        lift(klein, KLEIN)
    # a valid torus-model curve, lifted on the Klein bottle
    loop = CurveOnSurface(Model.TORUS, Polyline(((0.5, 0.5), (1.2, 0.6), (1.5, 0.5))))
    assert st_text(lift(loop, TORUS)) == "a1"
    with pytest.raises(CurveError, match="torus-model curves need the torus"):
        lift(loop, KLEIN)


def test_curve_file_parsing():
    curve = load_curve("# a comment\nmodel=plane\n0,0 # origin\n1,0\n1,1\n0,1\n")
    assert curve.model is Model.PLANE
    assert turning_number(curve.polyline) == 1
    with pytest.raises(CurveError):
        load_curve("0,0\n1,0\n")
    with pytest.raises(CurveError):
        load_curve("model=moebius\n0,0\n")
    with pytest.raises(CurveError):
        load_curve("model=plane\n0;0\n")
    with pytest.raises(CurveError, match="^coordinates too large"):
        load_curve("model=plane\n1e308,0\n-1e308,0\n0,1e308\n")
    # a chart file with no vertex lines
    for text in ("model=torus\n", "model=klein\n"):
        with pytest.raises(CurveError, match="at least 3 vertices"):
            load_curve(text)
    for bad in ("inf", "nan", "1e999"):
        with pytest.raises(CurveError, match="line 3: coordinates must be finite"):
            load_curve(f"model=torus\n0.5,0.5\n{bad},0.5\n1.5,0.5\n")
        with pytest.raises(CurveError, match="line 3: coordinates must be finite"):
            load_curve(f"model=plane\n0,0\n1,{bad}\n1,1\n")
        # a directly built curve is checked when it is first lifted
        v = float(bad)
        for model, verts, surface in (
            (Model.TORUS, ((0.5, 0.5), (v, 0.5), (1.5, 0.5)), TORUS),
            (Model.KLEIN, ((0.5, 0.5), (1.2, v), (1.5, 0.5)), KLEIN),
            (Model.PLANE, ((0, 0), (1, v), (1, 1)), TORUS),
        ):
            with pytest.raises(CurveError, match="^coordinates must be finite$"):
                lift(CurveOnSurface(model, Polyline(verts)), surface)


def test_curve_file_grammar_paths():
    # no model line at all: nothing, blank lines or comments only
    for text in ("", "\n  \n", "# a comment\n\n   # another\n"):
        with pytest.raises(CurveError, match="^empty curve file$"):
            load_curve(text)
    # blank and whitespace-only vertex lines are skipped
    spaced = load_curve("model=plane\n\n0,0\n   \n1,0\n\t\n1,1\n# c\n0,1\n\n")
    assert spaced.polyline == SQUARE
    # str.strip() removes U+001F around a line, which float() keeps
    framed = load_curve("model=plane\n\x1f0,0\x1f\n1,0\n1,1\x1f\n0,1\n")
    assert framed.polyline == SQUARE
    # inside a line it stays, and the line is quoted stripped
    with pytest.raises(CurveError, match=r"^line 3: bad coordinates '1\\x1f,0'$"):
        load_curve("model=plane\n0,0\n 1\x1f,0 \n1,1\n")
    # float() also reads digit-group underscores and non-ASCII digits and
    # spaces; the file grammar does not
    for line in ("0;0,1", "1,0x1", "a,b", ",1", "1,", "3_0,0.5", "1,0_5", "\u0663,0.5", "\uff11,0", "1\u00a0,0"):
        with pytest.raises(CurveError, match="^" + re.escape(f"line 2: bad coordinates {line!r}") + "$"):
            load_curve(f"model=torus\n {line}\n")
    # a faulty line before them is reported first
    with pytest.raises(CurveError, match="^line 2: expected 'x,y'$"):
        load_curve("model=plane\n0;0\n3_0,0.5\n1,1\n")
    # non-ASCII text in a comment, or as whitespace around a line, is no
    # part of a coordinate
    square = load_curve("model=plane # caf\u00e9\n0,0 # \u0663\n\u00a01,0\u3000\n\u3000\n1,1\n0,1\n")
    assert square.polyline == SQUARE


def test_curve_file_with_a_byte_order_mark(tmp_path):
    # a UTF-8 file saved with a byte-order mark, as some editors write it
    path = tmp_path / "bom.curve"
    path.write_bytes("model=torus\n0.5,0.5\n1.2,0.6\n1.5,0.5\n".encode("utf-8-sig"))
    assert st_text(lift(read_curve_file(str(path)), TORUS)) == "a1"


def test_klein_fiber_against_fold_frame_simulation():
    """Independent fiber oracle: walk the normalized path with the tangent
    angle reflected at every glide-wall crossing and corners measured in the
    folded frame.  Must agree with the deck-equation lift (odd glide classes
    up to the fixed basepoint-frame sign, which is a fiber-conjugation)."""
    import random

    from curvespace.words import klein_coordinates

    def normalize_start(verts):
        # pull the path back so its first vertex lies in the unit cell; an
        # odd shift T^-i reflects the vertical coordinate
        i, j = math.floor(verts[0][0]), math.floor(verts[0][1])
        if i % 2 == 0:
            return tuple((x - i, y - j) for x, y in verts)
        return tuple((x - i, 1.0 - (y - j)) for x, y in verts)

    def fold_frame_fiber(curve):
        verts = normalize_start(curve.polyline.vertices)
        m = len(verts) - 1
        edges = [
            (verts[i + 1][0] - verts[i][0], verts[i + 1][1] - verts[i][1])
            for i in range(m)
        ]
        parity = 0
        theta = math.atan2(edges[0][1], edges[0][0])
        theta0 = theta

        def angle(u, v):
            return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])

        for i in range(m):
            # each vertical grid line the edge crosses is a glide wall; no
            # vertex lies on one, so the floors count them
            walls = abs(math.floor(verts[i + 1][0]) - math.floor(verts[i][0]))
            if walls % 2:
                theta = -theta
                parity ^= 1
            nxt = edges[i + 1] if i + 1 < m else None
            if nxt is not None:
                f1 = (edges[i][0], edges[i][1] if parity == 0 else -edges[i][1])
                f2 = (nxt[0], nxt[1] if parity == 0 else -nxt[1])
                theta += angle(f1, f2)
        last = (edges[-1][0], edges[-1][1] if parity == 0 else -edges[-1][1])
        theta += angle(last, edges[0])
        turns = (theta - theta0) / (2 * math.pi)
        assert abs(turns - round(turns)) < 1e-6
        return round(turns)

    rng = random.Random(12)
    tested = 0
    while tested < 120:
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        first = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        middle = [
            (first[0] + rng.uniform(-2.5, 2.5), first[1] + rng.uniform(-2.5, 2.5))
            for _ in range(rng.randrange(2, 6))
        ]
        closing = (
            (first[0] + b, first[1] + a)
            if b % 2 == 0
            else (first[0] + b, 1 - first[1] + a)
        )
        curve = CurveOnSurface(Model.KLEIN, Polyline((first, *middle, closing)))
        try:
            el = lift(curve, KLEIN)
        except CurveError:
            continue
        tested += 1
        assert klein_coordinates(el.base.letters) == (a, b)
        oracle = fold_frame_fiber(curve)
        assert oracle == (el.fiber if b % 2 == 0 else -el.fiber)


def test_winding_circle_polygon_on_torus():
    # a regular octagon, counterclockwise: turning +1 like any convex polygon
    octagon = Polyline(
        tuple(
            (math.cos(2 * math.pi * i / 8), math.sin(2 * math.pi * i / 8))
            for i in range(8)
        )
    )
    assert turning_number(octagon) == 1
    assert st_text(lift(plane_curve(octagon), TORUS)) == "f"


def _curve_text(model, pts):
    return f"model={model.value}\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts)


def _seeded_curves(rng):
    """Jittered circles on the plane and random chart loops on the torus and
    the Klein bottle, as (model, vertices, surface)."""
    out = []
    for turns in (-2, 1, 3):
        n = rng.randrange(40, 200)
        out.append(
            (
                Model.PLANE,
                tuple(
                    (
                        (1 + 0.02 * rng.random()) * math.cos(2 * math.pi * turns * i / n),
                        (1 + 0.02 * rng.random()) * math.sin(2 * math.pi * turns * i / n),
                    )
                    for i in range(n)
                ),
                TORUS,
            )
        )
    for model, surface in ((Model.TORUS, TORUS), (Model.KLEIN, KLEIN)):
        found = 0
        while found < 4:
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            first = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            middle = [
                (first[0] + rng.uniform(-2.5, 2.5), first[1] + rng.uniform(-2.5, 2.5))
                for _ in range(rng.randrange(2, 8))
            ]
            glide = model is Model.KLEIN and b % 2 != 0
            closing = (first[0] + b, (1 - first[1] if glide else first[1]) + a)
            verts = (first, *middle, closing)
            try:
                lift(CurveOnSurface(model, Polyline(verts)), surface)
            except CurveError:
                continue
            found += 1
            out.append((model, verts, surface))
    return out


def test_loaded_curve_lifts_like_constructed_curve():
    import random

    rng = random.Random(2)
    crossed = 0
    for model, verts, surface in _seeded_curves(rng):
        loaded = load_curve(_curve_text(model, verts))
        built = CurveOnSurface(model, Polyline(verts))
        # loading cached the lift data on ``loaded`` only
        assert loaded == built and hash(loaded) == hash(built)
        first = lift(loaded, surface)
        assert first == lift(built, surface)
        # the second lift of one object reads the same lift data
        assert lift(loaded, surface) == first
        assert lift(built, surface) == first
        crossed += bool(first.base.letters)
    assert crossed >= 6


# README "Curve files": one curve for each pair of faults adjacent in the
# order in which they are reported; the first fault named wins.  A cusp is
# the last corner fault: the fiber exponent is a count of direction wraps,
# an integer by construction, so no angle sum can fail to close.
PLANE_FAULT_ORDER = (
    # fewer than three vertices, then a zero-length edge
    (((0, 0), (0, 0)), "^a closed polyline needs at least 3 vertices$"),
    # a zero-length edge, then coordinates too large
    (((0, 0), (0, 0), (1e308, 0), (-1e308, 1e308)), "^zero-length edge at vertex 0$"),
    # coordinates too large, then a cusp at vertex 1
    (((0, 0), (2, 0), (1, 0), (1e308, 1e308), (-1e308, 1e308)), "^coordinates too large"),
    # a cusp at vertex 1, then one at the closing corner
    (((0, 0), (2, 0), (1, 0), (3, 0)), "^cusp .* at vertex 1$"),
)
CHART_FAULT_ORDER = (
    # fewer than three vertices, then a vertex on a grid line
    (((1.0, 0.5), (0.5, 0.5)), "^a chart curve needs at least 3 vertices"),
    # a zero-length edge, then a vertex on a grid line
    (((0.5, 0.5), (0.5, 0.5), (1.0, 0.6), (1.5, 0.5)), "^vertices may not lie on grid lines"),
    # a zero-length edge, then an open endpoint
    (((0.5, 0.5), (0.5, 0.5), (0.9, 0.5)), "^zero-length edge at vertex 0$"),
    # an open endpoint, horizontally and vertically
    (((0.5, 0.5), (1.2, 0.6), (1.6, 0.7)), "^endpoint does not close up horizontally$"),
    # an endpoint that is no deck image, then a cusp at vertex 1
    (((0.5, 0.5), (1.2, 0.5), (0.9, 0.5), (1.5, 0.7)), "^endpoint is not a deck image"),
    # a cusp at vertex 1, then one at the basepoint
    (((0.5, 0.5), (1.2, 0.5), (0.9, 0.5), (1.8, 0.5), (1.5, 0.5)), "^cusp .* at vertex 1$"),
    # a cusp at vertex 1, then an edge past the crossing cap
    (((0.5, 0.5), (300000.5, 0.5), (0.7, 0.5), (1.5, 0.5)), "^cusp .* at vertex 1$"),
    # the crossing cap, then a grid corner on a later edge
    (
        ((0.5, 0.5), (60000.5, 0.7), (60000.7, 3.6), (0.3, 3.4), (0.5, 2.5), (1.5, 1.5), (2.5, 0.5)),
        "^the path crosses more than 100000 grid lines$",
    ),
    # a grid corner, then the crossing cap on a later edge
    (
        ((0.5, 0.5), (1.5, 1.5), (60000.5, 2.7), (60000.7, 5.6), (0.3, 5.4), (2.5, 0.5)),
        "^edge 0 passes through a grid corner",
    ),
)


def test_zero_length_edge_reported_before_open_endpoint():
    with pytest.raises(CurveError, match="zero-length edge"):
        load_curve("model=torus\n0.5,0.5\n0.5,0.5\n0.9,0.5\n")
    # the whole order of README "Curve files", for every model
    cases = [(Model.PLANE, verts, TORUS, message) for verts, message in PLANE_FAULT_ORDER]
    for model, surface in ((Model.TORUS, TORUS), (Model.KLEIN, KLEIN)):
        cases += [(model, verts, surface, message) for verts, message in CHART_FAULT_ORDER]
    for model, verts, surface, message in cases:
        with pytest.raises(CurveError, match=message):
            lift(CurveOnSurface(model, Polyline(verts)), surface)


def test_plane_and_chart_curves_agree():
    """A polygon inside one open unit cell is a plane curve and, with its
    first vertex repeated, a chart path closed by the identity deck
    transformation.  Both lift to the trivial base with the turning number
    as the fiber, or both are rejected at the same vertex: their messages
    differ only in the name of the closing corner.  The cells lie in even
    columns, which the Klein chart does not reflect."""
    import random

    rng = random.Random(19)
    closing = "cusp (exterior angle of +-pi) at "
    lifted = rejected = 0
    for _ in range(200):
        i, j = 2 * rng.randrange(-2, 3), rng.randrange(-2, 3)
        verts = [(i + rng.uniform(0.05, 0.95), j + rng.uniform(0.05, 0.95)) for _ in range(rng.randrange(3, 9))]
        k = rng.randrange(len(verts))
        fault = rng.randrange(4)
        if fault == 1:
            # a zero-length edge
            verts.insert(k, verts[k])
        elif fault == 2:
            # a cusp: the path doubles back along edge k
            (px, py), (qx, qy) = verts[k - 1], verts[k]
            t = rng.uniform(0.1, 0.9)
            verts.insert(k + 1, (px + t * (qx - px), py + t * (qy - py)))
        verts = tuple(verts)
        for model, surface in ((Model.TORUS, TORUS), (Model.KLEIN, KLEIN)):
            chart = CurveOnSurface(model, Polyline(verts + verts[:1]))
            try:
                plane = lift(plane_curve(Polyline(verts)), surface)
            except CurveError as exc:
                message = str(exc)
                if message == closing + "vertex 0":
                    message = closing + "the basepoint"
                with pytest.raises(CurveError) as info:
                    lift(chart, surface)
                assert str(info.value) == message, verts
                rejected += 1
                continue
            assert lift(chart, surface) == plane == st_word(surface, (), turning_number(Polyline(verts))), verts
            lifted += 1
    assert lifted >= 100 and rejected >= 100


def test_long_winding_circle_lifts_to_third_fiber_power():
    n = 10_000
    pts = tuple(
        (math.cos(6 * math.pi * i / n), math.sin(6 * math.pi * i / n)) for i in range(n)
    )
    curve = load_curve(_curve_text(Model.PLANE, pts))
    assert st_text(lift(curve, TORUS)) == "f^3"


def test_star_polygon_turns_exactly():
    # the star polygon {600001/300000}: each vertex 300,000 steps of
    # 2 pi / 600,001 on from the last, so each exterior angle is within 6e-6
    # of pi and the star turns 300,000 times; a running float sum of its
    # exterior angles misses the whole number of turns by 2.7e-6 turns
    n, w = 600_001, 300_000
    star = tuple((math.cos(2 * math.pi * w * k / n), math.sin(2 * math.pi * w * k / n)) for k in range(n))
    assert lift(plane_curve(Polyline(star)), TORUS) == st_word(TORUS, (), w)
    # the same star inside one cell of each chart, closed by the identity
    cell = tuple((0.5 + 0.4 * x, 0.5 + 0.4 * y) for x, y in star)
    for model, surface in ((Model.TORUS, TORUS), (Model.KLEIN, KLEIN)):
        chart = CurveOnSurface(model, Polyline(cell + cell[:1]))
        assert _validated(chart) == ((0, 0), w)
        assert lift(chart, surface) == st_word(surface, (), w)


def test_turning_number_against_corner_angle_sum():
    """Independent check: the turning number of a random polygon is its
    exterior angles, each read as atan2(cross, dot) of the corner's edges,
    summed exactly and divided by 2 pi.  A polygon rejected for a cusp has
    a corner within 1e-9 of +-pi."""
    import random

    def corner_angles(verts):
        n = len(verts)
        edges = [
            (verts[(k + 1) % n][0] - verts[k][0], verts[(k + 1) % n][1] - verts[k][1])
            for k in range(n)
        ]
        # corner k turns edge k - 1 into edge k
        return [
            math.atan2(ux * ey - uy * ex, ux * ex + uy * ey)
            for (ux, uy), (ex, ey) in zip(edges[-1:] + edges[:-1], edges)
        ]

    rng = random.Random(31)
    lifted = rejected = 0
    for _ in range(2500):
        scale = 10.0 ** rng.uniform(0, 150)
        verts = [(scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1)) for _ in range(rng.randrange(3, 13))]
        if rng.random() < 0.3:
            # a near cusp: a vertex that doubles back along edge k - 1,
            # pushed off it by a small fraction of the edge
            k = rng.randrange(1, len(verts))
            (px, py), (qx, qy) = verts[k - 1], verts[k]
            t, off = rng.uniform(0.1, 0.9), rng.choice((0.0, 1e-12, 1e-10, 1e-8, 1e-6)) * rng.choice((-1, 1))
            verts.insert(k + 1, (px + t * (qx - px) - off * (qy - py), py + t * (qy - py) + off * (qx - px)))
        angles = corner_angles(verts)
        curve = plane_curve(Polyline(tuple(verts)))
        try:
            fiber = _validated(curve)[1]
        except CurveError as exc:
            assert str(exc).startswith("cusp"), verts
            assert max(map(abs, angles)) > math.pi - 1e-9, verts
            rejected += 1
            continue
        turns = math.fsum(angles) / (2 * math.pi)
        assert abs(turns - round(turns)) < 1e-9 and fiber == round(turns), verts
        lifted += 1
    assert lifted >= 2000 and rejected >= 100


def _load_peak_and_kept(text):
    """The tracemalloc peak inside ``load_curve(text)`` and the memory that
    the returned curve keeps, both in bytes above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        curve = load_curve(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return curve, peak - before, kept - before


def test_load_curve_holds_one_piece_of_lines():
    """Loading a 10,000-vertex file peaks at most 10% above what the curve
    keeps: the vertex tuples plus one piece of the text and its lines.  A
    list of every line alone would take the peak to about 1.9 times what
    the curve keeps."""
    n = 10_000
    plane = tuple((math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n))
    torus = tuple(
        (0.5 + 3 * k / (n - 1), 0.5 + 0.2 * math.sin(2 * math.pi * k / (n - 1))) for k in range(n)
    )
    for model, verts, lift_data in ((Model.PLANE, plane, (None, 1)), (Model.TORUS, torus, ((3, 0), 0))):
        text = _curve_text(model, verts)
        curve, peak, kept = _load_peak_and_kept(text)
        assert curve.polyline.vertices == verts and curve._lift_data == lift_data
        assert peak <= 1.1 * kept, (model, peak, kept)


def test_line_numbers_across_chunk_cuts():
    """A text of more than two pieces is split into the lines that
    ``text.split("\\n")`` gives, numbered the same, whichever separator
    straddles the first piece mark.  A ``\\r``, U+000B, U+001C or U+2028
    before the ``\\n`` is padding at the end of its line."""
    from curvespace.flatcurves import _CHUNK

    n = 4_000
    verts = tuple((math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n))
    rows = [f"{x!r},{y!r}" for x, y in verts]
    breaks = ("\n", "\r\n", "\x0b\n", "\x1c\n", "\u2028\n", "\n\n", "\n  # a comment\n")
    seps = [breaks[k % len(breaks)] for k in range(n - 1)]

    head = "model=plane\n#"

    def text_of(rows, pad):
        # a comment line of ``pad`` x's, then no newline after the last vertex
        body = "".join(row + sep for row, sep in zip(rows, seps)) + rows[-1]
        return head + "x" * pad + "\n" + body

    # where each separator starts in the text with no padding
    starts, offset = [], len(head) + 1
    for row, sep in zip(rows, seps):
        offset += len(row)
        starts.append(offset)
        offset += len(sep)
    fault = n - 100
    for brk in ("\r\n", "\x0b\n", "\x1c\n", "\u2028\n", "\n\n", "\n  # a comment\n"):
        # pad the first comment so that a ``brk`` begins just before the mark
        last = max(start for start, sep in zip(starts, seps) if sep == brk and start < _CHUNK)
        pad = _CHUNK - 1 - last
        text = text_of(rows, pad)
        assert text[_CHUNK - 1 :].startswith(brk) and len(text) > 2 * _CHUNK
        assert load_curve(text).polyline.vertices == verts
        broken = rows[:fault] + ["0.5,oops"] + rows[fault + 1 :]
        text = text_of(broken, pad)
        assert text.index("0.5,oops") > _CHUNK
        lineno = [line.strip() for line in text.split("\n")].index("0.5,oops") + 1
        with pytest.raises(CurveError, match=f"^line {lineno}: bad coordinates '0.5,oops'$"):
            load_curve(text)


def test_only_newline_ends_a_line(tmp_path):
    """Only ``\\n`` ends a line.  U+000B, U+000C, U+001C to U+001E, U+0085,
    U+2028 and U+2029 at the end of a line are stripped; inside a field the
    ones that ``float()`` refuses give bad coordinates, as U+001F does, and
    U+000B and U+000C pad a field as a space does.  A lone ``\\r`` stays
    inside its line; a file with ``\\r`` line ends loads through
    universal newlines."""
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(CurveError, match="^line 5: bad coordinates 'x,0'$"):
            load_curve(f"model=plane\n0,0{ch}\n1,0\n1,1\nx,0\n")
    for ch in "\x1c\x1d\x1e\x1f\x85\u2028\u2029":
        line = f"0{ch},0"
        with pytest.raises(CurveError, match=f"^line 2: bad coordinates {re.escape(repr(line))}$"):
            load_curve(f"model=plane\n{line}\n1,0\n1,1\n0,1\n")
    for ch in "\x0b\x0c":
        assert load_curve(f"model=plane\n0{ch},0\n1,0\n1,1\n0,1\n").polyline.vertices == square
    with pytest.raises(CurveError, match="^line 2: expected 'x,y'$"):
        load_curve("model=plane\n0,0\r1,0\n1,1\n0,1\n")
    path = tmp_path / "cr.curve"
    path.write_bytes(b"model=plane\r0,0\r1,0\r1,1\r0,1\r")
    assert read_curve_file(str(path)).polyline.vertices == square


def _chunk_curves():
    """Seeded curves whose files span one, two and three pieces: a jittered
    circle on the plane, a wobbling torus path from (0.5, 0.5) to (3.5, 0.5)
    and a Klein path that glides from (1.5, 0.5) to (2.5, 0.5), starting in
    an odd column, where the vertical coordinate is reflected."""
    import random

    from curvespace.flatcurves import _CHUNK

    rng = random.Random(24)
    # a line takes about 40 characters; an odd n - 1 keeps the paths'
    # vertices off the vertical grid lines
    for n in (2 * int(pieces * _CHUNK / 80) for pieces in (0.6, 1.5, 2.6)):
        yield Model.PLANE, tuple(
            ((1 + 0.01 * rng.random()) * math.cos(2 * math.pi * k / n),
             (1 + 0.01 * rng.random()) * math.sin(2 * math.pi * k / n))
            for k in range(n)
        )
        for model, x0, dx in ((Model.TORUS, 0.5, 3), (Model.KLEIN, 1.5, 1)):
            inner = tuple(
                (x0 + dx * k / (n - 1), 0.5 + 0.2 * math.sin(2 * math.pi * k / (n - 1)) + 0.01 * rng.random())
                for k in range(1, n - 1)
            )
            yield model, ((x0, 0.5),) + inner + ((x0 + dx, 0.5),)


def _outcome(text):
    """The vertices and lift data that ``load_curve`` gives, or its error."""
    try:
        curve = load_curve(text)
    except CurveError as exc:
        return str(exc)
    return curve.polyline.vertices, curve._lift_data


def _commented(text):
    """``text`` with `` # c`` at the end of every line, so that every piece
    holds a comment and goes through the line loop."""
    return text.replace("\n", " # c\n") + " # c"


def _count_line_loops(monkeypatch):
    """A list that counts the calls of the line loop from now on."""
    from curvespace import flatcurves

    calls = []
    line_points = flatcurves._line_points

    def spy(*args):
        calls.append(args)
        return line_points(*args)

    monkeypatch.setattr(flatcurves, "_line_points", spy)
    return calls


def test_bulk_chunks_load_as_the_line_loop_does(monkeypatch):
    """A text with no comment is converted a piece at a time in bulk; the
    same text with a comment at the end of every line goes through the line
    loop.  Both give the same vertices and lift data, on every model and
    whether the text has one, two or three pieces."""
    from curvespace.flatcurves import _CHUNK

    calls = _count_line_loops(monkeypatch)
    spans = set()
    for model, verts in _chunk_curves():
        text = _curve_text(model, verts)
        spans.add(len(text) // _CHUNK + 1)
        curve = load_curve(text)
        assert curve.polyline.vertices == verts
        assert not calls
        reference = _outcome(_commented(text))
        assert len(calls) == len(text) // _CHUNK + 1
        calls.clear()
        assert _outcome(text) == reference
        # without a final newline
        assert _outcome(text[:-1]) == reference
        assert not calls
    assert spans == {1, 2, 3}


def test_a_comment_sends_only_its_own_piece_through_the_line_loop(monkeypatch):
    """A comment line, ASCII or not, at the top of a three-piece text or
    first in its first piece: the text loads the vertices and lift data that
    it loads without the line, and the error that it gives with a blank line
    there, and only a piece that holds the comment goes through the line
    loop."""
    model, verts = list(_chunk_curves())[-1]
    text = _curve_text(model, verts)
    head, _, body = text.partition("\n")
    # a fault in the third piece
    rows = body.split("\n")
    at = len(rows) * 9 // 10
    faulty = "\n".join(rows[:at] + ["nan,0.5"] + rows[at + 1 :])
    clean = _outcome(text)
    assert clean[0] == verts
    calls = _count_line_loops(monkeypatch)
    for comment in ("# header", "# caf\u00e9"):
        for lines, loops in (([comment, head], 0), ([head, comment], 1)):
            calls.clear()
            assert _outcome("\n".join(lines + [body])) == clean
            assert len(calls) == loops
            blank = ["" if line == comment else line for line in lines]
            got = _outcome("\n".join(lines + [faulty]))
            assert got == _outcome("\n".join(blank + [faulty]))
            assert got == f"line {at + 3}: coordinates must be finite, not 'nan,0.5'"


def test_faults_in_a_later_chunk_are_named_by_the_line_loop():
    """One fault in the second or third piece of a three-piece text: the
    error names the faulty line as ``text.splitlines()`` counts it, with the
    text the line loop gives.  Faults that the grammar allows (a blank line,
    a CRLF break, spaces around the numbers) load the same vertices."""
    from curvespace.flatcurves import _CHUNK

    model, verts = list(_chunk_curves())[-1]
    rows = [f"{x!r},{y!r}" for x, y in verts]
    head = f"model={model.value}\n"
    assert len(head) + sum(len(row) + 1 for row in rows) > 2 * _CHUNK
    clean = _outcome(head + "\n".join(rows) + "\n")
    assert clean[0] == verts

    faults = (
        (lambda x, y: f"nan,{y}", "coordinates must be finite, not {!r}"),
        (lambda x, y: f"{x},1e999", "coordinates must be finite, not {!r}"),
        (lambda x, y: "0.5,oops", "bad coordinates {!r}"),
        (lambda x, y: "1,2,3", "expected 'x,y'"),
        (lambda x, y: x, "expected 'x,y'"),
        (lambda x, y: f"\n{x},{y}", None),
        (lambda x, y: f"{x},{y}\r", None),
        (lambda x, y: f" {x} , {y} ", None),
    )
    # where each row starts in the text
    starts = [len(head)]
    for row in rows:
        starts.append(starts[-1] + len(row) + 1)
    for piece in (2, 3):
        for k, (fault, message) in enumerate(faults):
            # a row about _CHUNK / 32 characters further into the piece per fault
            at = next(i for i, start in enumerate(starts) if start > (piece - 1 + (k + 1) / 32) * _CHUNK)
            x, _, y = rows[at].partition(",")
            line = fault(x, y)
            text = head + "\n".join(rows[:at] + [line] + rows[at + 1 :]) + "\n"
            got = _outcome(text)
            assert got == _outcome(_commented(text)), (piece, line)
            if message is None:
                assert got == clean, (piece, line)
            else:
                lineno = text.splitlines().index(line) + 1
                assert got == f"line {lineno}: " + message.format(line.strip()), (piece, line)
    # a last line with no comma and no newline
    text = head + "\n".join(rows) + "\n0.5;0.5"
    assert _outcome(text) == f"line {len(rows) + 2}: expected 'x,y'"


# the answer at each vertex probe q + 1e-9, its lower and upper neighbour,
# q + 1 - 1e-9, its lower and upper neighbour: G for a vertex on a grid
# line, C past the crossing cap, B a cusp at the basepoint, or the fiber
# exponent of the lift (deck class (1, 0) on the torus, (0, 1) on the Klein
# bottle)
CELL_BOX_ANSWERS = {
    ("torus", "x"): {0: "-1 G -1 G 0 G", -1: "G G -1 -1 -1 G", 3: "1 G 1 1 1 G",
                     2**20: "G G C G C G", 2**40: "G B B G B B"},
    ("torus", "y"): {0: "1 G 1 G -1 G", -1: "G G 0 0 0 G", 3: "0 G 0 0 0 G",
                     2**20: "G G C G C G", 2**40: "G B B G B B"},
    ("klein", "x"): {0: "G G G G 2 G", -1: "2 G 2 2 2 2", 3: "-1 G -1 -1 -1 G",
                     2**20: "G G C G C G", 2**40: "G B B G B B"},
    ("klein", "y"): {0: "G G G G 2 G", -1: "0 G 0 1 1 1", 3: "-1 G -1 0 0 G",
                     2**20: "G G C G C G", 2**40: "G C C G C C"},
}
CELL_BOX_ERRORS = {
    "G": "vertices may not lie on grid lines; perturb the curve",
    "C": "the path crosses more than 100000 grid lines",
    "B": "cusp (exterior angle of +-pi) at the basepoint",
}


def test_cell_box_keeps_the_exact_grid_line_answers():
    """A vertex in the cell of the vertex before it skips the grid-line
    test only where that test passes.  Each probe follows a vertex in its
    cell, on a torus path and on a Klein path that starts in an odd column
    (the pulled-back vertical coordinate is reflected there)."""
    for (model, axis), rows in CELL_BOX_ANSWERS.items():
        start, end = ((0.5, 0.5), (1.5, 0.5)) if model == "torus" else ((1.5, 0.5), (2.5, 0.5))
        deck = (1, 0) if model == "torus" else (0, 1)
        for q, answers in rows.items():
            lo, hi = q + 1e-9, q + 1 - 1e-9
            probes = (lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                      hi, math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf))
            for p, answer in zip(probes, answers.split()):
                mid = ((q + 0.5, 0.45), (p, 0.6)) if axis == "x" else ((0.45, q + 0.5), (0.6, p))
                got = _outcome(_curve_text(Model(model), (start, *mid, end)))
                want = CELL_BOX_ERRORS.get(answer) or (deck, int(answer))
                assert (got if isinstance(got, str) else got[1]) == want, (model, axis, q, p)
