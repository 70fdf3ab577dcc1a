import math

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
    # without a NaN and once passed for a cusp at vertex 0
    for huge in (
        ((1e308, 0), (-1e308, 0), (0, 1e308)),
        ((2.41e154, -3.67e153), (-6.43e153, 8.48e153), (1.57e154, -1.83e153)),
    ):
        with pytest.raises(CurveError, match="^coordinates too large"):
            turning_number(Polyline(huge))


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
    for line in ("0;0,1", "1,0x1", "a,b", ",1", "1,"):
        with pytest.raises(CurveError, match=f"^line 2: bad coordinates {line!r}$"):
            load_curve(f"model=torus\n {line}\n")


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
# never followed by an angle sum that is no multiple of 2 pi (or a tangent
# lift that does not close): exterior angles from finite products always
# sum to one, and an overflowing plane curve is reported as too large
# first.
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
