"""Seeded query lists for the four workloads.

A query is a plain JSON-able dict: ``shape`` names the runner in
``queries.py``, ``surface`` the surface, and the remaining fields carry the
inputs together with the answer expected by construction (see
``reference.py``).  Nothing here imports curvespace, so the list, and the
expectations in it, cannot depend on the code under test.

The structure of every list (how many queries of each shape, surface, word
length and curve size) is fixed; the seed picks only the letters, fibers,
curve shapes and the order.  That keeps the cost of a list nearly the same
from seed to seed, so the spread between seeds measures the program rather
than the draw.
"""

from __future__ import annotations

import math
import random

from reference import (
    Element,
    Surface,
    expected_case,
    expected_pin,
    invert,
    inverse_text,
    not_a_square,
    relator_conjugate_fiber,
    residue,
    rotate,
    spell,
)

SPHERE = Surface(True, 0)
TORUS = Surface(True, 1)
RP2 = Surface(False, 1)
KLEIN = Surface(False, 2)
GENUS2 = Surface(True, 2)
GENUS3 = Surface(True, 3)
NONOR3 = Surface(False, 3)
NONOR4 = Surface(False, 4)
PUNCTURED_OR = Surface(True, 1, 2)
PUNCTURED_NONOR = Surface(False, 2, 1)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"curvespace-bench:{workload}:{seed}")


def random_reduced(rng: random.Random, surface: Surface, length: int) -> tuple[int, ...]:
    n = len(surface.names)
    out: list[int] = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, n)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def cyclically_reduced(rng, surface, length):
    while True:
        w = random_reduced(rng, surface, length)
        if length < 2 or w[0] != -w[-1]:
            return w


# ---------------------------------------------------------------------------
# elements with a known case (desk_mix, verify_box, cli_cold)


def _trivial_base(rng, s: Surface, max_len: int):
    """A spelling of the identity and the fiber its relator copies carry."""
    if s.relator and len(s.relator) <= max_len:
        t = random_reduced(rng, s, rng.randint(0, (max_len - len(s.relator)) // 2))
        sign = rng.choice((1, -1))
        base = s.relator if sign > 0 else invert(s.relator)
        i = rng.randrange(len(base))
        return t + rotate(base, i) + invert(t), relator_conjugate_fiber(s, i, sign, t)
    u = random_reduced(rng, s, rng.randint(1, max_len // 2))
    return u + invert(u), 0


def make_element(rng, s: Surface, kind: str, max_len: int = 12, max_fiber: int = 3) -> Element:
    """``kind``: ``nontrivial``, ``trivial``, ``reversing``, ``preserving``
    (preserving and provably not a square) or ``square`` (an even power of a
    reversing word; pass ``max_fiber=0`` to keep the fiber at zero)."""
    reg = s.regime
    fiber = rng.randint(-max_fiber, max_fiber)
    if reg == "sphere":
        return Element(s, (), fiber, True)
    if kind == "trivial":
        base, rel_fiber = _trivial_base(rng, s, max_len)
        return Element(s, base, fiber + rel_fiber, True, relator_fiber=rel_fiber)
    if kind == "square":
        while True:
            r = random_reduced(rng, s, rng.randint(1, min(3, max_len // 2)))
            if s.character(r) == -1:
                break
        power = rng.choice([p for p in (2, 4) if p * len(r) <= max_len])
        return Element(s, r * power, fiber, False, square_of_reversing=True)
    while True:
        base = random_reduced(rng, s, rng.randint(1, max_len))
        if not s.certainly_nontrivial(base):
            continue
        if kind == "reversing" and s.character(base) != -1:
            continue
        if kind == "preserving" and (s.character(base) != 1 or not not_a_square(s, base)):
            continue
        if kind == "nontrivial" and not s.orientable and s.character(base) == 1 and not not_a_square(s, base):
            continue
        return Element(s, base, fiber, False)


def element_kinds(s: Surface) -> tuple[str, ...]:
    """Construction kinds that reach every case label of the surface."""
    reg = s.regime
    if reg in ("sphere", "rp2", "torus", "klein"):
        return ("nontrivial", "trivial")
    if s.orientable:
        return ("nontrivial", "trivial")
    return ("reversing", "preserving", "square", "trivial")


def element_fields(e: Element) -> dict:
    case, kind = expected_case(e)
    out = {"text": e.text, "case": case, "kind": kind}
    if e.surface.regime in ("sphere", "rp2"):
        out["residue"] = residue(e)
    return out


def klein_h_power(rng) -> Element:
    """A pure even power of h with fiber zero (Thm 5 I a)."""
    l = rng.choice((-4, -2, 2, 4))
    return Element(KLEIN, (-2,) * l if l > 0 else (2,) * -l, 0, False)


# ---------------------------------------------------------------------------
# curves with a known lift


def _nudge(v: float) -> float:
    """Keep chart vertices off the grid lines, as the curve format asks."""
    frac = v - math.floor(v)
    if frac < 1e-6 or frac > 1 - 1e-6:
        return v + 3e-6
    return v


def plane_polygon(rng, n: int, turning: int) -> list[tuple[float, float]]:
    """n vertices with turning number ``turning``: a jittered circle wound
    |turning| times, or a figure-eight for zero."""
    phase = rng.random()
    pts = []
    for i in range(n):
        t = phase + 2 * math.pi * i / n
        if turning == 0:
            pts.append((math.sin(t), math.sin(2 * t) / 2))
        else:
            r = 1.0 + 0.03 * (rng.random() - 0.5)
            a = 2 * math.pi * turning * i / n + phase
            pts.append((r * math.cos(a), r * math.sin(a)))
    return pts


def chart_path(rng, n: int, start, end, loops: int) -> list[tuple[float, float]]:
    """A developed path from ``start`` to ``end`` with exactly n vertices: a
    jittered straight line with |loops| small full turns (left for
    positive) spliced in.  The first and last edges point along the line,
    so the only net turning is the loops'."""
    loop_pts = 16
    straight = n - loop_pts * abs(loops)
    (x0, y0), (x1, y1) = start, end
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    d = (dx / length, dy / length)
    nrm = (-d[1], d[0])
    step = length / (straight - 1)
    at = sorted(rng.sample(range(2, straight - 3), abs(loops)))
    side = 1 if loops > 0 else -1
    pts = []
    for i in range(straight):
        off = 0.0 if i in (0, 1, straight - 2, straight - 1) else 0.15 * step * (rng.random() - 0.5)
        px = x0 + d[0] * step * i + nrm[0] * off
        py = y0 + d[1] * step * i + nrm[1] * off
        pts.append((px, py))
        if i in at:
            r = 0.3 * step
            for j in range(1, loop_pts):
                a = 2 * math.pi * j / loop_pts
                pts.append((px + r * (math.sin(a) * d[0] + side * (1 - math.cos(a)) * nrm[0]),
                            py + r * (math.sin(a) * d[1] + side * (1 - math.cos(a)) * nrm[1])))
            pts.append((px + d[0] * 0.5 * step, py + d[1] * 0.5 * step))
    return [(_nudge(x), _nudge(y)) for x, y in pts[:-1]] + [pts[-1]]


def curve_text(model: str, pts) -> str:
    return f"model={model}\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts)


def make_curve(rng, model: str, n: int, surface: Surface | None = None) -> dict:
    """A curve file of n vertices and the lift it has by construction."""
    if model == "plane":
        turning = rng.choice((-3, -2, -1, 0, 1, 2, 3))
        s = surface
        q = {"model": model, "vertices": n, "text": curve_text(model, plane_polygon(rng, n, turning))}
        if s.regime in ("sphere", "rp2"):
            q["residue"] = residue(Element(s, (), turning, True))
        else:
            q["base_abelian"] = [0] * len(s.names)
            q["fiber"] = turning
        return q
    loops = rng.choice((-2, -1, 1, 2))
    x0, y0 = 0.1 + 0.8 * rng.random(), 0.1 + 0.8 * rng.random()
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0) and (model == "torus" or b % 2 == 0 or b > 0):
            break
    if model == "torus":
        end = (x0 + a, y0 + b)
        q = {"base_abelian": [a, b]}
    else:
        # deck image of the start: b horizontal glides, a vertical steps
        end = (x0 + b, y0 + a) if b % 2 == 0 else (x0 + b, a + 1.0 - y0)
        q = {"klein_gh": [a, b]}
    pts = chart_path(rng, n, (x0, y0), end, loops)
    q.update(model=model, vertices=n, fiber=loops, text=curve_text(model, pts))
    return q


# ---------------------------------------------------------------------------
# desk_mix

DESK_SURFACES = (SPHERE, TORUS, RP2, KLEIN, GENUS2, NONOR3, PUNCTURED_OR, PUNCTURED_NONOR)
# per surface and pass: classify, decompose, reghom pairs, group, pin
DESK_SHAPES = (("classify", 8), ("decompose", 3), ("reghom", 4), ("group", 1), ("pin", 1))
CURVE_SIZES = tuple(round(100 * 100 ** (i / 15)) for i in range(16))  # 100 .. 10_000
CURVE_MODELS = ("plane", "torus", "klein")


def _desk_word_queries(rng, s: Surface, shape: str, i: int) -> dict:
    kinds = element_kinds(s)
    q = {"shape": shape, "surface": str(s)}
    if shape == "classify":
        if s is KLEIN and i % 4 == 3:
            e = klein_h_power(rng)
        else:
            kind = kinds[i % len(kinds)]
            e = make_element(rng, s, kind, max_fiber=0 if kind == "square" and rng.random() < 0.5 else 3)
        q.update(element_fields(e))
    elif shape == "decompose":
        r = cyclically_reduced(rng, s, rng.randint(1, 3))
        while not s.certainly_nontrivial(r):
            r = cyclically_reduced(rng, s, rng.randint(1, 3))
        k = rng.randint(1, max(1, 12 // len(r)))
        fiber = rng.randint(-3, 3)
        q.update(text=spell(s, r * k, fiber), power=k)
    elif shape == "reghom":
        e = make_element(rng, s, kinds[i % len(kinds)], max_len=6)
        if i % 2 == 0:
            t = random_reduced(rng, s, rng.randint(0, 2)) if s.names else ()
            tf = rng.randint(-1, 1)
            t_text = spell(s, t, tf) if (t or tf) else ""
            other = f"{t_text} {e.text} {inverse_text(t_text)}".strip() if t_text else e.text
            q.update(left=e.text, right=other, expected=True)
        elif s.names:
            g = rng.randint(1, len(s.names))
            q.update(left=e.text, right=spell(s, e.base + (g,), e.text_fiber), expected=False)
        else:  # sphere: f^m against f^(m+1)
            q.update(left=e.text, right=spell(s, (), e.text_fiber + 1), expected=False)
    elif shape == "group":
        q.update(names=list(s.names), relators=1 if s.relator else 0)
    elif shape == "pin":
        n = rng.randint(2, 6)
        q.update(n=n, label=expected_pin(s, n))
    return q


def desk_mix(seed: int) -> list[dict]:
    rng = rng_for("desk_mix", seed)
    out = []
    for s in DESK_SURFACES:
        for shape, count in DESK_SHAPES:
            if shape == "decompose" and s.regime in ("sphere", "rp2"):
                continue
            for i in range(count):
                out.append(_desk_word_queries(rng, s, shape, i))
    # every size in every model, so the tail (the 11th-slowest query) sits on
    # a fixed (size, model) rather than on whichever model a draw put there
    plane_on = (SPHERE, TORUS, RP2, GENUS2, NONOR3, PUNCTURED_NONOR)
    for i, n in enumerate(CURVE_SIZES):
        for model in CURVE_MODELS:
            s = {"torus": TORUS, "klein": KLEIN}.get(model) or plane_on[i % len(plane_on)]
            q = make_curve(rng, model, n, s)
            q.update(shape="curve", surface=str(s))
            out.append(q)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# hyperbolic_long

HYPERBOLIC_SURFACES = (GENUS2, GENUS3, NONOR3, NONOR4)
# Random-word lengths per surface.  The current swap-orbit search costs
# anywhere from milliseconds to tens of seconds (or trips its cap) depending
# on the draw, which no fixed run length can make steady, on: conjugacy
# pairs past 64 letters (up to 0.7 s on genus 2 at 128); on nonorientable
# genus 3, products past about 40 letters and conjugacy pairs past about 24
# (0.1 to 0.35 s at 32, as slow as the blocks that set the tail); and powers
# r^50 of random words r of three or four letters (9 s for one on genus 2).
# Those stay below these limits (powers take two-letter roots, whose powers
# hold no relator piece), and the block families carry the exponential cost.
NF_LENGTHS = {NONOR3: (32, 48, 64)}
PRODUCT_LENGTHS = {NONOR3: (32, 32, 32)}
CONJUGACY_LENGTHS = {NONOR3: (24, 24, 24)}
DEFAULT_LENGTHS = (32, 64, 128)
DEFAULT_CONJUGACY_LENGTHS = (32, 48, 64)
DECOMPOSE_POWERS = (5, 10, 20, 35, 50)
# (surface, block, k range): k up to the largest value that finishes in
# about 2 s at the seed commit, plus the first k that trips the swap-orbit
# cap.  A rotation of each block adds two more costly k, so that the
# eleven slowest queries, which set latency_tail_ms, are all blocks rather
# than whichever random pairs happen to be slow.
BLOCK_FAMILIES = (
    (GENUS2, (1, 2, -1, -2, 1), tuple(range(2, 11))),
    (NONOR3, (1, 1, 2), tuple(range(2, 12)) + (13,)),
    (GENUS2, (2, -1, -2, 1, 1), (8, 9)),
    (NONOR3, (1, 2, 1), (9, 10)),
)
# The known defect: the first word of a block family that trips the cap.
# Its queries (here and on cli_cold) are marked ``cap_trip``; they count
# against answered_share but not in the result's ``failed``.
CAP_TRIP = (NONOR3, (1, 1, 2) * 13)


def hyperbolic_long(seed: int) -> list[dict]:
    rng = rng_for("hyperbolic_long", seed)
    out = []
    for s in HYPERBOLIC_SURFACES:
        ss = str(s)
        for n in NF_LENGTHS.get(s, DEFAULT_LENGTHS):
            for _ in range(4):
                w = random_reduced(rng, s, n)
                out.append({"shape": "normal_form", "surface": ss, "letters": list(w)})
        for n in PRODUCT_LENGTHS.get(s, DEFAULT_LENGTHS):
            u = random_reduced(rng, s, n)
            v = random_reduced(rng, s, n)
            out.append({"shape": "multiply", "surface": ss, "left": spell(s, u, rng.randint(-3, 3)),
                        "right": spell(s, v, rng.randint(-3, 3))})
        for n in CONJUGACY_LENGTHS.get(s, DEFAULT_CONJUGACY_LENGTHS):
            x = cyclically_reduced(rng, s, n)
            t = random_reduced(rng, s, rng.randint(1, 6))
            x_text = spell(s, x, rng.randint(-3, 3))
            t_text = spell(s, t, rng.randint(-2, 2))
            out.append({"shape": "st_conjugate", "surface": ss, "left": x_text,
                        "right": f"{t_text} {x_text} {inverse_text(t_text)}", "expected": True})
            g = rng.randint(1, len(s.names))
            out.append({"shape": "st_conjugate", "surface": ss, "left": x_text,
                        "right": spell(s, x + (g,), 0), "expected": False})
            out.append({"shape": "conjugating_element", "surface": ss, "left": spell(s, x),
                        "right": spell(s, t + x + invert(t)), "expected": True})
            out.append({"shape": "conjugating_element", "surface": ss, "left": spell(s, x),
                        "right": spell(s, (g,) + x), "expected": False})
        for k in DECOMPOSE_POWERS:
            r = cyclically_reduced(rng, s, 2)
            while not s.certainly_nontrivial(r):
                r = cyclically_reduced(rng, s, 2)
            out.append({"shape": "decompose_power", "surface": ss, "text": spell(s, r, rng.randint(-3, 3)), "power": k})
            out.append({"shape": "primitive_root", "surface": ss, "text": spell(s, r * k), "power": k})
    for s, block, ks in BLOCK_FAMILIES:
        for k in ks:
            text = spell(s, block * k)
            out.append({"shape": "block", "surface": str(s), "text": text, "inverse": inverse_text(text), "power": k,
                        "cap_trip": (s, block * k) == CAP_TRIP})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# verify_box

# (surface, inputs per case label); genus 2 and nonorientable genus 3 take 1.5 s
# and 0.5 s per verification at the seed commit, so they get one each: five
# would make one pass about 35 s, longer than a run
VERIFY_SURFACES = ((TORUS, 5), (KLEIN, 5), (PUNCTURED_NONOR, 5), (GENUS2, 1), (NONOR3, 1))


def _verify_elements(rng, s: Surface, per_label: int) -> list[Element]:
    """``per_label`` elements for every case label of the surface, at most
    two letters long, like most of the acceptance battery: the cost of a
    verification grows steeply with the length of the witnesses (12 s for
    one square of a three-letter root on nonorientable genus 3), so longer
    draws would make the cost of a list a matter of luck."""
    by_case: dict[str, list[Element]] = {}
    kinds = element_kinds(s)
    wanted = {
        "torus": 2, "klein": 3, "punctured": 5, "orientable_hyperbolic": 2, "nonorientable_hyperbolic": 5,
    }[s.regime]
    tries = 0
    while len(by_case) < wanted or any(len(v) < per_label for v in by_case.values()):
        tries += 1
        i = tries % (len(kinds) + 2)
        if s is KLEIN and i == len(kinds):
            e = klein_h_power(rng)
        else:
            kind = kinds[i % len(kinds)]
            e = make_element(rng, s, kind, max_len=2, max_fiber=0 if kind == "square" and rng.random() < 0.5 else 3)
        case = expected_case(e)
        if len(by_case.setdefault(case, [])) < per_label:
            by_case[case].append(e)
    return [e for v in by_case.values() for e in v]


def verify_box(seed: int) -> list[dict]:
    rng = rng_for("verify_box", seed)
    out = []
    for s, per_label in VERIFY_SURFACES:
        ss = str(s)
        for e in _verify_elements(rng, s, per_label):
            out.append({"shape": "verify", "surface": ss, **element_fields(e)})
        if s is not GENUS2:  # 1.4 s per genus-2 centralizer; verify covers it
            e = make_element(rng, s, element_kinds(s)[0], max_len=4)
            out.append({"shape": "centralizer", "surface": ss, "text": e.text,
                        "fiber_central": s.character(e.base) == 1})
        if s.relator:
            # relator conjugates t V t^-1, and products of two of them
            for copies in (1, 1, 1, 2, 2):
                base = sum((_trivial_base(rng, s, len(s.relator) + 4)[0] for _ in range(copies)), ())
                out.append({"shape": "bounded_trivial", "surface": ss, "letters": list(base), "expected": True})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli_cold


def cli_cold(seed: int) -> list[dict]:
    rng = rng_for("cli_cold", seed)
    out = []

    def add(argv, code, expect=(), files=None, **extra):
        out.append({"shape": "cli", "surface": argv[argv.index("--surface") + 1] if "--surface" in argv else "",
                    "argv": argv, "exit": code, "expect": list(expect), "files": files or {}, **extra})

    for s in (SPHERE, GENUS2, NONOR3, PUNCTURED_NONOR):
        for fmt in ("text", "structured"):
            expect = [f"base.generators={' '.join(s.names)}"] if fmt == "structured" else [f"surface {s}"]
            add(["group", "--surface", str(s), "--format", fmt], 0, expect)
    for s in (TORUS, KLEIN, GENUS2, NONOR3):
        for fmt in ("text", "structured"):
            e = make_element(rng, s, element_kinds(s)[rng.randrange(len(element_kinds(s)))])
            f = element_fields(e)
            expect = [f"case={f['case']}", f"kind={f['kind']}"] if fmt == "structured" else [f"case:           {f['case']}"]
            add(["classify", "--surface", str(s), "--format", fmt, "--word", e.text], 0, expect)
    for s, n in ((SPHERE, 2), (RP2, rng.randint(3, 6)), (GENUS2, rng.randint(2, 6)), (KLEIN, 2)):
        add(["pin", "--surface", str(s), "--format", "structured", "--n", str(n)], 0, [f"kind={expected_pin(s, n)}"])
    curves = {
        "plane.curve": make_curve(rng, "plane", 200, NONOR3),
        "torus.curve": make_curve(rng, "torus", 300, TORUS),
        "klein.curve": make_curve(rng, "klein", 300, KLEIN),
    }
    files = {name: c["text"] for name, c in curves.items()}
    plane = curves["plane.curve"]
    add(["lift", "--surface", str(NONOR3), "--format", "structured", "plane.curve"], 0,
        [f"word={spell(NONOR3, (), plane['fiber'])}"], files)
    add(["lift", "--surface", str(TORUS), "torus.curve"], 0, [], files, torus_lift=curves["torus.curve"])
    add(["lift", "--surface", str(KLEIN), "--format", "structured", "klein.curve"], 0, [], files,
        klein_lift=curves["klein.curve"])
    add(["classify", "--surface", str(NONOR3), "--format", "structured", "plane.curve"], 0,
        ["case=" + ("Thm 6 III a" if plane["fiber"] else "Thm 6 III b")], files)
    for s in (GENUS2, NONOR3, KLEIN):
        r = cyclically_reduced(rng, s, 3)
        while not s.certainly_nontrivial(r):
            r = cyclically_reduced(rng, s, 3)
        k = rng.randint(2, 4)
        add(["decompose", "--surface", str(s), "--format", "structured", "--word", spell(s, r * k, 1)], 0, [],
            power=k)
    for s in (TORUS, GENUS2, NONOR3):
        e = make_element(rng, s, element_kinds(s)[0], max_len=6)
        t = spell(s, random_reduced(rng, s, 2), 1)
        add(["reghom", "--surface", str(s), "--format", "structured", f"word:{e.text}",
             f"word:{t} {e.text} {inverse_text(t)}"], 0, ["equivalent=true"])
        add(["reghom", "--surface", str(s), f"word:{e.text}", f"word:{spell(s, e.base + (1,), e.text_fiber)}"], 1,
            ["not regularly homotopic"])
    add(["reghom", "--surface", str(KLEIN), "--format", "structured", "klein.curve", "klein.curve"], 0,
        ["equivalent=true"], files)
    for s in (TORUS, KLEIN, PUNCTURED_NONOR):
        e = make_element(rng, s, element_kinds(s)[0], max_len=4)
        add(["verify", "--surface", str(s), "--format", "structured", "--word", e.text], 0, ["verified=pass"])
    add(["classify", "--surface", "orientable:-1:0", "--word", "a1"], 2)
    add(["classify", "--surface", str(GENUS2), "--word", "a1 q7"], 2)
    add(["classify", "--surface", str(GENUS2), "--word", "a1^"], 2)
    add(["lift", "--surface", str(TORUS), "bad.curve"], 2, [], {"bad.curve": "model=torus\n0.5,0.5\n0.5,0.5\n0.9,0.5\n"})
    add(["lift", "--surface", str(TORUS), "missing.curve"], 2)
    # today this exits 1 with a SearchExhausted traceback
    cap = element_fields(Element(*CAP_TRIP, 0, False))
    add(["classify", "--surface", str(NONOR3), "--format", "structured", "--word", cap["text"]], 0,
        [f"case={cap['case']}", f"kind={cap['kind']}"], cap_trip=True)
    rng.shuffle(out)
    return out


WORKLOADS = {
    "desk_mix": desk_mix,
    "hyperbolic_long": hyperbolic_long,
    "verify_box": verify_box,
    "cli_cold": cli_cold,
}

# surfaces whose presentations setup builds, per workload
SETUP_SURFACES = {
    "desk_mix": DESK_SURFACES,
    "hyperbolic_long": HYPERBOLIC_SURFACES,
    "verify_box": tuple(s for s, _ in VERIFY_SURFACES),
    "cli_cold": (),
}
