"""Runners and answer checks, one pair per query shape.

A runner makes the query's calls into curvespace, each through
``ctx.tr.call(<module>.<function>, ...)`` so a traced run can put a span
around it, and returns what the calls returned.  Its checker compares that
with the answer the query list expects by construction and returns ``None``
or a description of the mismatch; only the runner is timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import traceback

from reference import (
    Surface,
    abelian_equal_power,
    free_reduce,
    klein_gh,
    klein_isometry,
    parse_text,
)

RUNNERS = {}
CHECKS = {}


def shape(name):
    def register(pair):
        RUNNERS[name], CHECKS[name] = pair()
        return pair

    return register


class Ctx:
    """The program under test, as the runners see it."""

    def __init__(self, cs, tracer, workdir: str, src: str):
        self.cs = cs
        self.tr = tracer
        self.workdir = workdir
        self.src = src
        self._specs: dict[str, object] = {}

    def spec(self, q):
        s = q["surface"]
        if s not in self._specs:
            self._specs[s] = self.cs.surfaces.SurfaceSpec.parse(s)
        return self._specs[s]


def surface_of(q) -> Surface:
    side, genus, punctures = q["surface"].split(":")
    return Surface(side == "orientable", int(genus), int(punctures))


def _parse(ctx, q, text):
    s = surface_of(q)
    return ctx.tr.call("stbundle.st_parse", ctx.cs.stbundle.st_parse, text, ctx.spec(q), regime=s.regime)


def _pres(ctx, q):
    return ctx.tr.call("surfaces.presentation", ctx.cs.surfaces.presentation, ctx.spec(q))


def _check_decomposition(q, ans):
    xi, dec = ans
    if dec.recompose() != xi:
        return "root^k * f^l does not recompose to the input"
    if dec.k % q["power"]:
        return f"root exponent {dec.k} is not a multiple of the construction power {q['power']}"
    return None


def is_undecided(verdict) -> bool:
    return verdict is not True and verdict is not False


def _check_verdict(q, verdict):
    if is_undecided(verdict):
        return "undecided"
    if verdict != q["expected"]:
        return f"answered {verdict}, expected {q['expected']}"
    return None


# ---------------------------------------------------------------------------
# desk_mix


@shape("classify")
def _classify():
    def run(ctx, q):
        xi = _parse(ctx, q, q["text"])
        rep = ctx.tr.call("classify.classify_pi1", ctx.cs.classify.classify_pi1, ctx.spec(q), xi,
                          regime=surface_of(q).regime)
        return xi, rep.case, rep.group.label()

    def check(q, ans):
        xi, case, kind = ans
        if (case, kind) != (q["case"], q["kind"]):
            return f"classified {case}/{kind}, expected {q['case']}/{q['kind']}"
        if "residue" in q and xi.residue != q["residue"]:
            return f"residue {xi.residue}, expected {q['residue']}"
        return None

    return run, check


@shape("decompose")
def _decompose():
    def run(ctx, q):
        xi = _parse(ctx, q, q["text"])
        return xi, ctx.tr.call("stbundle.decompose", ctx.cs.stbundle.decompose, xi, regime=surface_of(q).regime)

    return run, _check_decomposition


@shape("reghom")
def _reghom():
    def run(ctx, q):
        u, v = _parse(ctx, q, q["left"]), _parse(ctx, q, q["right"])
        return ctx.tr.call("classify.regular_homotopy_equivalent", ctx.cs.classify.regular_homotopy_equivalent,
                           ctx.spec(q), u, v, regime=surface_of(q).regime)

    return run, _check_verdict


@shape("group")
def _group():
    def run(ctx, q):
        spec = ctx.spec(q)
        base = _pres(ctx, q)
        st = ctx.tr.call("surfaces.st_presentation", ctx.cs.surfaces.st_presentation, spec)
        text = ctx.tr.call("surfaces.presentation_text", ctx.cs.surfaces.presentation_text, st)
        return base, st, text

    def check(q, ans):
        base, st, text = ans
        names = tuple(q["names"])
        finite = surface_of(q).regime in ("sphere", "rp2")
        if base.names() != names or len(base.relators) != q["relators"]:
            return f"base presentation {base.names()} with {len(base.relators)} relators"
        want_st = ("f",) if finite else names + ("f",)
        want_rel = 1 if finite else q["relators"] + len(names)
        if st.names() != want_st or len(st.relators) != want_rel:
            return f"tangent-bundle presentation {st.names()} with {len(st.relators)} relators"
        return None if text.strip() else "empty presentation text"

    return run, check


@shape("pin")
def _pin():
    def run(ctx, q):
        return ctx.tr.call("classify.classify_pin", ctx.cs.classify.classify_pin, ctx.spec(q), q["n"],
                           regime=surface_of(q).regime).label()

    def check(q, label):
        return None if label == q["label"] else f"pi_{q['n']} = {label}, expected {q['label']}"

    return run, check


@shape("curve")
def _curve():
    def run(ctx, q):
        attrs = {"model": q["model"], "vertices": q["vertices"]}
        curve = ctx.tr.call("flatcurves.load_curve", ctx.cs.flatcurves.load_curve, q["text"], **attrs)
        return ctx.tr.call("flatcurves.lift", ctx.cs.flatcurves.lift, curve, ctx.spec(q), **attrs)

    def check(q, el):
        return check_lift(surface_of(q), q, el.residue, () if el.base is None else el.base.letters, el.fiber)

    return run, check


def check_lift(s: Surface, q, residue, letters, fiber):
    if "residue" in q:
        return None if residue == q["residue"] else f"residue {residue}, expected {q['residue']}"
    if "klein_gh" in q:
        if klein_isometry(letters) != klein_gh(*q["klein_gh"]):
            return f"deck class of {letters} is not g^{q['klein_gh'][0]} h^{q['klein_gh'][1]}"
    elif list(s.abelian(letters)) != q["base_abelian"] or (s.regime != "torus" and letters):
        return f"base {letters}, expected exponent sums {q['base_abelian']}"
    return None if fiber == q["fiber"] else f"fiber {fiber}, expected {q['fiber']}"


# ---------------------------------------------------------------------------
# hyperbolic_long


@shape("normal_form")
def _normal_form():
    def run(ctx, q):
        raw = ctx.cs.words.Word(_pres(ctx, q), tuple(q["letters"]))
        return ctx.tr.call("words.normal_form", ctx.cs.words.normal_form, raw,
                           regime=surface_of(q).regime, letters=len(q["letters"]))

    def check(q, w):
        s, raw, out = surface_of(q), tuple(q["letters"]), w.letters
        if len(out) > len(raw) or free_reduce(out) != out:
            return "normal form is longer than the input or not freely reduced"
        if not s.abelian_equal(out, raw) or s.character(out) != s.character(raw):
            return "normal form changed the homology class or the orientation character"
        return None

    return run, check


@shape("multiply")
def _multiply():
    def run(ctx, q):
        u, v = _parse(ctx, q, q["left"]), _parse(ctx, q, q["right"])
        return ctx.tr.call("stbundle.st_multiply", ctx.cs.stbundle.st_multiply, u, v, regime=surface_of(q).regime,
                           letters=len(u.base.letters) + len(v.base.letters))

    def check(q, z):
        s = surface_of(q)
        lb, lf = parse_text(s, q["left"])
        rb, rf = parse_text(s, q["right"])
        if not s.abelian_equal(z.base.letters, lb + rb) or s.character(z.base.letters) != s.character(lb + rb):
            return "product changed the homology class or the orientation character"
        # relator moves shift the fiber by multiples of chi when every
        # character is +1
        if s.orientable and (z.fiber - lf * s.character(rb) - rf) % abs(s.chi):
            return f"product fiber {z.fiber} is not {lf + rf} mod {abs(s.chi)}"
        return None

    return run, check


@shape("st_conjugate")
def _st_conjugate():
    def run(ctx, q):
        u, v = _parse(ctx, q, q["left"]), _parse(ctx, q, q["right"])
        return ctx.tr.call("stbundle.st_is_conjugate", ctx.cs.stbundle.st_is_conjugate, u, v,
                           note=is_undecided, regime=surface_of(q).regime, letters=len(u.base.letters))

    return run, _check_verdict


@shape("conjugating_element")
def _conjugating_element():
    def run(ctx, q):
        pres, reg = _pres(ctx, q), surface_of(q).regime
        u, v = (ctx.tr.call("words.parse_word", ctx.cs.words.parse_word, q[k], pres, regime=reg,
                            letters=len(q[k].split())) for k in ("left", "right"))
        return ctx.tr.call("words.conjugating_element", ctx.cs.words.conjugating_element, u, v, regime=reg,
                           letters=len(u.letters))

    def check(q, t):
        return None if (t is not None) == q["expected"] else f"conjugator {t}, expected conjugate={q['expected']}"

    return run, check


@shape("decompose_power")
def _decompose_power():
    def run(ctx, q):
        x = _parse(ctx, q, q["text"])
        reg = surface_of(q).regime
        p = ctx.tr.call("stbundle.st_power", ctx.cs.stbundle.st_power, x, q["power"], regime=reg,
                        exponent=q["power"])
        return p, ctx.tr.call("stbundle.decompose", ctx.cs.stbundle.decompose, p, regime=reg)

    return run, _check_decomposition


@shape("primitive_root")
def _primitive_root():
    def run(ctx, q):
        reg = surface_of(q).regime
        x = ctx.tr.call("words.parse_word", ctx.cs.words.parse_word, q["text"], _pres(ctx, q), regime=reg,
                        letters=len(q["text"].split()))
        return ctx.tr.call("words.primitive_root", ctx.cs.words.primitive_root, x, regime=reg)

    def check(q, ans):
        root, k = ans
        s = surface_of(q)
        if k % q["power"]:
            return f"root exponent {k} is not a multiple of {q['power']}"
        if not abelian_equal_power(s, root.letters, k, parse_text(s, q["text"])[0]):
            return "root^k has another homology class than the input"
        return None

    return run, check


@shape("block")
def _block():
    def run(ctx, q):
        x, y = _parse(ctx, q, q["text"]), _parse(ctx, q, q["inverse"])
        return ctx.tr.call("stbundle.st_multiply", ctx.cs.stbundle.st_multiply, x, y, regime=surface_of(q).regime,
                           letters=len(x.base.letters) + len(y.base.letters))

    def check(q, z):
        if z.base.letters or z.fiber:
            return f"block^{q['power']} * block^-{q['power']} is not trivial"
        return None

    return run, check


# ---------------------------------------------------------------------------
# verify_box


@shape("verify")
def _verify():
    def run(ctx, q):
        xi = _parse(ctx, q, q["text"])
        return ctx.tr.call("oracle.verify_classification", ctx.cs.oracle.verify_classification, ctx.spec(q), xi,
                           surface=q["surface"])

    def check(q, outcome):
        return None if outcome.passed else f"verification failed: {outcome.detail}"

    return run, check


@shape("centralizer")
def _centralizer():
    def run(ctx, q):
        xi = _parse(ctx, q, q["text"])
        return ctx.tr.call("oracle.bounded_centralizer", ctx.cs.oracle.bounded_centralizer, ctx.spec(q), xi,
                           ctx.cs.oracle.VERIFY_BOUND, note=len, surface=q["surface"])

    def check(q, cent):
        # f is central over orientation-preserving bases and inverted by
        # reversing ones; the default box holds every |fiber| <= 3
        fibers = {el.fiber for el in cent if el.base is not None and not el.base.letters}
        want = set(range(-3, 4)) if q["fiber_central"] else {0}
        return None if fibers == want else f"pure fiber powers in the centralizer: {sorted(fibers)}"

    return run, check


@shape("bounded_trivial")
def _bounded_trivial():
    def run(ctx, q):
        u = ctx.cs.words.Word(_pres(ctx, q), tuple(q["letters"]))
        return ctx.tr.call("oracle.bounded_is_trivial", ctx.cs.oracle.bounded_is_trivial, u,
                           surface=q["surface"], letters=len(q["letters"]))

    return run, _check_verdict


# ---------------------------------------------------------------------------
# cli_cold


def child_env(src: str) -> dict:
    """Children import curvespace from ``src`` with bytecode caching on, as
    an installed CLI runs, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@shape("cli")
def _cli():
    def run(ctx, q):
        proc = subprocess.run([sys.executable, "-m", "curvespace.cli", *q["argv"]], cwd=ctx.workdir,
                              env=child_env(ctx.src), capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def check(q, ans):
        code, out, err = ans
        if "Traceback" in err:
            return "traceback on stderr"
        if q.get("cap_trip") and code == 3 and "status=undecided" in out.splitlines():
            # the README contract for a search that trips its cap: kept,
            # but the word is still not decided
            return "undecided"
        if code != q["exit"]:
            return f"exit code {code}, expected {q['exit']}"
        lines = out.splitlines()
        fields = dict(line.split("=", 1) for line in lines if "=" in line)
        for want in q["expect"]:
            # whole values only: "case=Thm 6 I" must not match "Thm 6 II a"
            key, eq, value = want.partition("=")
            if not (fields.get(key) == value if eq else any(line == want or line.endswith(": " + want)
                                                           for line in lines)):
                return f"missing {want!r} in the output"
        if "torus_lift" in q:
            base, fiber = parse_text(Surface(True, 1), out.strip())
            return check_lift(Surface(True, 1), q["torus_lift"], None, base, fiber)
        if "klein_lift" in q:
            base, fiber = parse_text(Surface(False, 2), fields.get("word", ""))
            return check_lift(Surface(False, 2), q["klein_lift"], None, base, fiber)
        if "power" in q and int(fields.get("k", "1")) % q["power"]:
            return f"root exponent {fields.get('k')} is not a multiple of {q['power']}"
        return None

    return run, check


def cli_in_process(ctx, q):
    """``cli.main(argv)`` in this process, for the traced run's per-call
    figures; an escaping exception is reported the way the interpreter
    would (exit 1, traceback on stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ctx.tr.call("cli.main", ctx.cs.cli.main, q["argv"], subcommand=q["argv"][0])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = 1
                err.write(traceback.format_exc())
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------


FAILURE_KINDS = ("wrong", "exception", "undecided", "exit_code")


def failure_kind(q, message: str | None, exc: BaseException | None) -> str | None:
    """None for a correct answer, else one of ``FAILURE_KINDS``."""
    if exc is not None:
        return "undecided" if type(exc).__name__ == "SearchExhausted" else "exception"
    if message is None:
        return None
    if message == "undecided":
        return "undecided"
    if q["shape"] == "cli" and (message.startswith("exit code") or message.startswith("traceback")):
        return "exit_code"
    return "wrong"
