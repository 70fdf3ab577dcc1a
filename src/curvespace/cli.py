"""Command-line front end.

Subcommands: group, classify, pin, lift, decompose, reghom, verify.
Exit status: 0 success, 1 negative verdict (reghom false / verify fail),
2 invalid input.  Every query is decided: the closed hyperbolic engine has
no search cap, so no subcommand reports an undecided answer.

Grammars (frozen):

* surface: ``<orientable|nonorientable>:<genus>:<punctures>``, at most 64
  generators
* word: lowercase generator names (``a1 b1 c2 z1`` and the fiber letter
  ``f``), uppercase for inverses, ``^`` for powers, tokens separated by
  spaces, ``1`` for the empty word
* curve file: ``model=plane|torus|klein`` then ``x,y`` lines, ``#`` comments
* reghom inputs: a curve file path, or an inline word prefixed ``word:``
"""

from __future__ import annotations

import argparse
import sys

from .surfaces import SurfaceSpec, presentation, presentation_text, st_presentation
from .words import WordParseError
from .stbundle import STWord, st_parse, st_text, decompose
from .flatcurves import lift, read_curve_file
from .classify import classify_pi1, classify_pin, regular_homotopy_equivalent
from .oracle import SearchBound, VERIFY_BOUND, verify_classification

_INPUT_ERRORS = (ValueError, OSError)


def _element(args, surface: SurfaceSpec) -> STWord:
    if args.word is not None and args.curve:
        raise WordParseError("provide --word or a curve file, not both")
    if args.word is not None:
        return st_parse(args.word, surface)
    if args.curve:
        return lift(read_curve_file(args.curve), surface)
    raise WordParseError("provide --word or a curve file")


def _reghom_input(token: str, surface: SurfaceSpec) -> STWord:
    if token.startswith("word:"):
        return st_parse(token[len("word:") :], surface)
    return lift(read_curve_file(token), surface)


def _emit(lines) -> None:
    print("\n".join(lines) if not isinstance(lines, str) else lines)


def _cmd_group(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    base = presentation(spec)
    st = st_presentation(spec)
    if args.format == "structured":
        lines = []
        for tag, pres in (("base", base), ("st", st)):
            lines.append(f"{tag}.generators=" + " ".join(pres.names()))
            for g in pres.generators:
                lines.append(f"{tag}.character.{g.name}={'+1' if g.character > 0 else '-1'}")
            for i, rel in enumerate(pres.relators, start=1):
                lines.append(f"{tag}.relator.{i}={pres.spell(rel)}")
        _emit(lines)
    else:
        _emit(
            [
                f"surface {spec}",
                "fundamental group:",
                presentation_text(base),
                "tangent-bundle fundamental group:",
                presentation_text(st),
            ]
        )
    return 0


def _cmd_classify(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    xi = _element(args, spec)
    report = classify_pi1(spec, xi)
    _emit(report.structured() if args.format == "structured" else report.text())
    return 0


def _cmd_pin(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    group = classify_pin(spec, args.n)
    case = "Thm 8 I" if group.kind.name in ("Z", "SYMBOLIC_SPHERE_SUM") else "Thm 8 II"
    if args.format == "structured":
        _emit([f"n={args.n}", f"case={case}", f"kind={group.label()}", f"detail={group.describe()}"])
    else:
        _emit(f"pi_{args.n} of the curve space on {spec}: {group.describe()}  [{case}]")
    return 0


def _cmd_lift(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    curve = read_curve_file(args.curve)
    el = lift(curve, spec)
    _emit(f"word={st_text(el)}" if args.format == "structured" else st_text(el))
    return 0


def _cmd_decompose(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    xi = st_parse(args.word, spec)
    dec = decompose(xi)
    if args.format == "structured":
        _emit([f"root={st_text(dec.root_lift)}", f"k={dec.k}", f"l={dec.l}"])
    else:
        _emit(f"{st_text(xi)} = ({st_text(dec.root_lift)})^{dec.k} * f^{dec.l}")
    return 0


def _cmd_reghom(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    u = _reghom_input(args.inputs[0], spec)
    v = _reghom_input(args.inputs[1], spec)
    verdict = regular_homotopy_equivalent(spec, u, v)
    if args.format == "structured":
        _emit([f"lift.1={st_text(u)}", f"lift.2={st_text(v)}", f"equivalent={'true' if verdict else 'false'}"])
    else:
        msg = "regularly homotopic" if verdict else "not regularly homotopic"
        _emit(f"{st_text(u)} vs {st_text(v)}: {msg}")
    return 0 if verdict else 1


def _cmd_verify(args) -> int:
    spec = SurfaceSpec.parse(args.surface)
    xi = _element(args, spec)
    bound = SearchBound(args.bound_length, args.bound_fiber, VERIFY_BOUND.max_depth)
    outcome = verify_classification(spec, xi, bound)
    if args.format == "structured":
        lines = [f"verified={'pass' if outcome.passed else 'fail'}", f"detail={outcome.detail}"]
        if outcome.counterexample is not None:
            lines.append(f"counterexample={st_text(outcome.counterexample)}")
        _emit(lines)
    else:
        _emit(("PASS: " if outcome.passed else "FAIL: ") + outcome.detail)
    return 0 if outcome.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvespace",
        description="Homotopy groups of the space of immersed closed curves on a surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, word=False, curve=False, bounds=False):
        p.add_argument("--surface", required=True, help="orientable:g:p or nonorientable:k:p")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        if word:
            p.add_argument("--word", help="element of the tangent-bundle group")
        if curve:
            p.add_argument("curve", nargs="?", help="curve file (alternative to --word)")
        if bounds:
            p.add_argument("--bound-length", type=int, default=VERIFY_BOUND.max_word_length)
            p.add_argument("--bound-fiber", type=int, default=VERIFY_BOUND.max_fiber)

    p = sub.add_parser("group", help="print the surface and tangent-bundle presentations")
    common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("classify", help="fundamental group of the curve space at an element")
    common(p, word=True, curve=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pin", help="higher homotopy groups of the curve space")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_pin)

    p = sub.add_parser("lift", help="tangent lift of a curve file")
    common(p)
    p.add_argument("curve")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("decompose", help="root-and-fiber decomposition of an element")
    common(p, word=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reghom", help="decide regular-homotopy equivalence of two inputs")
    common(p)
    p.add_argument("inputs", nargs=2, help="curve file or word:<text>")
    p.set_defaults(func=_cmd_reghom)

    p = sub.add_parser("verify", help="cross-check a classification against the oracle")
    common(p, word=True, curve=True, bounds=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
