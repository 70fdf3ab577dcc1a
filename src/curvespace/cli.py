"""Command-line front end.

Subcommands: group, classify, pin, lift, decompose, reghom, verify.
Exit status: 0 success, 1 negative verdict (reghom false / verify fail),
2 invalid input.  Every query is decided: the closed hyperbolic engine has
no search cap, so no subcommand reports an undecided answer.

``main`` parses the surface once and hands it to the subcommand, whose
handler returns its exit code with its text and its structured lines;
``main`` prints the ones ``--format`` names.  ``classify``, ``decompose``
and ``verify`` read their element from ``--word`` or a curve file, through
the same reader as ``lift`` and the two ``reghom`` inputs.

The module itself imports only ``surfaces``, which ``main`` needs for every
command; each handler imports the engine modules it calls when it runs.  So
a subcommand imports only the modules it runs: ``group`` none besides
``surfaces``, ``decompose`` ``words`` and ``stbundle``, ``verify`` the
``oracle`` as well, and a curve file ``flatcurves``.

A process runs the CLI through ``run``, the console script's entry point
and ``python -m curvespace.cli``: once ``main`` has returned or raised, it
freezes the heap, so the collections of the interpreter's shutdown skip
every object made so far.  ``main(argv)`` called in process freezes
nothing and leaves the caller's collector as it was.

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
import gc
import sys

from .surfaces import SurfaceSpec

_INPUT_ERRORS = (ValueError, OSError)


def _element(word: str | None, path: str | None, surface: SurfaceSpec):
    """The ``STWord`` a word or a curve file spells.  ``None`` is an absent
    input, while an empty path is read (and fails) like any other; the
    subcommands whose curve file is optional pass an empty one as ``None``."""
    from .stbundle import st_parse
    from .words import WordParseError

    if word is not None and path is not None:
        raise WordParseError("provide --word or a curve file, not both")
    if word is not None:
        return st_parse(word, surface)
    if path is None:
        raise WordParseError("provide --word or a curve file")
    from .flatcurves import lift, read_curve_file

    return lift(read_curve_file(path), surface)


def _cmd_group(args, spec):
    from .surfaces import presentation, presentation_text, st_presentation

    base = presentation(spec)
    st = st_presentation(spec)
    structured = []
    for tag, pres in (("base", base), ("st", st)):
        structured.append(f"{tag}.generators=" + " ".join(pres.names()))
        for g in pres.generators:
            structured.append(f"{tag}.character.{g.name}={g.character:+d}")
        for i, rel in enumerate(pres.relators, start=1):
            structured.append(f"{tag}.relator.{i}={pres.spell(rel)}")
    text = [f"surface {spec}", "fundamental group:", presentation_text(base),
            "tangent-bundle fundamental group:", presentation_text(st)]
    return 0, text, structured


def _cmd_classify(args, spec):
    from .classify import classify_pi1

    report = classify_pi1(spec, _element(args.word, args.curve or None, spec))
    return 0, [report.text()], [report.structured()]


def _cmd_pin(args, spec):
    from .classify import Kind, classify_pin

    group = classify_pin(spec, args.n)
    case = "Thm 8 II" if group.kind is Kind.TRIVIAL_GROUP else "Thm 8 I"
    text = [f"pi_{args.n} of the curve space on {spec}: {group.describe()}  [{case}]"]
    return 0, text, [f"n={args.n}", f"case={case}", f"kind={group.label()}", f"detail={group.describe()}"]


def _cmd_lift(args, spec):
    from .stbundle import st_text

    word = st_text(_element(None, args.curve, spec))
    return 0, [word], [f"word={word}"]


def _cmd_decompose(args, spec):
    from .stbundle import decompose, st_text

    xi = _element(args.word, args.curve or None, spec)
    dec = decompose(xi)
    root = st_text(dec.root_lift)
    text = [f"{st_text(xi)} = ({root})^{dec.k} * f^{dec.l}"]
    return 0, text, [f"root={root}", f"k={dec.k}", f"l={dec.l}"]


def _cmd_reghom(args, spec):
    from .classify import regular_homotopy_equivalent
    from .stbundle import st_text

    u, v = (_element(token[len("word:") :], None, spec) if token.startswith("word:") else _element(None, token, spec)
            for token in args.inputs)
    verdict = regular_homotopy_equivalent(spec, u, v)
    text = [f"{st_text(u)} vs {st_text(v)}: {'regularly homotopic' if verdict else 'not regularly homotopic'}"]
    structured = [f"lift.1={st_text(u)}", f"lift.2={st_text(v)}", f"equivalent={'true' if verdict else 'false'}"]
    return 0 if verdict else 1, text, structured


def _cmd_verify(args, spec):
    from .oracle import VERIFY_BOUND, SearchBound, verify_classification
    from .stbundle import st_text

    xi = _element(args.word, args.curve or None, spec)
    # The bounds have no parser default, so that building the parser does
    # not import the oracle; a bound not given is VERIFY_BOUND's.
    bound = SearchBound(VERIFY_BOUND.max_word_length if args.bound_length is None else args.bound_length,
                        VERIFY_BOUND.max_fiber if args.bound_fiber is None else args.bound_fiber)
    outcome = verify_classification(spec, xi, bound)
    structured = [f"verified={'pass' if outcome.passed else 'fail'}", f"detail={outcome.detail}"]
    if outcome.counterexample is not None:
        structured.append(f"counterexample={st_text(outcome.counterexample)}")
    text = [("PASS: " if outcome.passed else "FAIL: ") + outcome.detail]
    return 0 if outcome.passed else 1, text, structured


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvespace",
        description="Homotopy groups of the space of immersed closed curves on a surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, element=False, bounds=False):
        p.add_argument("--surface", required=True, help="orientable:g:p or nonorientable:k:p")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        if element:
            p.add_argument("--word", help="element of the tangent-bundle group")
            p.add_argument("curve", nargs="?", help="curve file (alternative to --word)")
        if bounds:
            p.add_argument("--bound-length", type=int)
            p.add_argument("--bound-fiber", type=int)

    p = sub.add_parser("group", help="print the surface and tangent-bundle presentations")
    common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("classify", help="fundamental group of the curve space at an element")
    common(p, element=True)
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
    common(p, element=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reghom", help="decide regular-homotopy equivalence of two inputs")
    common(p)
    p.add_argument("inputs", nargs=2, help="curve file or word:<text>")
    p.set_defaults(func=_cmd_reghom)

    p = sub.add_parser("verify", help="cross-check a classification against the oracle")
    common(p, element=True, bounds=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # before Python 3.13, argparse reads "--word=--" as an empty list
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        code, text, structured = args.func(args, SurfaceSpec.parse(args.surface))
        print("\n".join(structured if args.format == "structured" else text))
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """``main`` for a process that ends with the command."""
    # The freeze lives here and not in main: tests, traced benchmark runs
    # and library callers keep calling main in a process that goes on and
    # needs its collector.  Here the process is about to exit, and without
    # the freeze its shutdown collections walk every module-level object
    # only to drop it.  The finally covers argparse's SystemExit (usage
    # errors, --help) and uncaught exceptions too.
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
