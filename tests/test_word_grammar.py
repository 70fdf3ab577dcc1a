"""Words through ``curvespace classify``: well-formed, malformed and over the
10^6-letter cap, on three cheap surfaces.  Each exits 0, or 2 with an error
line, with no traceback and in bounded time; a word over the cap is
rejected before it is classified."""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from curvespace import SurfaceSpec, cli, st_parse  # noqa: E402
from curvespace.words import WordParseError  # noqa: E402

# each surface with its generators and the fiber
SURFACES = {"orientable:0:0": ("f",), "orientable:1:0": ("a1", "b1", "f"), "nonorientable:2:0": ("c1", "c2", "f")}
# names that one of the surfaces has and another lacks, and names none has
FOREIGN = ("a1", "b1", "c1", "c2", "a2", "z1", "x", "ab1", "a01")
# tokens that are no names: signs, bare powers, non-ASCII digits, digit-group
# underscores and other stray characters
ODD = ("1", "-", "^", "^2", "a1^", "a1^^2", "-a1", "a1-", "a1^+2", "a1^-", "a\u0661", "a1^\u0663",
       "\u0661", "a1^1_0", "a_1", "_", "a1^2.5", "a1,b1", "(a1)", "A1^-0", "f^0", "")
# words whose powers add up to more than 10^6 letters, in one token or across
# tokens; each is rejected before its letters are classified
OVER_CAP = ("a1^1000001", "F^1000001", "c1^-1000001", "a1^600000 A1^500000", "f^999999 f f",
            "c2^500001 c1^500000", "a1 a1 a1 b1^999998", "a1^" + "9" * 5000)
SPACES = (" ", "  ", "\t", " \n ")

# exponents stay at most 10^4: a single power just under the cap takes up to
# seconds to classify
power = st.integers(-10_000, 10_000).map(str)


def _tokens(names):
    """Lists of tokens: names, either case, with or without a power."""
    name = names.flatmap(lambda n: st.sampled_from((n, n.upper())))
    return st.lists(st.one_of(name, st.builds("{}^{}".format, name, power)), max_size=8)


@st.composite
def query(draw):
    """A surface and a word: tokens of the surface's own names only, or
    mixed with foreign names and stray tokens, or an over-cap word, or
    any text over the characters of the grammar."""
    surface = draw(st.sampled_from(sorted(SURFACES)))
    own = st.sampled_from(SURFACES[surface])
    mixed = _tokens(st.one_of(own, st.sampled_from(FOREIGN))) | st.lists(
        st.one_of(own, st.sampled_from(ODD)), max_size=8)
    word = draw(st.one_of(
        st.builds(lambda tokens, sep: sep.join(tokens), _tokens(own) | mixed, st.sampled_from(SPACES)),
        st.builds(lambda tokens, cap: " ".join(tokens + [cap]), _tokens(own), st.sampled_from(OVER_CAP)),
        st.text(alphabet="abcfzABCFZ12^- \u0663_", max_size=16),
    ))
    return surface, word


def _classify(capsys, surface, text):
    start = time.perf_counter()
    # the "=" form keeps a word that starts with "-" from reading as an option
    code = cli.main(["classify", "--surface", surface, f"--word={text}"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 0:
        assert out.startswith("surface:") and not err
    else:
        assert code == 2 and not out
        assert any(line.startswith("error: ") for line in err.splitlines()), err
    return code, err, elapsed


# the captured streams serve every example; each example reads them empty
@settings(derandomize=True, max_examples=200, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query())
def test_cli_classify_exits_0_or_2_on_any_word(capsys, surface_and_word):
    surface, text = surface_and_word
    _, _, elapsed = _classify(capsys, surface, text)
    assert elapsed < 10, (surface, text, elapsed)


def test_cli_classify_rejects_words_over_the_letter_cap(capsys):
    """Every over-cap word is rejected with the cap's message, in one token
    or summed across tokens, on each surface that has its generators."""
    for text in OVER_CAP:
        names = {token.partition("^")[0].lower() for token in text.split()}
        surfaces = [surface for surface, own in SURFACES.items() if names <= set(own)]
        assert surfaces, text
        for surface in surfaces:
            code, err, elapsed = _classify(capsys, surface, text)
            assert code == 2 and "expands to more than 1000000 letters" in err, (surface, text, err)
            assert elapsed < 2, (surface, text, elapsed)


def test_powers_past_int_digits_limit_are_over_the_letter_cap():
    """A power of 5,000 digits, past int()'s default limit, is over the
    letter cap for a caller of the library too; leading zeros do not count,
    so 5,000 zeros and a 2 read as 2."""
    torus = SurfaceSpec(True, 1, 0)
    for text in ("a1^" + "9" * 5000, "A1^-" + "9" * 5000):
        with pytest.raises(WordParseError) as info:
            st_parse(text, torus)
        assert str(info.value) == "the word expands to more than 1000000 letters"
    assert st_parse("a1^" + "0" * 5000 + "2", torus) == st_parse("a1^2", torus)
    assert st_parse("A1^-" + "0" * 5000 + "2", torus) == st_parse("a1^2", torus)
