"""Surface specs through ``curvespace group``: well-formed, malformed and
over the 64-generator cap.  Each exits 0, or 2 with an error line, in
bounded time; a spec over the cap exits 2 before any presentation is
built."""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from curvespace import cli  # noqa: E402

SIDES = ("orientable", "nonorientable")
# the largest surfaces under the cap, and the smallest and the far ones over it
AT_CAP = ("orientable:32:0", "nonorientable:64:0", "orientable:0:65", "orientable:1:63", "nonorientable:1:64")
OVER_CAP = (
    "orientable:33:0", "nonorientable:65:0", "orientable:0:66", "orientable:1:64", "nonorientable:2:64",
    "orientable:99999999999999999999:0", "nonorientable:12345678901234567890:0",
    "orientable:0:99999999999999999999",
)
MALFORMED = (
    "", " ", "orientable", "orientable:1", "orientable:1:0:0", "orientable:-1:0", "orientable:1:-1",
    "Orientable:1:0", "orientable :1:0", "orientable:+1:0", "orientable:1_0:0", "orientable:1e3:0",
    "orientable:0x10:0", "orientable:١:0", "orientable:1.0:0", "nonorientable:0:0",
    "nonorientable:0:3", "orientable;1;0", "orientable:1:0\x00", "-orientable:1:0", "--help",
)

number = st.one_of(st.integers(0, 70), st.sampled_from(("00", "007", "99999999999999999999", "-1", "", " 1")))
spec = st.one_of(
    st.builds("{}:{}:{}".format, st.sampled_from(SIDES), number, number),
    st.sampled_from(AT_CAP + OVER_CAP + MALFORMED),
    st.builds(lambda pad, s, end: pad + s + end, st.sampled_from(("", " ", "\t")), st.sampled_from(AT_CAP),
              st.sampled_from(("", " ", "\n"))),
    st.text(alphabet="orientabl:0123456789-+ ١", max_size=24),
    st.text(max_size=16),
)


def _group(capsys, surface):
    start = time.perf_counter()
    # the "=" form keeps a spec that starts with "-" from reading as an option
    code = cli.main(["group", f"--surface={surface}"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 0:
        assert out.startswith("surface ") and not err
    else:
        assert code == 2 and not out
        assert any(line.startswith("error: ") for line in err.splitlines()), err
    return code, err, elapsed


# the captured streams serve every example; each example reads them empty
@settings(derandomize=True, max_examples=200, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec)
def test_cli_group_exits_0_or_2_on_any_surface_spec(capsys, surface):
    _, _, elapsed = _group(capsys, surface)
    assert elapsed < 10, (surface, elapsed)


def test_cli_group_rejects_specs_over_the_generator_cap_at_once(capsys):
    for surface in AT_CAP:
        assert _group(capsys, surface)[0] == 0, surface
    for surface in OVER_CAP:
        code, err, elapsed = _group(capsys, surface)
        assert code == 2 and "at most 64 are supported" in err, surface
        assert elapsed < 1, (surface, elapsed)
