"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import queries  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Span, Tracer, self_times  # noqa: E402

cs = run.import_program(os.path.join(ROOT, "src"))


def dump(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed), "--dump-queries"]
    return subprocess.run(cmd, capture_output=True, check=True, timeout=120).stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_query_list(workload):
    first = dump(workload, 7)
    assert first == dump(workload, 7)  # separate processes: no hash-seed leaks
    assert first != dump(workload, 8)


def answer(q, tmp_path):
    ctx = queries.Ctx(cs, NullTracer(), str(tmp_path), os.path.join(ROOT, "src"))
    for name, text in q.get("files", {}).items():
        (tmp_path / name).write_text(text)
    return queries.RUNNERS[q["shape"]](ctx, q)


def first(qlist, shape, **match):
    return next(q for q in qlist if q["shape"] == shape and all(q.get(k) == v for k, v in match.items()))


def test_checker_rejects_corrupted_answers(tmp_path):
    desk = workloads.desk_mix(3)
    hyper = workloads.hyperbolic_long(3)
    verify = workloads.verify_box(3)
    cli = workloads.cli_cold(3)
    check = queries.CHECKS

    q = first(desk, "classify")
    xi, case, kind = answer(q, tmp_path)
    assert check["classify"](q, (xi, case, kind)) is None
    other = "Thm 1" if case != "Thm 1" else "Thm 4"
    assert check["classify"](q, (xi, other, kind)) is not None

    q = first(desk, "reghom")
    verdict = answer(q, tmp_path)
    assert check["reghom"](q, verdict) is None
    assert check["reghom"](q, not verdict) is not None
    assert queries.failure_kind(q, check["reghom"](q, "undecided"), None) == "undecided"

    q = first(desk, "curve", model="torus")
    el = answer(q, tmp_path)
    assert check["curve"](q, el) is None
    shifted = cs.stbundle.st_word(el.surface, el.base.letters, el.fiber + 1)
    assert check["curve"](q, shifted) is not None

    q = first(hyper, "normal_form", surface="orientable:2:0")
    w = answer(q, tmp_path)
    assert check["normal_form"](q, w) is None
    assert check["normal_form"](q, cs.words.Word(w.ambient, w.letters[:-1])) is not None

    q = first(hyper, "block", power=3)
    z = answer(q, tmp_path)
    assert check["block"](q, z) is None
    assert check["block"](q, cs.stbundle.st_word(z.surface, (), 1)) is not None

    q = first(verify, "bounded_trivial")
    assert check["bounded_trivial"](q, answer(q, tmp_path)) is None
    assert check["bounded_trivial"](q, False) is not None

    q = first(cli, "cli", exit=1)
    code, out, err = answer(q, tmp_path)
    assert check["cli"](q, (code, out, err)) is None
    bad = check["cli"](q, (0, out, err))
    assert bad is not None and queries.failure_kind(q, bad, None) == "exit_code"
    assert check["cli"](q, (code, out, err + "Traceback (most recent call last):\n")) is not None


def test_cap_trip_failure_kinds(tmp_path):
    q = first(workloads.cli_cold(1), "cli", cap_trip=True)
    check = queries.CHECKS["cli"]

    def kind(code, out, err=""):
        return queries.failure_kind(q, check(q, (code, out, err)), None)

    # today: exit 1 with a traceback; a fixed search answers (None)
    assert kind(*answer(q, tmp_path)) in (None, "exit_code", "undecided")
    traceback = "Traceback (most recent call last):\ncurvespace.words.SearchExhausted: cap\n"
    assert kind(1, "", traceback) == "exit_code"
    assert kind(3, "status=undecided\n") == "undecided"
    assert kind(3, "") == "exit_code"
    decided = "\n".join(q["expect"]) + "\n"
    assert kind(0, decided) is None
    assert kind(0, decided.replace("Thm 6 I", "Thm 6 II a")) == "wrong"  # whole values, not prefixes


def test_traced_self_times_fit_in_the_wall_time():
    qlist = workloads.desk_mix(5)[:40] + workloads.hyperbolic_long(5)[:20]
    tracer = Tracer()
    ctx = queries.Ctx(cs, tracer, ROOT, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    run.run_pass(ctx, qlist, queries.RUNNERS.__getitem__)
    wall = time.perf_counter() - t0
    selfs = self_times(tracer.spans)
    assert tracer.spans and all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) <= wall
    assert {s.query for s in tracer.spans} == set(range(len(qlist)))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "query.x", 0, 0.0, 10.0),
        Span(1, 0, "a", 0, 1.0, 4.0),
        Span(2, 0, "b", 0, 3.0, 6.0),  # overlaps a
        Span(3, 2, "c", 0, 5.0, 9.0),  # runs past its parent
    ]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 2.0, 3: 4.0}


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 20, 43, 146, 168, 1000):
        p = run.tail_percentile(n)
        _, rank = run.nearest_rank(list(range(n)), p)
        assert n - rank >= 10
        _, rank_next = run.nearest_rank(list(range(n)), p + 1)
        assert n - rank_next < 10 or p == 99
