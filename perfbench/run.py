"""The curvespace benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload desk_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The workload's query list is generated from the seed, then run
in a fixed number of passes sized to ``--seconds``, one query after another
(one process, no threads; on ``cli_cold`` one child process at a time).  Every answer is checked against the answer known by
construction.  A query's latency is its fastest over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.  The last line of
standard output is the JSON result.  ``--dump-queries`` prints the query
list and exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import queries  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

SETUP_REPEATS = 30
# A run makes seconds / NOMINAL_PASS_S passes (at least two), not as many
# as fit: a fixed count keeps the fastest-of-the-passes statistic alike from
# run to run and from commit to commit.  Nominal pass times at the seed
# commit (Python 3.11, 2-vCPU Xeon VM).
NOMINAL_PASS_S = {"desk_mix": 1.3, "hyperbolic_long": 10.0, "verify_box": 9.0, "cli_cold": 6.0}
# stop adding passes past this, so a much slower commit still ends in time
MAX_MEASURE_S = 120.0
LAYERS = ("surfaces", "words", "stbundle", "flatcurves", "classify", "oracle", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}

# (metric, unit, span name, statistic); see layer_metric()
PER_LAYER = (
    ("surfaces.presentation_us", "us", "surfaces.presentation", "mean"),
    ("surfaces.st_presentation_us", "us", "surfaces.st_presentation", "mean"),
    ("words.parse_word_us_per_letter", "us", "words.parse_word", "letters"),
    ("words.normal_form_us", "us", "words.normal_form", "mean"),
    ("words.normal_form_fail_share", "ratio", "words.normal_form", "errors"),
    ("words.conjugating_element_us", "us", "words.conjugating_element", "mean"),
    ("words.primitive_root_us", "us", "words.primitive_root", "mean"),
    ("stbundle.st_parse_us", "us", "stbundle.st_parse", "mean"),
    ("stbundle.st_multiply_us", "us", "stbundle.st_multiply", "mean"),
    ("stbundle.st_is_conjugate_us", "us", "stbundle.st_is_conjugate", "mean"),
    ("stbundle.undecided_share", "ratio", "stbundle.st_is_conjugate", "note"),
    ("stbundle.decompose_us", "us", "stbundle.decompose", "mean"),
    ("stbundle.st_power_us_per_exponent", "us", "stbundle.st_power", "exponent"),
    ("flatcurves.load_curve_us_per_vertex", "us", "flatcurves.load_curve", "vertices"),
    ("flatcurves.lift_us_per_vertex", "us", "flatcurves.lift", "vertices"),
    ("classify.classify_pi1_us", "us", "classify.classify_pi1", "mean"),
    ("classify.regular_homotopy_equivalent_us", "us", "classify.regular_homotopy_equivalent", "mean"),
    ("oracle.bounded_elements_s", "s", "oracle.bounded_elements", "first"),
    ("oracle.box_elements", "count", "oracle.bounded_elements", "first_note"),
    ("oracle.bounded_centralizer_s", "s", "oracle.bounded_centralizer", "mean"),
    ("oracle.centralizer_elements", "count", "oracle.bounded_centralizer", "mean_note"),
    ("oracle.verify_classification_s", "s", "oracle.verify_classification", "mean"),
    ("oracle.bounded_is_trivial_us", "us", "oracle.bounded_is_trivial", "mean"),
    ("cli.main_ms", "ms", "cli.main", "mean"),
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
EXTRA_LAYER_UNITS = {"cli.startup_ms": "ms", "cli.import_ms": "ms", "trace.overhead_share": "ratio"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_program(src: str):
    if not os.path.isfile(os.path.join(src, "curvespace", "__init__.py")):
        fail(f"no curvespace sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import curvespace
    import curvespace.cli  # noqa: F401  (bound as an attribute of the package)

    if not os.path.abspath(curvespace.__file__).startswith(src + os.sep):
        fail(f"imported curvespace from {curvespace.__file__}, not from {src}")
    return curvespace


# ---------------------------------------------------------------------------
# measurements


def child_seconds(argv, src: str, cwd: str) -> float:
    # Output goes to a pipe: the run then ends when the pipe closes at the
    # child's exit.  Without one, a wait with a timeout polls, with sleeps
    # growing to 50 ms, and the time reads in 50 ms steps.
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=queries.child_env(src), check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def setup_argv(workload: str) -> list[str]:
    """A fresh interpreter that imports curvespace and builds the workload's
    presentations (``cli_cold``: imports the CLI)."""
    if workload == "cli_cold":
        code = "import curvespace.cli"
    else:
        specs = ", ".join(f"'{s}'" for s in workloads.SETUP_SURFACES[workload])
        code = ("import curvespace as c\n"
                f"for s in ({specs},):\n"
                "    spec = c.SurfaceSpec.parse(s); c.presentation(spec); c.st_presentation(spec)\n")
    return [sys.executable, "-c", code]


def cli_child_figures(src: str, cwd: str) -> dict:
    code = ("import time; t = time.perf_counter(); import curvespace.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(5):
        out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=queries.child_env(src), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        imports.append(float(out.strip()))
    argv = [sys.executable, "-m", "curvespace.cli", "group", "--surface", "orientable:0:0"]
    startup = statistics.median(child_seconds(argv, src, cwd) for _ in range(5))
    return {"cli.startup_ms": 1e3 * startup, "cli.import_ms": 1e3 * statistics.median(imports)}


def run_pass(ctx, qlist, runner_for):
    """One closed-loop pass; returns (wall, latencies, failure kinds, messages)."""
    lat, kinds, msgs = [], [], []
    t_pass = time.perf_counter()
    for i, q in enumerate(qlist):
        exc = answer = None
        t0 = time.perf_counter()
        with ctx.tr.query(i, q["shape"]):
            try:
                answer = runner_for(q["shape"])(ctx, q)
            except Exception as e:  # counted as a failed query, never fatal
                exc = e
        lat.append(time.perf_counter() - t0)
        msg = None if exc is not None else queries.CHECKS[q["shape"]](q, answer)
        kinds.append(queries.failure_kind(q, msg, exc))
        msgs.append(msg if exc is None else f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t_pass, lat, kinds, msgs


def nearest_rank(sorted_vals, p: float) -> tuple[float, int]:
    rank = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], rank


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    p = math.floor(100 * (n - 10) / n)
    while p > 0 and n - math.ceil(p / 100 * n) < 10:
        p -= 1
    return p


def warm_up(ctx, workload, qlist):
    """Fill the program's per-surface caches, as any long-lived caller
    would have them; verify_box also builds its enumeration boxes here (the
    traced run keeps these first calls as ``oracle.bounded_elements``)."""
    cs = ctx.cs
    if workload == "cli_cold":
        return
    for name in dict.fromkeys(q["surface"] for q in qlist):
        spec = cs.surfaces.SurfaceSpec.parse(name)
        if workload == "verify_box":
            ctx.tr.call("oracle.bounded_elements", cs.oracle.bounded_elements, spec, cs.oracle.VERIFY_BOUND,
                        note=len, surface=name)
        if cs.surfaces.presentation(spec).generators:
            cs.stbundle.st_parse(cs.surfaces.presentation(spec).generators[0].name, spec)


def measure(ctx, workload, qlist, seconds, traced: bool, tracer, between=None):
    """A fixed number of passes for ``seconds``.  In a traced run untraced
    and traced passes alternate; both run the same calls.  ``between(i,
    count)`` runs untimed before pass i."""
    if workload == "cli_cold" and traced:
        runner_for = lambda shape: queries.cli_in_process  # noqa: E731
    else:
        runner_for = queries.RUNNERS.__getitem__
    null = NullTracer()
    ctx.tr = tracer if traced else null
    warm_up(ctx, workload, qlist)
    count = max(2, int(seconds / NOMINAL_PASS_S[workload]))
    passes = []
    start = time.perf_counter()
    while len(passes) < count:
        if between is not None:
            between(len(passes), count)
        use_trace = traced and len(passes) % 2 == 1
        ctx.tr = tracer if use_trace else null
        wall, lat, kinds, msgs = run_pass(ctx, qlist, runner_for)
        passes.append({"wall": wall, "lat": lat, "kinds": kinds, "msgs": msgs, "traced": use_trace})
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > MAX_MEASURE_S:
            break
    ctx.tr = null
    return passes


# ---------------------------------------------------------------------------
# reporting


def end_to_end(passes, setup_s, rss_mb, qlist):
    """Each query's latency is its fastest over the passes: on a shared
    machine, interference only ever adds time, and the fastest of several
    passes repeats far better from run to run than their median."""
    n = len(qlist)
    best = [min(p["lat"][i] for p in passes) for i in range(n)]
    order = sorted(range(n), key=best.__getitem__)
    pct = tail_percentile(n)
    _, rank = nearest_rank(order, pct)
    tail_q = qlist[order[rank - 1]]
    kinds = [k for ps in passes for k in ps["kinds"]]
    failed = sum(k is not None for k in kinds)
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": n / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_tail_ms": 1e3 * best[order[rank - 1]],
        "answered_share": 1 - failed / len(kinds),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters spread over the run",
        "queries_per_s": f"{n} queries / {sum(best):.3f} s, the sum of their fastest latencies over {len(passes)}"
        f" passes (median pass {statistics.median(ps['wall'] for ps in passes):.3f} s)",
        "latency_p50_ms": f"median of {n} per-query fastest latencies",
        "latency_tail_ms": f"p{pct}, {n - rank} of {n} queries beyond it; at {tail_q['shape']} on {tail_q['surface']}",
        "answered_share": f"failed_share = {failed}/{len(kinds)} = {failed / len(kinds):.4f} ("
        + ", ".join(f"{k} {kinds.count(k)}" for k in queries.FAILURE_KINDS) + ")",
    }
    return metrics, notes


def span_stats(spans, selfs):
    """Per span name: list of (self seconds, span)."""
    out: dict[str, list] = {}
    for s in spans:
        if not s.name.startswith("query."):
            out.setdefault(s.name, []).append((selfs[s.sid], s))
    return out


def layer_metric(stat: str, rows) -> float:
    secs = [t for t, _ in rows]
    if stat == "mean":
        return statistics.fmean(secs)
    if stat in ("letters", "exponent", "vertices"):
        return sum(secs) / max(1, sum(s.attrs.get(stat, 0) for _, s in rows))
    if stat == "errors":
        return sum(s.error is not None for _, s in rows) / len(rows)
    if stat == "note":
        return sum(bool(s.attrs.get("note")) for _, s in rows) / len(rows)
    if stat == "mean_note":
        return statistics.fmean(s.attrs.get("note", 0) for _, s in rows)
    firsts = {}
    for t, s in rows:
        firsts.setdefault(s.attrs.get("surface"), (t, s.attrs.get("note", 0)))
    return sum(v[0 if stat == "first" else 1] for v in firsts.values())


def layer_metrics(stats, probe_stats):
    metrics, probed = {}, []
    for name, unit, span, stat in PER_LAYER:
        rows = stats.get(span)
        if not rows:
            rows = probe_stats[span]
            probed.append(name)
        metrics[name] = layer_metric(stat, rows) * SCALE.get(unit, 1.0)
    return metrics, probed


def breakdown(stats):
    """``<span>.<key>`` means for the issue's regime / model / surface /
    subcommand / word-length families."""
    lines = []
    for name, rows in sorted(stats.items()):
        groups: dict[str, list] = {}
        for t, s in rows:
            key = ".".join(str(s.attrs[k]) for k in ("regime", "model", "surface", "subcommand") if k in s.attrs)
            if name == "words.normal_form":
                n = s.attrs.get("letters", 0)
                key += ".L8" if n < 20 else ".L32" if n < 80 else ".L128"
            groups.setdefault(key.strip(".").replace(":", "-"), []).append((t, s))
        for key, g in sorted(groups.items()):
            secs = [t for t, _ in g]
            errs = sum(s.error is not None for _, s in g)
            lines.append(f"layer {name}_us{'.' if key else ''}{key} = {1e6 * statistics.fmean(secs):.1f} us"
                         f" (calls {len(g)}, errors {errs})")
    return lines


def shares(spans, selfs):
    total = sum(s.end - s.start for s in spans if s.name.startswith("query."))
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for s in spans:
        layer = "bench" if s.name.startswith("query.") else s.name.split(".")[0]
        out[layer] += selfs[s.sid]
    return {k: v / total for k, v in out.items()}


def probe(ctx, src, cwd):
    """Spans for layers the workload never calls: one small query of every
    other shape, so every per-layer metric exists on every workload."""
    pool = workloads.desk_mix(0) + workloads.hyperbolic_long(0) + workloads.verify_box(0)
    cheap = ("orientable:1:0", "orientable:0:0", "orientable:2:0")  # cheapest first
    picks = {}
    for q in sorted(pool, key=lambda q: (cheap.index(q["surface"]) if q["surface"] in cheap else 9,
                                         len(json.dumps(q)))):
        if q["shape"] != "block" and q["surface"] in cheap:
            picks.setdefault(q["shape"], q)
    tracer = Tracer()
    ctx.tr = tracer
    # a surface no workload verifies on, so this is the first call
    spec = ctx.cs.surfaces.SurfaceSpec.parse("orientable:1:1")
    ctx.tr.call("oracle.bounded_elements", ctx.cs.oracle.bounded_elements, spec,
                ctx.cs.oracle.VERIFY_BOUND, note=len, surface="orientable:1:1")
    plist = list(picks.values()) + [{"shape": "cli", "surface": "orientable:0:0",
                                     "argv": ["group", "--surface", "orientable:0:0"]}]
    for i, q in enumerate(plist):
        with tracer.query(i, q["shape"]):
            (queries.cli_in_process if q["shape"] == "cli" else queries.RUNNERS[q["shape"]])(ctx, q)
    ctx.tr = NullTracer()
    return span_stats(tracer.spans, self_times(tracer.spans))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-queries", action="store_true")
    args = ap.parse_args(argv)

    qlist = workloads.WORKLOADS[args.workload](args.seed)
    if args.dump_queries:
        print(json.dumps(qlist, sort_keys=True))
        return 0

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    cs = import_program(src)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for q in qlist:
            for name, text in q.get("files", {}).items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        return run(args, cs, qlist, src, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, cs, qlist, src, workdir, out_dir) -> int:
    ctx = queries.Ctx(cs, NullTracer(), workdir, src)
    n = len(qlist)
    print(f"workload={args.workload} seed={args.seed} queries={n} seconds={args.seconds} trace={args.trace}"
          " model=closed-loop clients=1")
    tracer = Tracer()
    setups = []

    def setup_samples(i, count):
        # spread over the run, so one slow or fast spell of a shared machine
        # does not decide the figure
        for j in range(SETUP_REPEATS):
            if j * count // SETUP_REPEATS == i:
                setups.append(child_seconds(setup_argv(args.workload), src, workdir))

    passes = measure(ctx, args.workload, qlist, args.seconds, bool(args.trace), tracer,
                     None if args.trace else setup_samples)
    kinds = [k for p in passes for k in p["kinds"]]
    # every failure counts against answered_share; only those beyond the
    # known defect (queries marked cap_trip) make the run incorrect
    hard = [(p["msgs"][i], k, qlist[i]) for p in passes for i, k in enumerate(p["kinds"])
            if k is not None and not qlist[i].get("cap_trip")]
    for msg, k, q in hard[:5]:
        print(f"FAILED ({k}) {q['shape']} on {q['surface']}: {msg}")
    for i, k in enumerate(passes[0]["kinds"]):
        if k is not None and qlist[i].get("cap_trip"):
            print(f"known defect, failed ({k}): {qlist[i]['shape']} on {qlist[i]['surface']}")

    if args.trace:
        untraced = statistics.median(p["wall"] for p in passes if not p["traced"])
        traced = statistics.median(p["wall"] for p in passes if p["traced"])
        selfs = self_times(tracer.spans)
        stats = span_stats(tracer.spans, selfs)
        metrics, probed = layer_metrics(stats, probe(ctx, src, workdir))
        metrics.update(cli_child_figures(src, workdir))
        metrics["trace.overhead_share"] = traced / untraced - 1
        for line in breakdown(stats):
            print(line)
        for layer, share in shares([s for s in tracer.spans if s.query is not None], selfs).items():
            print(f"share.{layer} = {share:.4f} of traced query wall time")
        print(f"tracing overhead: traced pass {traced:.3f} s vs untraced {untraced:.3f} s")
        if probed:
            print("from the probe (not called by this workload): " + " ".join(probed))
        units = {m: u for m, u, _, _ in PER_LAYER} | EXTRA_LAYER_UNITS
        notes = {}
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF)
        metrics, notes = end_to_end(passes, statistics.median(setups), rss.ru_maxrss / 1024, qlist)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}" + (f"  ({notes[name]})" if name in notes else ""))
    print(json.dumps({
        "correct": not hard,
        "attempted": len(kinds),
        "failed": len(hard),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
