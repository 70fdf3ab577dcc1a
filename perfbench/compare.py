"""Compare the benchmark results of a parent commit and of a change.

Collect results in alternating pairs (same seed on both sides, the side
that runs first alternating from pair to pair)::

    python3 perfbench/compare.py run --parent ../parent --change . \
        --workload desk_mix --pairs 10 --out results/desk_mix

which runs ``perfbench/run.py`` inside each checkout and appends one record
per run to ``<out>-parent.jsonl`` and ``<out>-change.jsonl``.  Then::

    python3 perfbench/compare.py report results/desk_mix-parent.jsonl results/desk_mix-change.jsonl

prints one row per workload and end-to-end metric.  A metric is a ``gain``
when the change wins at least nine of every ten pairs (ties count for
neither side) and the medians differ by more than the parent's
interquartile spread; it is ``no gain`` instead when the change fails more
queries than the parent (every kind of failure, as answered_share counts
them).  A metric is ``worse`` when the change's median is worse than the
parent's by more than the metric's bound in ``BENCHMARK.json``;
``unresolved`` when the parent's own spread is wider than that bound,
unless every change run beats every parent run; ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
FIRST_SEED = 1000


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], q[1], q[2]


def verdict(parent, change, better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    detail = (f"parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  change {cm:.5g} [{c1:.5g}, {c3:.5g}]  "
              f"wins {wins}/{len(pairs)}  parent spread {spread:.3f} (bound {bound})")
    if len(pairs) < MIN_PAIRS:
        return "too few pairs", detail
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", detail
    return "same", detail


def failures(record) -> int:
    """All failed queries of a run: answered_share counts every kind."""
    res = record["result"]
    return round((1 - res["metrics"]["answered_share"]["value"]) * res["attempted"])


def report(parent_path, change_path) -> int:
    bench = benchmark()
    parent, change = load(parent_path), load(change_path)
    by_key = {(r["workload"], r["pair"]): r for r in parent}
    rows = 0
    for wl in dict.fromkeys(r["workload"] for r in change):
        matched = [(by_key[(wl, r["pair"])], r) for r in change if r["workload"] == wl and (wl, r["pair"]) in by_key]
        failed = [(failures(p), failures(c)) for p, c in matched]
        more_failed = sum(c for _, c in failed) > sum(p for p, _ in failed)
        if more_failed:
            print(f"{wl:16s} more failed queries on the change than on the parent (parent, change): {failed}")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [p["result"]["metrics"][name]["value"] for p, _ in matched]
            cv = [c["result"]["metrics"][name]["value"] for _, c in matched]
            if not pv:
                continue
            v, detail = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and more_failed:
                v = "no gain"
            print(f"{wl:16s} {name:16s} {v:14s} {detail}")
            rows += 1
    return 0 if rows else 1


def run_pairs(args) -> int:
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seconds = benchmark()["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = FIRST_SEED + i
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            record = {"workload": args.workload, "pair": i, "seed": seed, "first": order[0],
                      "result": json.loads(proc.stdout.strip().splitlines()[-1])}
            with open(f"{args.out}-{side}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        print(f"pair {i}: seed {seed}, {order[0]} first", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare a parent commit and a change on the benchmark.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs and record the results")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--out", required=True, help="prefix of the two result files")
    p = sub.add_parser("report", help="apply the comparison rule to two result files")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "report":
        return report(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    raise SystemExit(main())
