"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py DIR_A [DIR_B]

Each DIR holds the outputs collect.py saved (<workload>.trace<t>.seed<n>.out).
For every workload and end-to-end metric it prints each side's median and
quartiles over the untraced runs, their spread (quartile distance over
median) next to the metric's bound from BENCHMARK.json, and, given two
sets, a verdict on B against A:

  better        B's median is better, B wins at least 9 of 10 seed pairs
                and the medians differ by more than A's quartile distance
  worse         B's median is worse than A's by more than the bound
  unresolved    a spread exceeds the bound and B does not beat every A run
  within bound  none of the above

Per-layer medians of the traced runs follow, with each layer's share of
the traced wall time and the tracing overhead.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys

WHAT = re.compile(r"(?P<workload>[^/]+)\.trace(?P<trace>[01])\.seed(?P<seed>-?\d+)\.out$")
LAYERS = ("sigmodel", "mpb", "linalg", "theory", "harness", "cli")
INFO_METRICS = ("closed_form_calls_per_s",)


def load(directory: str) -> dict:
    """{(workload, trace): {seed: (settings, result)}} of the runs that printed a result."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        m = WHAT.search(path)
        if not m:
            continue
        settings, result = {}, None
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("{"):
                    obj = json.loads(line)
                    if "settings" in obj:
                        settings = obj["settings"]
                    elif "metrics" in obj:
                        result = obj
        if result is not None:
            key = (m["workload"], int(m["trace"]))
            runs.setdefault(key, {})[int(m["seed"])] = (settings, result)
    return runs


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_values(runs: dict, name: str) -> dict:
    return {seed: r["metrics"][name]["value"]
            for seed, (_, r) in runs.items() if name in r["metrics"]}


def info_values(runs: dict, name: str) -> dict:
    return {seed: s[name] for seed, (s, _) in runs.items() if name in s}


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    va, vb = list(a.values()), list(b.values())
    qa1, ma, qa3 = quartiles(va)
    qb1, mb, qb3 = quartiles(vb)
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    b_beats_all = all(sign * (x - y) < 0 for x in vb for y in va)
    if spread > bound and not b_beats_all:
        return "unresolved"
    if sign * (mb - ma) / abs(ma) > bound:
        return "worse"
    pairs = [(a[s], b[s]) for s in a if s in b] or [(x, y) for x in va for y in vb]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if sign * (mb - ma) < 0 and abs(mb - ma) > qa3 - qa1 and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def fmt(x: float) -> str:
    return f"{x:.6g}"


def describe(values: dict) -> str:
    q1, med, q3 = quartiles(list(values.values()))
    spread = (q3 - q1) / abs(med) if med else 0.0
    return f"{fmt(med):>11} [{fmt(q1)}, {fmt(q3)}] n={len(values)} spread={spread:.3f}"


def failed_share(runs: dict) -> str:
    att = sum(r["attempted"] for _, r in runs.values())
    fail = sum(r["failed"] for _, r in runs.values())
    bad = sum(not r["correct"] for _, r in runs.values())
    return f"{fail}/{att} operations failed, {bad} run(s) with failed checks"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = [load(d) for d in argv]
    labels = ["A", "B"][:len(sides)]

    for w in (w["name"] for w in bench["workloads"]):
        print(f"== {w}")
        plain = [s.get((w, 0), {}) for s in sides]
        for label, runs in zip(labels, plain):
            print(f"   {label}: {failed_share(runs)}" if runs else f"   {label}: no runs")
        for m in bench["end_to_end"]:
            vals = [metric_values(r, m["name"]) for r in plain]
            if not all(vals):
                continue
            line = "  ".join(f"{label} {describe(v)}" for label, v in zip(labels, vals))
            tail = f" bound={m['bound']}"
            if len(vals) == 2:
                tail += f"  -> {verdict(vals[0], vals[1], m['bound'], m['better'])}"
            print(f"  {m['name']:<12} {m['unit']:<4} {line}{tail}")
        for name in INFO_METRICS:
            vals = [info_values(r, name) for r in plain]
            if all(vals):
                line = "  ".join(f"{label} {describe(v)}" for label, v in zip(labels, vals))
                print(f"  {name} (untraced, no bound) {line}")

        traced = [s.get((w, 1), {}) for s in sides]
        if not any(traced):
            continue
        counts = ", ".join(f"{label}: n={len(t)}" for label, t in zip(labels, traced))
        print(f"  per-layer medians of traced runs ({counts})")
        medians = []
        for runs in traced:
            per = {m["name"]: metric_values(runs, m["name"]) for m in bench["per_layer"]}
            medians.append({k: statistics.median(v.values()) for k, v in per.items() if v})
        for m in bench["per_layer"]:
            cells = [f"{fmt(md[m['name']]):>12}" if m["name"] in md else f"{'-':>12}"
                     for md in medians]
            print(f"    {m['name']:<34} {m['unit']:<6} {' '.join(cells)}")
        for label, md, runs, traced_runs in zip(labels, medians, plain, traced):
            wall = md.get("trace.wall_s")
            if not wall:
                continue
            shares = "  ".join(f"{layer} {100.0 * md[f'{layer}.self_s'] / wall:.1f}%"
                               for layer in LAYERS)
            sample = 100.0 * (md["sigmodel.iter_blocks.self_s"]
                              + md["mpb.accumulate_cov_pair.self_s"]) / wall
            print(f"    {label} self-time shares of traced wall: {shares}; "
                  f"iter_blocks+accumulate_cov_pair {sample:.1f}%")
            overhead = md["trace.overhead_s"]
            line = (f"    {label} tracing overhead: {fmt(overhead)} s in-run "
                    f"({100.0 * overhead / wall:.1f}% of traced wall)")
            untraced = metric_values(runs, "wall_s")
            workers = {s.get("workers")
                       for s, _ in list(runs.values()) + list(traced_runs.values())}
            if untraced and len(workers) == 1:
                across = wall - statistics.median(untraced.values())
                line += f"; traced wall_s minus untraced wall_s across runs {fmt(across)} s"
            elif untraced:
                line += "; untraced runs use other worker counts, so no across-run figure"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
