#!/usr/bin/env python3
"""A/B comparison of two prebuilt `bagcons` binaries through bagbench.

Runs one prebuilt bagbench binary against a base and a change binary in
alternating pairs, so both sides share the same benchmark code and no
build runs between measurements (a build inside a timed run would show
up as `rss_mb`, the peak of the benchmark's child processes). The side
that goes first switches every pair, which cancels warm-cache and
thermal drift between the two slots.

Build the three binaries first, for example:

    cargo build --release --bin bagcons                     # the change
    cargo build --release --manifest-path bagbench/Cargo.toml \\
        --target-dir target/bagbench                         # the bench
    # the base: the same bagcons build in a clean checkout of the parent

then run from the repository root (bagbench works in `.bench_work/`):

    scripts/ab_bench.py --bench target/bagbench/release/bagbench \\
        --base ../parent/target/release/bagcons \\
        --change target/release/bagcons \\
        --workload acyclic_cli --seed 5 --seconds 10 --pairs 10

For every workload and metric it prints the median and quartiles of
each side, the change's win count (pairs where the change is better in
the metric's `better` direction from BENCHMARK.json; ties count for
neither side) and the failed-operation counts. `--raw FILE` also writes
every run's result line as JSON lines.

Each end-to-end metric also gets a verdict, by the acceptance rule for
a claimed gain and for no regression:

    gain        the change wins at least 9 in 10 pairs, and its median
                beats the base median by more than the base's quartile
                distance (q3 - q1)
    worse       the change's median is worse than the base median by
                more than the metric's `bound` in BENCHMARK.json (a
                fraction of the base median)
    unresolved  the base's own spread, (q3 - q1) / median, exceeds the
                bound, and not every change run beats every base run
    flat        otherwise

`--trace 1` compares the per-layer metrics of the traced runs instead.
Those come from bagbench's in-process replay, that is from the library
linked into the bench binary, so pass the parent's own bagbench build as
`--base-bench` for a traced comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys

MIN_PAIRS = 10


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--bench", required=True, help="prebuilt bagbench binary")
    p.add_argument(
        "--base-bench",
        help="bagbench built from the parent, for --trace 1 (default: --bench)",
    )
    p.add_argument("--base", required=True, help="bagcons binary of the parent")
    p.add_argument("--change", required=True, help="bagcons binary of the change")
    p.add_argument(
        "--workload",
        action="append",
        help="workload to run (repeatable; default: every workload in BENCHMARK.json)",
    )
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--benchmark", default="BENCHMARK.json")
    p.add_argument("--raw", help="write every result line to this JSON-lines file")
    args = p.parse_args()
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")
    return args


def run_once(args, side, workload):
    """Runs bagbench once for `side`; returns its parsed result line."""
    binary = getattr(args, side)
    bench = args.base_bench if side == "base" and args.base_bench else args.bench
    cmd = [
        bench,
        "--bin", binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bagbench exited {out.returncode} on {workload} with {binary}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, change, wins, better, bound):
    """The acceptance verdict for one end-to-end metric (module docs)."""
    # Orient every value so that larger is better.
    sign = -1 if better == "lower" else 1
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    gain = sign * (c_med - b_med)
    if wins * 10 >= 9 * len(base) and gain > q3 - q1:
        return "gain"
    scale = abs(b_med)
    if -gain > bound * scale:
        return "worse"
    spread_exceeds = q3 - q1 > bound * scale
    beats_all = min(sign * c for c in change) > max(sign * b for b in base)
    if spread_exceeds and not beats_all:
        return "unresolved"
    return "flat"


def report(workload, defs, runs, n_pairs):
    print(f"\n== {workload} ({n_pairs} pairs)")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: failed {failed} of {attempted} operations")
    print(
        f"{'metric':40} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
        f"{'wins':>6} {'verdict':>10}"
    )
    for name, better, bound in defs:
        vals = {
            side: [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
            for side in ("base", "change")
        }
        if not vals["base"] or not vals["change"]:
            continue
        wins = 0
        for b, c in zip(vals["base"], vals["change"]):
            if (c < b) if better == "lower" else (c > b):
                wins += 1
        cols = []
        for side in ("base", "change"):
            q1, q3 = quartiles(vals[side])
            cols.append(f"{statistics.median(vals[side]):.4g} [{q1:.4g}, {q3:.4g}]")
        line = f"{name:40} {cols[0]:>30} {cols[1]:>30} {wins:>3}/{len(vals['base'])}"
        if bound is not None:
            line += f" {verdict(vals['base'], vals['change'], wins, better, bound):>10}"
        print(line)


def main():
    args = parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    # Per-layer metrics carry no bound, so they get no verdict.
    defs = [(m["name"], m["better"], m.get("bound")) for m in bench[key]]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    raw = open(args.raw, "w") if args.raw else None
    for workload in workloads:
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(args, side, workload)
                runs[side].append(result)
                if raw:
                    raw.write(json.dumps({"workload": workload, "pair": pair, "side": side, **result}) + "\n")
            sys.stderr.write(f"{workload}: pair {pair + 1}/{args.pairs} done\n")
        report(workload, defs, runs, args.pairs)
    if raw:
        raw.close()


if __name__ == "__main__":
    main()
