#!/usr/bin/env python3
"""CI parallel-speedup gate.

Reads one or more BENCH_*.json files produced by the experiment harness
(E13 / E14 shape: a "results" list of rows carrying "support",
"threads", and one or more "*_ms" timing columns) and checks that on
the **largest-support** row, threads=4 achieves at least MIN_SPEEDUP x
the threads=1 time on at least one timing column (the best column is
reported; all are printed).

Skips — with a loud note, exit 0 — when the recorded host_parallelism
is below 4: a 1-core container cannot measure parallel speedup, only
scheduling overhead. CI hosted runners have >= 4 vCPUs, so the gate is
real there.

An E16 file (experiment tag starting with "e16") is gated differently:
it is single-threaded by design, so the check is that on the
largest-support merge_join row the packed key-code path beats the
slice-compare baseline by MIN_PACKED_SPEEDUP x. Both columns come from
the same run of the same binary, so host parallelism is irrelevant —
the gate only skips (loudly, exit 0) when the largest support is below
E16_SUPPORT_FLOOR, where the join is too small to time reliably.

An E18 file (experiment tag starting with "e18") gates the snapshot
layer: on the largest-support row, opening the binary snapshot
(parse-free, re-intern-free, re-sort-free) must be at least
MIN_SNAP_SPEEDUP x faster than parsing + sealing the equivalent text
dataset. Both columns come from the same run, so this gate is also
host-independent and never skips.

Usage: check_speedup.py BENCH_e13.json BENCH_e14.json BENCH_e16.json \
       BENCH_e18.json
"""

import json
import sys

MIN_SPEEDUP = 1.2
THREADS_BASE = 1
THREADS_PAR = 4

MIN_PACKED_SPEEDUP = 1.15
E16_SUPPORT_FLOOR = 4096

MIN_SNAP_SPEEDUP = 10.0


def check_e16(path: str, doc: dict) -> bool:
    rows = [r for r in doc["results"] if r.get("kind") == "merge_join"]
    if not rows:
        print(f"{path}: no merge_join rows — nothing to gate")
        return False
    largest = max(row["support"] for row in rows)
    if largest < E16_SUPPORT_FLOOR:
        print(f"{path}: largest merge_join support {largest} < "
              f"{E16_SUPPORT_FLOOR}; too small to time reliably — skipping")
        return True
    row = next(r for r in rows if r["support"] == largest)
    packed, slice_ms = row["packed_join_ms"], row["slice_join_ms"]
    speedup = slice_ms / packed if packed > 0 else float("inf")
    ok = speedup >= MIN_PACKED_SPEEDUP
    verdict = "PASS" if ok else "FAIL"
    print(f"{path}: support={largest} packed={packed:.3f} ms "
          f"slice={slice_ms:.3f} ms speedup={speedup:.2f}x")
    print(f"  {verdict}: packed merge join vs slice baseline "
          f"(required >= {MIN_PACKED_SPEEDUP}x)")
    return ok


def check_e18(path: str, doc: dict) -> bool:
    rows = doc["results"]
    if not rows:
        print(f"{path}: no rows — nothing to gate")
        return False
    largest = max(row["support"] for row in rows)
    row = next(r for r in rows if r["support"] == largest)
    parse_ms, open_ms = row["parse_seal_ms"], row["snap_open_ms"]
    speedup = parse_ms / open_ms if open_ms > 0 else float("inf")
    ok = speedup >= MIN_SNAP_SPEEDUP
    verdict = "PASS" if ok else "FAIL"
    print(f"{path}: support={largest} parse+seal={parse_ms:.3f} ms "
          f"snapshot open={open_ms:.3f} ms speedup={speedup:.2f}x")
    print(f"  {verdict}: snapshot open vs parse+seal "
          f"(required >= {MIN_SNAP_SPEEDUP}x)")
    return ok


def check(path: str) -> bool:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("experiment", "").startswith("e16"):
        return check_e16(path, doc)
    if doc.get("experiment", "").startswith("e18"):
        return check_e18(path, doc)
    host = doc.get("host_parallelism", 0)
    if host < THREADS_PAR:
        print(f"{path}: host_parallelism={host} < {THREADS_PAR}; "
              "cannot measure speedup on this host — skipping")
        return True
    rows = doc["results"]
    largest = max(row["support"] for row in rows)
    by_threads = {row["threads"]: row for row in rows if row["support"] == largest}
    base = by_threads.get(THREADS_BASE)
    par = by_threads.get(THREADS_PAR)
    if base is None or par is None:
        print(f"{path}: missing threads={THREADS_BASE} or threads={THREADS_PAR} "
              f"row at support={largest}")
        return False
    cols = [k for k in base if k.endswith("_ms")]
    best_col, best = None, 0.0
    print(f"{path}: support={largest} (host_parallelism={host})")
    for col in cols:
        t1, t4 = base[col], par[col]
        speedup = t1 / t4 if t4 > 0 else float("inf")
        print(f"  {col:>20}: t1={t1:8.3f} ms  t4={t4:8.3f} ms  "
              f"speedup={speedup:5.2f}x")
        if speedup > best:
            best_col, best = col, speedup
    ok = best >= MIN_SPEEDUP
    verdict = "PASS" if ok else "FAIL"
    print(f"  {verdict}: best column {best_col} at {best:.2f}x "
          f"(required >= {MIN_SPEEDUP}x)")
    return ok


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    ok = all([check(path) for path in sys.argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
