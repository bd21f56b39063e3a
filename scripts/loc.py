#!/usr/bin/env python3
"""Line counts for the tracked sources, per crate and in total.

Prints two counts for every group of tracked files under crates/, src/,
tests/ and vendor/ (one group per crate, plus the root src/ and tests/):

* lines -- every line of every tracked file, the same total as
  `git ls-files crates src tests vendor | xargs wc -l`;
* non-test -- lines of the group's `src/**/*.rs` files, each counted up
  to its first `#[cfg(test)]` line (the whole file when it has none).

Usage, from anywhere inside the repository:

    scripts/loc.py              # the working tree's tracked files
    scripts/loc.py --rev HEAD~1 # the same files at another commit

Comparing two runs gives a change's line-count delta.
"""

import argparse
import subprocess
import sys
from collections import defaultdict

ROOTS = ["crates", "src", "tests", "vendor"]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def group_of(path: str) -> str:
    parts = path.split("/")
    if parts[0] in ("crates", "vendor") and len(parts) > 2:
        return "/".join(parts[:2])
    return parts[0]


def is_source(path: str, group: str) -> bool:
    return path.endswith(".rs") and path.startswith(
        "src/" if group == "src" else f"{group}/src/"
    )


def non_test_lines(text: str) -> int:
    count = 0
    for line in text.splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        count += 1
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", help="count the files at this commit instead")
    args = parser.parse_args()
    top = git("rev-parse", "--show-toplevel").decode().strip()
    if args.rev:
        listing = git("-C", top, "ls-tree", "-r", "--name-only", args.rev, "--", *ROOTS)
    else:
        listing = git("-C", top, "ls-files", "--", *ROOTS)
    lines = defaultdict(int)
    non_test = defaultdict(int)
    for path in listing.decode().splitlines():
        if args.rev:
            data = git("-C", top, "show", f"{args.rev}:{path}")
        else:
            with open(f"{top}/{path}", "rb") as f:
                data = f.read()
        group = group_of(path)
        lines[group] += data.count(b"\n")
        if is_source(path, group):
            non_test[group] += non_test_lines(data.decode("utf-8", "replace"))
    width = max(len(g) for g in lines)
    print(f"{'group':<{width}} {'lines':>8} {'non-test':>9}")
    for group in sorted(lines):
        print(f"{group:<{width}} {lines[group]:>8} {non_test[group]:>9}")
    print(f"{'total':<{width}} {sum(lines.values()):>8} {sum(non_test.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
