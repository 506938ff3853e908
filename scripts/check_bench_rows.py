#!/usr/bin/env python3
"""Checks fresh bench rows against the committed BENCH_trials.json.

    scripts/check_bench_rows.py FRESH.json COMMITTED.json BENCH [BENCH ...]

For every named bench binary, the fresh file must hold exactly the
committed experiments, each with the committed tally_checksum. Timings
are not compared. Exits 1 and lists every difference otherwise.
"""

import json
import sys


def checksums(path, benches):
    with open(path) as f:
        rows = json.load(f)
    return {(r["bench"], r["experiment"]): r["tally_checksum"]
            for r in rows if r["bench"] in benches}


def main():
    if len(sys.argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_path, committed_path, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
    fresh = checksums(fresh_path, benches)
    committed = checksums(committed_path, benches)
    problems = []
    for key in sorted(set(fresh) | set(committed)):
        want, got = committed.get(key), fresh.get(key)
        if want != got:
            problems.append(f"{key[0]} {key[1]}: committed {want}, fresh {got}")
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} bench row(s) differ from {committed_path}")
        return 1
    print(f"{len(committed)} bench rows match {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
