#!/usr/bin/env python3
"""Exits non-zero when a Google Benchmark JSON file has a failed case.

A bench gate reports a failure with State::SkipWithError, and the binary
still exits 0: the failure shows only as "error_occurred" in its JSON
output. Run this on each bench's --benchmark_out file:

  python3 bench/check_bench_errors.py BENCH_simulator.json [more.json ...]
"""

import json
import sys


def main(paths):
    failed = []
    for path in paths:
        with open(path) as f:
            for case in json.load(f).get("benchmarks", []):
                if case.get("error_occurred"):
                    failed.append(f"{path}: {case['name']}: "
                                  f"{case.get('error_message', '')}")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
