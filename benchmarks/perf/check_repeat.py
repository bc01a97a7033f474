#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs the full untraced pass twice on one commit, the second time with
the workload order reversed, prints both values and the relative
difference for every (metric, workload) pair, and exits non-zero if a
difference exceeds that metric's bound in ``BENCHMARK.json`` (at smoke
scale the differences are printed but not held to the bounds: a phase of
a tenth of a second is too short for them).

What one seed fixes must repeat *exactly*, round by round: op counts,
attempted/failed counts and every digest the oracles report (for
``fleet_transfers`` the admission-log digest and the final state root).
These are compared between the two runs of this commit only — they are
not pinned across commits, which a later change may legitimately move.
With ``--trace`` the traced pass is repeated as well and the keccak
call count of every round must agree exactly.

    python3 benchmarks/perf/check_repeat.py [--seed N] [--scale smoke] [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys

import run

EXACT_KEYS = ("seed", "ops", "attempted", "failed", "blocks", "digests", "keccak_calls")


def exact_differences(name: str, first: dict, second: dict, detail_key: str, rounds_key: str):
    """Round-by-round mismatches between two runs of one workload (over
    the rounds both runs made: timing decides how many there are)."""
    if detail_key not in first or detail_key not in second:
        yield f"{name}: no {detail_key} to compare"
        return
    pairs = zip(first[detail_key][rounds_key], second[detail_key][rounds_key])
    for index, (a, b) in enumerate(pairs):
        for key in EXACT_KEYS:
            if a.get(key) != b.get(key):
                yield f"{name} {rounds_key}[{index}] {key}: {a.get(key)!r} != {b.get(key)!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true", help="repeat the traced pass too")
    args = parser.parse_args(argv)
    seconds = run.DEFAULT_SECONDS / (run.SMOKE_SHRINK if args.scale == "smoke" else 1)
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }

    names = list(run.WORKLOAD_NAMES)
    ok_first, first = run.run_suite(names, args.seed, seconds, args.trace, args.scale)
    ok_second, second = run.run_suite(names[::-1], args.seed, seconds, args.trace, args.scale)
    first, second = first["workloads"], second["workloads"]
    problems = [] if ok_first and ok_second else ["a run failed or was incorrect"]

    print(f"\n{'workload':16s} {'metric':14s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for name in names:
        for metric, bound in bounds.items():
            try:
                a = first[name]["end_to_end"][metric]["value"]
                b = second[name]["end_to_end"][metric]["value"]
            except KeyError:
                problems.append(f"{name} {metric}: missing")
                continue
            diff = abs(b - a) / a
            flag = "" if diff <= bound else "  EXCEEDS"
            print(f"{name:16s} {metric:14s} {a:14.4f} {b:14.4f} {diff:8.2%} {bound:6.0%}{flag}")
            if flag and args.scale == "full":
                problems.append(f"{name} {metric}: {diff:.2%} apart, bound {bound:.0%}")
        a, b = first[name], second[name]
        problems.extend(exact_differences(name, a, b, "detail", "rounds"))
        if args.trace:
            problems.extend(exact_differences(name, a, b, "traced_detail", "traced_rounds"))

    if problems:
        print("\nNOT REPEATABLE:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("\nrepeatable: every metric within its bound; counts and digests identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
