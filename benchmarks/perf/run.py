#!/usr/bin/env python3
"""The wall-clock benchmark: one runner, one output schema.

Two ways to call it, both from the repository root:

``python3 benchmarks/perf/run.py [--seed N] [--scale smoke] [--trace]``
    the whole suite — every workload once in a fresh interpreter with
    tracing off; with ``--trace`` a second, traced pass per workload.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding the end-to-end metrics (``--trace 0``) or the per-layer
    metrics (``--trace 1``) that ``BENCHMARK.json`` lists; the line
    before it is a ``{"detail": ...}`` object for ``check_repeat.py``.

A run is a sequence of *rounds*, alternating between the run's round
seeds (two, ``2 * seed`` and ``2 * seed + 1``, except on the workloads
whose inputs are uniform anyway).  A round builds a
fresh world from its seed (timed: one set-up sample), runs the
workload's fixed measured phase (timed, and cut into slices at every
block commit) and then its correctness oracle (not timed).  Rounds
repeat until ``--seconds`` of measured time have accumulated, between
``MIN_ROUNDS`` and ``MAX_ROUNDS`` of them: six on a quiet host, four
when the host is slow, so a run costs about the same either way.  The rounds of one seed
do identical work, so they are folded into one (:func:`undisturbed`):
each slice takes the fastest of its repeats, because interference on a
shared host only ever slows a slice down.  Rates and block intervals
are those of the folded phases of both seeds pooled; set-up is the
median over rounds.  A segment of a fixed reference kernel is timed
before every round and folded the same way, and every end-to-end time
is divided by how much slower than nominal the host ran it
(``reference.py``).  A traced run pairs every round with a traced twin;
their wall-time ratio is the tracing overhead.

Exit code 0: all outputs correct.  1: an oracle failed (the result
line says ``"correct": false``).  2: the program under test could not
be imported or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

SCHEMA_VERSION = 1
DEFAULT_SEED = 11
DEFAULT_SECONDS = 9  # BENCHMARK.json's run_seconds
MIN_ROUNDS = 4
MAX_ROUNDS = 6  # so that a fast host does not buy itself a longer run
SMOKE_SHRINK = 20

WORKLOAD_NAMES = (
    "fleet_transfers",
    "kitties_replay",
    "scoin_moves",
    "state_write",
    "state_read",
)


def host_line() -> dict:
    """Where the numbers were taken: cores, interpreter, commit."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
    }


def children_cpu_seconds() -> float:
    """CPU time of reaped child processes: added to the process's own,
    so wall time bought with extra processes shows."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------


def evict_keccak_memo() -> None:
    """The program memoizes small keccak inputs process-wide; fill the
    memo with junk through the public function so every round starts
    equally cold, whatever ran before it in this process (a traced twin
    would otherwise find its own seed's digests already there)."""
    from repro.crypto.hashing import keccak, keccak_memo_info

    for i in range(keccak_memo_info().maxsize):
        keccak(b"perf-evict-%d" % i)


def run_round(workload_cls, seed: int, shrink: int, tracer=None) -> dict:
    """Build a world, run its measured phase, check it.  With a tracer,
    the entry-point wrappers are installed for the life of the world
    (so references taken during set-up are wrapped too) and record only
    during the measured phase."""
    import trace

    gc.collect()
    evict_keccak_memo()
    if tracer is not None:
        trace.install(tracer)
    try:
        t0 = time.perf_counter()
        world = workload_cls(seed, shrink)
        setup_s = time.perf_counter() - t0

        # One stamp per block commit, in commit order over all chains:
        # (wall, CPU, chain, transactions carried).
        all_stamps = []
        for index, chain in enumerate(world.chains):
            chain.subscribe(
                lambda block, receipts, index=index: all_stamps.append(
                    (time.perf_counter(), time.process_time(), index, len(receipts))
                )
            )

        children0 = children_cpu_seconds()
        if tracer is not None:
            tracer.begin()
        begin = (time.perf_counter(), time.process_time())
        world.measure()
        end = (time.perf_counter(), time.process_time())
        stamps = tuple(all_stamps)  # the oracle may commit more blocks: not the phase's
        if tracer is not None:
            tracer.end()
        children_cpu_s = children_cpu_seconds() - children0
    finally:
        if tracer is not None:
            trace.uninstall()

    outcome = world.check()
    walls = [begin[0], *(stamp[0] for stamp in stamps), end[0]]
    cpus = [begin[1], *(stamp[1] for stamp in stamps), end[1]]
    return {
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": end[0] - begin[0],
        "cpu_s": end[1] - begin[1] + children_cpu_s,
        "ops": outcome.ops,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "blocks": len(stamps),
        "digests": outcome.digests,
        # Slices: the phase cut at every block commit.  The same seed
        # cuts the same work at the same places every time.
        "commits": [(index, txs) for _wall, _cpu, index, txs in stamps],
        "wall_slices": [later - earlier for earlier, later in zip(walls, walls[1:])],
        "cpu_slices": [later - earlier for earlier, later in zip(cpus, cpus[1:])],
        "children_cpu_s": children_cpu_s,
    }


SLICE_KEYS = ("commits", "wall_slices", "cpu_slices")


def undisturbed(rounds: list) -> dict:
    """Fold the rounds of a run into one phase per round seed, as an
    undisturbed host would have run them, and pool the seeds.

    The rounds of one seed did identical work cut into identical slices
    (checked), and other tenants of a shared host only ever make a
    slice slower, in bursts much shorter than a phase.  So each slice
    takes the fastest of its repeats, and the phase is the sum of its
    slices: a burst has to hit the same slice in every repeat to show.
    Block intervals are rebuilt from the same slices.
    """
    from workloads import OracleFailure

    by_seed = {}
    for measured_round in rounds:
        by_seed.setdefault(measured_round["seed"], []).append(measured_round)
    folded = {"wall_s": 0.0, "cpu_s": 0.0, "ops": 0, "intervals": []}
    for seed, repeats in by_seed.items():
        first = repeats[0]
        for other in repeats[1:]:
            for key in ("ops", "digests", "commits"):
                if other[key] != first[key]:
                    raise OracleFailure(f"two rounds on seed {seed} differ in their {key}")
        wall = [min(column) for column in zip(*(r["wall_slices"] for r in repeats))]
        cpu = [min(column) for column in zip(*(r["cpu_slices"] for r in repeats))]
        # A block's interval is the time since the previous commit on
        # its chain, weighted by the transactions it carried.
        elapsed, previous = 0.0, {}
        for slice_s, (chain, txs) in zip(wall, first["commits"]):
            elapsed += slice_s
            if txs and chain in previous:
                folded["intervals"].append((1e3 * (elapsed - previous[chain]), txs))
            previous[chain] = elapsed
        folded["wall_s"] += sum(wall)
        folded["cpu_s"] += sum(cpu) + min(r["children_cpu_s"] for r in repeats)
        folded["ops"] += first["ops"]
    return folded


def weighted_percentile(samples, q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the
    total, over ``(value, weight)`` pairs."""
    ordered = sorted(samples)
    threshold = q * sum(weight for _value, weight in ordered)
    reached = 0
    for value, weight in ordered:
        reached += weight
        if reached >= threshold:
            return value
    raise ValueError("no loaded block interval in the measured phase")


IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import reference, trace, workloads
print(time.perf_counter() - started)
"""
IMPORT_PROBES = 2


def import_seconds() -> float:
    """What this process's imports cost, sampled again: the benchmark's
    and the program's modules imported in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout)


def end_to_end_metrics(rounds: list, folded: dict, imports: list, slowdown: float) -> dict:
    """Rates and block intervals are those of the :func:`undisturbed`
    phases; set-up is the median import plus the median build.  Every
    time is in reference seconds: divided by the host's ``slowdown``
    while the run lasted (see ``reference.py``)."""
    setup_s = statistics.median(imports) + statistics.median(r["setup_s"] for r in rounds)
    return {
        "setup_s": (setup_s / slowdown, "s"),
        "ops_per_s": (folded["ops"] / folded["wall_s"] * slowdown, "1/s"),
        "ops_per_cpu_s": (folded["ops"] / folded["cpu_s"] * slowdown, "1/s"),
        "block_ms_p50": (weighted_percentile(folded["intervals"], 0.50) / slowdown, "ms"),
        "block_ms_p90": (weighted_percentile(folded["intervals"], 0.90) / slowdown, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str) -> int:
    """One workload in this process (``src/`` and this directory must
    be importable: :func:`main` sees to that)."""
    import reference
    import trace
    import workloads

    import_s = time.perf_counter() - STARTED
    workload_cls = workloads.WORKLOADS[name]
    round_seeds = workload_cls.ROUND_SEEDS
    shrink = SMOKE_SHRINK if scale == "smoke" else 1
    label = "SMOKE (not a baseline) " if scale == "smoke" else ""
    host = host_line()
    print(
        f"# {label}{name} seed={seed} scale={scale} seconds={seconds:g} "
        f"trace={int(traced)} host: cpu_count={host['cpu_count']} "
        f"python={host['python']} git={host['git_sha']}"
    )

    rounds, traced_rounds = [], []
    totals = trace.SpanTotals()
    kernel = None if traced else reference.Reference(max(2, reference.CHUNKS // shrink))
    measured = 0.0
    try:
        # One small discarded round first: lazy imports and tables in
        # the program and the interpreter's own specialisation are paid
        # once per process, not by whichever round happens to run first.
        run_round(workload_cls, seed, SMOKE_SHRINK)
        while len(rounds) < MAX_ROUNDS and (
            measured < seconds
            or len(rounds) % round_seeds  # every round seed the same number of times
            or (not traced and len(rounds) < MIN_ROUNDS)
        ):
            round_seed = seed * round_seeds + len(rounds) % round_seeds
            if kernel is not None:
                kernel.time_segment()
            plain = run_round(workload_cls, round_seed, shrink)
            rounds.append(plain)
            measured += plain["wall_s"]
            line = (
                f"round {len(rounds) - 1} (seed {round_seed}): setup {plain['setup_s']:.3f} s, "
                f"{plain['ops']} ops and {plain['blocks']} blocks in {plain['wall_s']:.3f} s"
            )
            if traced:
                tracer = trace.Tracer()
                twin = run_round(workload_cls, round_seed, shrink, tracer)
                if not traced_rounds:
                    OUT.mkdir(exist_ok=True)
                    path = OUT / f"trace_{name}.json"
                    written = trace.write_chrome_trace(tracer, path)
                    print(f"trace: first {written} spans of round 0 in {path.relative_to(ROOT)}")
                totals.add(tracer)
                twin["keccak_calls"] = tracer.keccak_calls[0]
                traced_rounds.append(twin)
                measured += twin["wall_s"]
                line += f"; traced {twin['wall_s']:.3f} s, {len(tracer.span_name)} spans"
            print(line)
        undisturbed(rounds + traced_rounds)  # a traced twin must do the same work, too
        folded = undisturbed(rounds)
    except workloads.OracleFailure as failure:
        print(f"INCORRECT {name}: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if traced:
        metrics = trace.layer_metrics(
            totals,
            ops=sum(r["ops"] for r in traced_rounds),
            untraced_wall=sum(r["wall_s"] for r in rounds),
        )
        samples = f"{len(traced_rounds)} traced rounds, {sum(totals.count.values())} spans"
    else:
        slowdown = kernel.host_slowdown()
        imports = [import_s] + [import_seconds() for _probe in range(IMPORT_PROBES)]
        metrics = end_to_end_metrics(rounds, folded, imports, slowdown)
        passes = len(rounds) / round_seeds
        samples = (
            f"{len(rounds)} rounds, {len(folded['intervals'])} loaded block intervals; "
            f"phases {sum(r['wall_s'] for r in rounds) / passes / folded['wall_s'] - 1:.1%} "
            f"longer than their fold, host slowdown {slowdown:.3f}"
        )
    for metric, (value, unit) in metrics.items():
        print(f"{label}{name:16s} {metric:38s} {value:16.6f} {unit}")
    print(
        f"{label}{name:16s} {'failed_share':38s} {failed / attempted:16.6f} share"
        f"   ({failed} of {attempted} ops; {samples})"
    )

    for measured_round in rounds + traced_rounds:
        for key in SLICE_KEYS:
            del measured_round[key]
    detail = {
        "schema_version": SCHEMA_VERSION,
        "workload": name,
        "seed": seed,
        "scale": scale,
        "baseline_eligible": scale == "full",
        "seconds": seconds,
        "trace": int(traced),
        "host": host,
        "failed_share": failed / attempted,
        "host_slowdown": None if traced else slowdown,
        "rounds": rounds,
        "traced_rounds": traced_rounds,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------
# The whole suite, one fresh interpreter per workload and pass
# ---------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, traced: bool, scale: str):
    """Run one workload in a fresh interpreter; returns ``(exit code,
    result object, detail object)`` and echoes the child's report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--scale", scale,
    ]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    result = detail = None
    if len(lines) >= 2 and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        if lines[-2].startswith('{"detail"'):
            detail = json.loads(lines[-2])["detail"]
            lines = lines[:-2]
    print("\n".join(lines))
    return child.returncode, result, detail


def run_suite(names, seed: int, seconds: float, traced: bool, scale: str):
    """Every named workload, untraced; then, if asked, traced.  Returns
    ``(all correct, record)``; the record is the one output schema."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "baseline_eligible": scale == "full",
        "seed": seed,
        "seconds": seconds,
        "host": host_line(),
        "workloads": {},
    }
    ok = True
    for with_trace in (False, True) if traced else (False,):
        for name in names:
            code, result, detail = run_child(name, seed, seconds, with_trace, scale)
            ok = ok and code == 0 and result is not None and result["correct"]
            entry = record["workloads"].setdefault(name, {})
            if result is not None:
                entry["per_layer" if with_trace else "end_to_end"] = result["metrics"]
                entry.setdefault("attempted", result["attempted"])
                entry.setdefault("failed", result["failed"])
            if detail is not None:
                entry["traced_detail" if with_trace else "detail"] = detail
    return ok, record


def print_summary(record: dict) -> None:
    label = "SMOKE (not a baseline) " if record["scale"] == "smoke" else ""
    host = record["host"]
    print(
        f"\n{label}summary — seed {record['seed']}, host cpu_count={host['cpu_count']} "
        f"python={host['python']} git={host['git_sha']}"
    )
    for kind in ("end_to_end", "per_layer"):
        names = [n for n, e in record["workloads"].items() if kind in e]
        if not names:
            continue
        metrics = list(record["workloads"][names[0]][kind])
        print(f"{'metric':38s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
        for metric in metrics:
            cells = [record["workloads"][n][kind][metric] for n in names]
            print(
                f"{metric:38s} {cells[0]['unit']:6s}"
                + "".join(f"{cell['value']:18.4f}" for cell in cells)
            )
        if kind == "end_to_end":
            print(
                f"{'failed_share':38s} {'share':6s}"
                + "".join(
                    f"{e['failed'] / e['attempted']:18.4f}"
                    for e in (record["workloads"][n] for n in names)
                )
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced pass, which yields the per-layer metrics",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help=f"smoke divides every count and --seconds by {SMOKE_SHRINK}; never a baseline",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = DEFAULT_SECONDS / (SMOKE_SHRINK if args.scale == "smoke" else 1)
    if seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload:
        sys.path[:0] = [str(SRC), str(HERE)]
        return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)

    ok, record = run_suite(WORKLOAD_NAMES, args.seed, seconds, bool(args.trace), args.scale)
    print_summary(record)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"perf_{args.scale}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
