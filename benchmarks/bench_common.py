"""Shared utilities for the figure-reproduction benchmarks.

Every benchmark prints the same rows/series the paper's figure reports
and also writes them to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture.  Set ``REPRO_BENCH_SCALE=full`` for
paper-scale populations (slower); the default ``small`` keeps each
benchmark in the tens of seconds while preserving every trend.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def full_scale() -> bool:
    return SCALE == "full"


def emit(name: str, text: str) -> None:
    """Print a figure's output and persist it under results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned text table (floats to two decimals)."""
    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def once(benchmark, fn):
    """Run a heavy simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
