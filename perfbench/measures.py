"""The benchmark's own arithmetic, kept apart so its tests can check it."""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def tail_percentile(n: int) -> int:
    """Highest whole percentile in [50, 99] with at least ten of ``n``
    samples beyond it: p98 for 552 samples, p99 from 1000."""
    q = 100 - -(-MIN_BEYOND * 100 // n)  # 100 - ceil(1000 / n)
    if q < 50:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return min(q, 99)


def tail(values) -> tuple[int, float]:
    """``(percentile, value)`` at the tail percentile of ``values``."""
    q = tail_percentile(len(values))
    return q, float(np.percentile(values, q))


def deadline_misses(step_seconds, delta: float) -> int:
    """Steps that took longer than the control period; exactly ``delta``
    still meets it."""
    return int(sum(1 for t in step_seconds if t > delta))


def log_digest(csv_text: str, ignore: str = "solve_time_ms") -> str:
    """SHA-256 of a ``log.csv`` with the ``ignore`` column blanked, so two
    flights that differ only in wall-clock timing give the same digest."""
    rows = csv.reader(io.StringIO(csv_text))
    header = next(rows)
    col = header.index(ignore)
    h = hashlib.sha256()
    for row in [header, *rows]:
        row[col] = ""
        h.update(",".join(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))
