"""Metric definitions and percentiles.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root; :func:`load_spec` reads and validates them so every
metric the benchmark prints is declared in exactly one place.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, Optional, Sequence

#: A metric or workload name: letters, digits, ``_``, ``.`` and ``-``,
#: starting with a letter or digit, at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A unit such as ``s``, ``1/s``, ``MB`` or ``count``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it says more about one sample than the tail.
MIN_BEYOND = 10

#: Percentiles considered for the "highest reportable percentile" rule.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def check_name(name: str) -> str:
    """Return ``name`` or raise ValueError when it is not a valid name."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(
            f"invalid name {name!r}: want 1-64 of letters, digits, '_', "
            "'.', '-', starting with a letter or digit")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` or raise ValueError when it is not a valid unit."""
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def load_spec(path) -> dict:
    """Read ``BENCHMARK.json``: ``{"workloads", "end_to_end", "per_layer",
    "run_seconds"}`` with each metric list mapped ``name -> unit``.

    Raises ValueError on a malformed name or unit, or a name used twice.
    """
    with open(path) as f:
        raw = json.load(f)
    seen = set()
    spec = {"run_seconds": int(raw["run_seconds"]), "workloads": []}
    for entry in raw["workloads"]:
        spec["workloads"].append(check_name(entry["name"]))
    for group in ("end_to_end", "per_layer"):
        spec[group] = {}
        for entry in raw[group]:
            name = check_name(entry["name"])
            if name in seen:
                raise ValueError(f"metric name {name!r} is used twice")
            seen.add(name)
            spec[group][name] = check_unit(entry["unit"])
    return spec


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th
    percentile's rank."""
    return n - math.ceil(n * q / 100.0)


def highest_percentile(n: int,
                       candidates: Iterable[float] = PERCENTILES
                       ) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or None when even the median has fewer."""
    best = None
    for q in sorted(candidates):
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def tail_ok(n: int, q: float) -> bool:
    """Whether ``n`` samples are enough to report the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def result_line(attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    """The final stdout line: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (every declared metric, with its unit)."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metrics do not match BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"non-finite metric value(s): {bad}")
    payload = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    return json.dumps(payload)
