"""The correctness check: every row must equal the committed one.

``benchmarks/results/cells.json`` holds the committed Table II grid.  A
cell or job row (``cell_to_row`` form) is compared with the committed
row as canonical JSON (one JSON round trip, sorted keys), so a single
perturbed counter, answer or status is a mismatch.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

Key = Tuple[str, str, str]


def _plain(obj):
    """numpy scalars in counters serialize as plain numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical(row: dict) -> str:
    """The row's canonical JSON text (int dict keys become strings, as
    they do in the committed file)."""
    return json.dumps(json.loads(json.dumps(row, default=_plain)),
                      sort_keys=True)


class Oracle:
    """The committed rows, keyed by ``(system, app, graph)``."""

    def __init__(self, rows):
        self.rows: Dict[Key, dict] = {
            (r["system"], r["app"], r["graph"]): r for r in rows}
        self._canonical = {k: canonical(r) for k, r in self.rows.items()}

    @classmethod
    def load(cls, path) -> "Oracle":
        with open(path) as f:
            return cls(json.load(f)["cells"])

    def wants_sweep(self, key: Key) -> bool:
        """Run the Figure 2 thread sweep exactly where the committed row
        carries one."""
        return bool(self.rows[key].get("thread_sweep"))

    def mismatch(self, row: dict) -> Optional[str]:
        """None when ``row`` equals its committed row, else a short reason
        naming the first differing field."""
        key = (row.get("system"), row.get("app"), row.get("graph"))
        if key not in self._canonical:
            return f"no committed row for {key}"
        if canonical(row) == self._canonical[key]:
            return None
        ours = json.loads(canonical(row))
        theirs = json.loads(self._canonical[key])
        for field in sorted(set(ours) | set(theirs)):
            if ours.get(field) != theirs.get(field):
                return f"{'/'.join(key)}: field {field!r} differs"
        return f"{'/'.join(key)}: rows differ"
