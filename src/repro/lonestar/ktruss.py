"""Lonestar k-truss: decremental supports, immediately-visible removals.

Both ktruss implementations remove under-supported edges until fixpoint, and
the k-truss is confluent (the fixpoint is independent of removal order), so
Lonestar and LAGraph compute identical trusses.  What differs — and what the
paper measures (§V-B "ktruss") — is the work per removal wave:

* LAGraph re-derives the support of **every** surviving edge each round with
  a full masked SpGEMM, materializing the support matrix C every time, and a
  removal only becomes visible at the next round's multiply (Jacobi);
* Lonestar computes supports **once**, then processes removals off a
  worklist: deleting edge (u, v) enumerates the triangles it participated in
  and *decrements* the supports of the other two edges of each — work
  proportional to the triangles destroyed, not to the surviving graph — and
  a removal is immediately visible to every other thread (Gauss-Seidel),
  which shortens the cascade (the paper's 1.6x round measurement).

The model charges that per-edge cascade; the wall-clock path runs each wave
as one batched :func:`~repro.sparse.tricount.destroyed_triangle_edges`
join, whose ownership rule enumerates triangles exactly as the in-order
sequential wave does.
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import OpEvent
from repro.galois.graph import Graph
from repro.galois.loops import DEFAULT_TILE
from repro.sparse.join import dedup_bounded
from repro.sparse.tricount import (
    destroyed_triangle_edges,
    edge_supports,
    twin_positions,
)


def ktruss(graph: Graph, k: int, max_rounds: int = 100000):
    """The k-truss of the undirected graph (``graph`` = symmetric view).

    Returns ``(alive, rounds)`` where ``alive`` marks surviving CSR entries
    and ``rounds`` counts removal waves after the initial support pass.
    """
    rt = graph.runtime
    csr = graph.csr
    needed = k - 2
    entry_rows = csr.row_ids()

    alive = np.ones(csr.nvals, dtype=bool)
    rt.charge_alloc(alive.nbytes, "ktruss:alive")
    twin = twin_positions(csr)
    rt.charge_alloc(twin.nbytes, "ktruss:twin")

    # Initial supports: one full intersection pass (one fused do_all).
    supports, work, row_work = edge_supports(csr, alive)
    rt.charge_alloc(supports.nbytes, "ktruss:supports")
    rt.do_all(
        OpEvent(kind="do_all", label="ktruss_supports", items=csr.nrows),
        instr_per_item=2.0,
        extra_instr=work * 3,
        streams=[rt.strided(csr.nbytes, work),
                 rt.seq(supports.nbytes, csr.nvals, elem_bytes=8)],
        weights=row_work + 1,
        tile_edges=DEFAULT_TILE,
    )

    # Removal cascade: a worklist of doomed canonical entry positions (the
    # lower position of each edge's two orientations).
    doomed = np.flatnonzero(alive & (supports < needed))
    doomed = dedup_bounded(np.minimum(doomed, twin[doomed]), csr.nvals)
    degrees = csr.row_degrees()
    rounds = 0
    while len(doomed) and rounds < max_rounds:
        rounds += 1
        rt.round()
        # The wave removes its edges in position order with each removal
        # immediately visible (Gauss-Seidel), so a triangle shared by two
        # doomed edges is destroyed once, by the lower one; the kernel's
        # ownership rule reproduces that order in one batched join.
        survivors = destroyed_triangle_edges(csr, doomed, twin, alive)
        alive[doomed] = False
        alive[twin[doomed]] = False
        # Each removal intersects the full row of its lower endpoint.
        wave_work = int(degrees[entry_rows[doomed]].sum())
        # One asynchronous wave: no global barrier between removals.
        rt.for_each(
            OpEvent(kind="for_each", label="ktruss_wave",
                    items=len(doomed)),
            instr_per_item=4.0,
            extra_instr=wave_work * 3,
            streams=[rt.strided(csr.nbytes, wave_work),
                     rt.rand(supports.nbytes, wave_work, elem_bytes=8)],
        )
        # Decrement both orientations once per destroyed triangle; edges
        # that fall below k-2 form the next wave.
        hit, dec = np.unique(np.minimum(survivors, twin[survivors]),
                             return_counts=True)
        supports[hit] -= dec
        supports[twin[hit]] -= dec
        doomed = hit[supports[hit] < needed]
    return alive, rounds
