"""LAGraph k-truss: round-based support filtering.

Each round computes per-edge support with a masked SpGEMM and drops edges
below ``k-2`` — a pure Jacobi iteration: removals only become visible at the
next round's multiply.  The paper measures that this costs ~1.6x more rounds
than Lonestar's version, where removals are immediately visible
(Gauss-Seidel), and that the intermediate support matrix ``C`` is
materialized every round (§V-B "ktruss").

The modeled events are those of that full recompute: every round emits the
masked ``mxm`` (and its transpose build) that LAGraph runs.  The wall-clock
path is incremental: from round 2 on,
:func:`repro.graphblas.operations.mxm_support_update` derives the new
supports from the previous round's by subtracting the triangles the
dropped edges destroyed, and emits the identical event.
"""

from __future__ import annotations

import repro.graphblas as gb
from repro.graphblas.descriptor import REPLACE_STRUCT
from repro.graphblas.operations import mxm_support_update
from repro.graphblas.ops import PLUS_PAIR


def ktruss(backend, A: gb.Matrix, k: int, max_rounds: int = 1000):
    """The k-truss of undirected ``A``.

    Returns ``(S, rounds)`` where ``S`` is a Matrix whose pattern is the
    truss's edge set and whose values are the per-edge triangle supports.
    ``A`` must be symmetric with no self-loops.
    """
    n = A.nrows
    # Working copy: the candidate edge set, shrinking every round.
    S = A.dup(label="ktruss:S")
    C = gb.Matrix(backend, gb.INT64, n, n, label="ktruss:C")
    support_needed = k - 2

    rounds = 0
    last_nvals = S.nvals
    prev = None
    while rounds < max_rounds:
        rounds += 1
        backend.runtime.round()
        # Support: C<S> = S*S' counts, for each surviving edge (u,v), the
        # common neighbors of u and v inside the candidate set.  S is
        # symmetric so S*S' == S*S; the dot form uses the mask's pattern.
        # Later rounds update the previous supports with the same event.
        if prev is None:
            gb.mxm(C, S, S, PLUS_PAIR, mask=S, desc=REPLACE_STRUCT)
        else:
            mxm_support_update(C, S, prev)
        prev = C.csr
        # Keep edges whose support reaches k-2 (select materializes the new
        # candidate matrix — the per-round allocation Table III reflects).
        gb.select(C, "ge", C, support_needed)
        new_nvals = C.nvals
        if new_nvals == last_nvals:
            break
        last_nvals = new_nvals
        S.replace_csr(C.csr.copy())
    S.replace_csr(C.csr.copy())
    return S, rounds
