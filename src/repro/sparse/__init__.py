"""Shared sparse-matrix storage and kernels.

Both GraphBLAS backends (:mod:`repro.suitesparse`, :mod:`repro.galoisblas`)
and the graph API (:mod:`repro.galois`) store topology in the CSR structures
defined here.  The kernels are vectorized with numpy for execution speed;
performance *accounting* (instructions, access streams, scheduling) is done
by the callers through the machine model, never inferred from wall clock.

Scatter/gather reductions all route through :mod:`repro.sparse.segreduce`,
the fast-path engine that picks the best numpy plan per monoid/dtype;
sorted-row intersections route through :mod:`repro.sparse.join`, its
merge-join counterpart.

Out-of-core storage lives in :mod:`repro.sparse.blocked`: a
:class:`~repro.sparse.blocked.BlockedCSR` partitions a matrix into
row-range shards (each one a local :class:`~repro.sparse.csr.CSRMatrix`
with its own plan-cache slots), and the SpMV/SpGEMM kernels accept it
directly, iterating shard-by-shard with bit-identical results.
"""

from repro.sparse.blocked import BlockedCSR, CSRShard, row_slice, shard_bounds
from repro.sparse.csr import CSRMatrix, build_csr, expand_ranges, gather_rows
from repro.sparse.join import (
    JoinResult,
    dedup_bounded,
    masked_row_join,
    row_pair_join,
)
from repro.sparse.segreduce import (
    coo_group_reduce,
    group_reduce,
    identity_for,
    scatter_reduce,
    segment_reduce,
)
from repro.sparse.semiring_ops import (
    BinaryFn,
    MonoidFn,
    SegmentReducer,
)

__all__ = [
    "BinaryFn",
    "BlockedCSR",
    "CSRMatrix",
    "CSRShard",
    "JoinResult",
    "MonoidFn",
    "SegmentReducer",
    "build_csr",
    "coo_group_reduce",
    "dedup_bounded",
    "expand_ranges",
    "gather_rows",
    "group_reduce",
    "identity_for",
    "masked_row_join",
    "row_pair_join",
    "row_slice",
    "scatter_reduce",
    "segment_reduce",
    "shard_bounds",
]
