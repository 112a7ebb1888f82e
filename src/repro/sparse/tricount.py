"""Set-intersection kernels for triangle counting and truss support.

These back both stacks' triangle work, but with different *materialization*
behaviour, which is the paper's limitation #2:

* Lonestar counts triangles by accumulating a scalar inside the search loop
  (:func:`count_triangles_lower`) — no output matrix;
* the GraphBLAS SandiaDot path (``spgemm_masked_dot`` in
  :mod:`repro.sparse.spgemm`) materializes the per-edge counts into C and
  reduces it afterwards.

:func:`edge_supports` computes per-edge common-neighbor counts restricted
to a set of rows and an aliveness filter, which is what the Gauss-Seidel
Lonestar ktruss needs for its initial pass.  :func:`destroyed_triangle_edges`
is the incremental companion both ktruss drivers use afterwards: given the
edges deleted in one round or wave, it finds the triangles they destroy
and reports the surviving edges whose support drops.

Every kernel is one call into the batched merge-join engine
(:mod:`repro.sparse.join`) — no per-row Python loop.  The two counting
kernels report the same work/row_work counts the per-row loops they
replaced did, so the machine model sees identical numbers; the ktruss
drivers derive their modeled counts from structure, never from
:func:`destroyed_triangle_edges`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix, expand_ranges
from repro.sparse.join import masked_row_join, row_pair_join
from repro.sparse.segreduce import segment_reduce


def count_triangles_lower(L: CSRMatrix, check_order: bool = True):
    """Triangles via ordered listing on a lower-triangular pattern.

    For every edge (i, j) in ``L`` (j < i), counts ``|L[i] ∩ L[j]|``.
    Returns ``(ntri, work, row_work)`` where ``work`` counts merge
    comparisons and ``row_work[i]`` is row i's share (the load-balance
    weights of the counting loop).  With ``check_order`` the per-edge
    ordering test (u > v > w) is included in the caller's instruction
    accounting — Lonestar performs it at runtime where gb-ll's
    preprocessing removed the need (§V-B "tc").
    """
    # One batched join, one pair per edge (i, j): intersect row i with
    # row j.  cand[k] is the gathered length of row j, so row-summing it
    # reproduces the per-row loop's `len(cat)` work shares exactly.
    res = masked_row_join(L, L, L)
    row_work = segment_reduce(res.cand, None, L.nrows, "plus",
                              dtype=np.int64, row_splits=L.indptr)
    return int(res.hits.sum()), res.work, row_work


def edge_supports(
    csr: CSRMatrix,
    alive: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Common-neighbor count per (alive) edge of the given rows.

    ``alive`` is a boolean over csr entries; dead entries neither receive a
    support value nor participate as wedges.  Returns
    ``(supports, work, row_work)`` where ``supports`` is aligned with csr
    entries (0 where dead or not in ``rows``) and ``row_work`` aligns with
    ``rows``.
    """
    supports = np.zeros(csr.nvals, dtype=np.int64)
    row_arr = (np.arange(csr.nrows, dtype=np.int64) if rows is None
               else np.asarray(rows, dtype=np.int64))
    row_work = np.zeros(len(row_arr), dtype=np.int64)
    # One pair per live entry (i, nbr) of the requested rows: intersect
    # row i's live adjacency with row nbr's (both sides filtered by
    # ``alive``, like the per-row loop's pre- and post-gather filters).
    starts = csr.indptr[row_arr]
    stops = csr.indptr[row_arr + 1]
    entry_pos = expand_ranges(starts, stops)
    if len(entry_pos) == 0:
        return supports, 0, row_work
    pair_row = np.repeat(np.arange(len(row_arr), dtype=np.int64),
                         stops - starts)
    live = alive[entry_pos]
    entry_pos = entry_pos[live]
    pair_row = pair_row[live]
    if len(entry_pos) == 0:
        return supports, 0, row_work
    res = row_pair_join(csr, row_arr[pair_row],
                        csr, csr.indices[entry_pos].astype(np.int64),
                        a_keep=alive, b_keep=alive)
    supports[entry_pos] = res.hits
    row_work = segment_reduce(res.cand, pair_row, len(row_arr), "plus",
                              dtype=np.int64, sorted_ids=True)
    return supports, res.work, row_work


def destroyed_triangle_edges(
    csr: CSRMatrix,
    removed: np.ndarray,
    twin: np.ndarray,
    alive: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Surviving edges of the triangles a batch of edge deletions destroys.

    ``csr`` is a symmetric pattern, ``removed`` the sorted canonical
    (row < col) entry positions of the edges deleted together in one round
    or wave, ``twin`` its :func:`twin_positions`, and ``alive`` the entry
    aliveness *before* the deletion (None: every entry).

    A triangle whose three edges were alive is destroyed when at least one
    of them is deleted.  It belongs to its lowest-position deleted edge, so
    it is reported once however many of its edges go.  This is exactly the
    order an in-order sequential wave with immediately visible deletions
    enumerates triangles in: the first of a triangle's deleted edges finds
    it intact and every later one finds it broken.

    Returns, for every destroyed triangle, the entry positions of its edges
    that survive the deletion (zero to two per triangle).  A deleted edge
    (u, v) reports the survivor (u, w) from row u and (v, w) from row v;
    callers reach the reverse orientation through ``twin``.
    """
    removed = np.asarray(removed, dtype=np.int64)
    if len(removed) == 0:
        return np.empty(0, dtype=np.int64)
    # One pair per deleted edge (u, v): the common live neighbors w of u
    # and v close the triangles (u, v, w) the deletion destroys.
    res = row_pair_join(csr, csr.row_ids()[removed],
                        csr, csr.indices[removed].astype(np.int64),
                        a_keep=alive, b_keep=alive)
    # owner[q]: the canonical position of q's edge if it is deleted, else
    # nvals, which is above every deleted position.
    none = csr.nvals
    owner = np.full(csr.nvals, none, dtype=np.int64)
    owner[removed] = removed
    owner[twin[removed]] = removed
    p = removed[res.out_seg]
    own_a = owner[res.a_pos]
    own_b = owner[res.b_pos]
    first = (own_a > p) & (own_b > p)
    return np.concatenate((res.a_pos[first & (own_a == none)],
                           res.b_pos[first & (own_b == none)]))


def twin_positions(csr: CSRMatrix) -> np.ndarray:
    """For a symmetric pattern, the entry position of each entry's reverse.

    ``twin[p]`` is the index of (col, row) given entry ``p`` = (row, col);
    used to remove both orientations of an undirected edge together.
    """
    if csr.nvals == 0:
        return np.empty(0, dtype=np.int64)
    rows = csr.row_ids()
    cols = csr.indices.astype(np.int64)
    # CSR entries are sorted by (row, col), so the flattened keys are sorted
    # ascending and each reversed key can be located with one binary search.
    keys = rows * csr.ncols + cols
    rev = cols * csr.ncols + rows
    twin = np.searchsorted(keys, rev)
    if twin.max(initial=0) >= csr.nvals or not np.array_equal(keys[twin], rev):
        raise ValueError("matrix is not structurally symmetric")
    return twin
