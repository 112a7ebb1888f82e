"""Incremental ktruss supports against the full computations they replace.

Both ktruss drivers keep their supports up to date with
:func:`repro.sparse.tricount.destroyed_triangle_edges` instead of
recomputing them (LAGraph) or walking the removed edges one by one
(Lonestar).  The modeled trace must not notice: for every graph and k the
drivers must return the same truss, the same round count and the same
OpEvent stream as verbatim copies of the loops they replaced, kept here
as references.  ``networkx.k_truss`` is the independent oracle for the
edge count, and the committed study rows pin three graphs end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.core import experiments
from repro.engine.events import OpEvent
from repro.errors import InvalidValue
from repro.galois.graph import Graph
from repro.galois.loops import DEFAULT_TILE
from repro.galoisblas import GaloisBLASBackend
from repro.graphblas.descriptor import REPLACE_STRUCT
from repro.graphblas.operations import mxm_support_update
from repro.graphblas.ops import PLUS_PAIR
from repro.graphs.transform import symmetrize
from repro.lagraph import ktruss as lagraph_ktruss
from repro.lonestar import ktruss as lonestar_ktruss
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse import parallel
from repro.sparse.csr import build_csr
from repro.sparse.join import dedup_bounded
from repro.sparse.tricount import (
    destroyed_triangle_edges,
    edge_supports,
    twin_positions,
)
from repro.suitesparse import SuiteSparseBackend

from tests.conftest import pattern_matrix

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

KS = range(3, 8)

CELLS = (Path(__file__).resolve().parent.parent
         / "benchmarks" / "results" / "cells.json")


# ----------------------------------------------------------------------
# References: the replaced loops, verbatim
# ----------------------------------------------------------------------

def reference_lagraph_ktruss(backend, A, k, max_rounds=1000):
    """LAGraph ktruss recomputing every support with a masked SpGEMM."""
    n = A.nrows
    S = A.dup(label="ktruss:S")
    C = gb.Matrix(backend, gb.INT64, n, n, label="ktruss:C")
    support_needed = k - 2

    rounds = 0
    last_nvals = S.nvals
    while rounds < max_rounds:
        rounds += 1
        backend.runtime.round()
        gb.mxm(C, S, S, PLUS_PAIR, mask=S, desc=REPLACE_STRUCT)
        gb.select(C, "ge", C, support_needed)
        new_nvals = C.nvals
        if new_nvals == last_nvals:
            break
        last_nvals = new_nvals
        S.replace_csr(C.csr.copy())
    S.replace_csr(C.csr.copy())
    return S, rounds


def join_sorted(a, b):
    """Positions of the common elements of two sorted arrays."""
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(b, a)
    pos = np.minimum(pos, len(b) - 1)
    matched = b[pos] == a
    return np.flatnonzero(matched), pos[matched]


def reference_lonestar_ktruss(graph, k, max_rounds=100000):
    """Lonestar ktruss with the per-edge sequential removal cascade."""
    rt = graph.runtime
    csr = graph.csr
    needed = k - 2
    indptr, indices = csr.indptr, csr.indices
    entry_rows = csr.row_ids()

    alive = np.ones(csr.nvals, dtype=bool)
    rt.charge_alloc(alive.nbytes, "ktruss:alive")
    twin = twin_positions(csr)
    rt.charge_alloc(twin.nbytes, "ktruss:twin")

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

    doomed = np.flatnonzero(alive & (supports < needed))
    doomed = dedup_bounded(np.minimum(doomed, twin[doomed]), csr.nvals)
    rounds = 0
    while len(doomed) and rounds < max_rounds:
        rounds += 1
        rt.round()
        wave_work = 0
        freshly_doomed = []
        for p in doomed:
            if not alive[p]:
                continue
            alive[p] = False
            alive[twin[p]] = False
            u = int(entry_rows[p])
            v = int(indices[p])
            lo_u, hi_u = indptr[u], indptr[u + 1]
            lo_v, hi_v = indptr[v], indptr[v + 1]
            row_u = indices[lo_u:hi_u]
            row_v = indices[lo_v:hi_v]
            live_u = alive[lo_u:hi_u]
            u_idx, v_idx = join_sorted(row_u, row_v)
            wave_work += len(row_u)
            live_common = live_u[u_idx] & alive[lo_v + v_idx]
            if not live_common.any():
                continue
            p_uw = lo_u + u_idx[live_common]
            p_vw = lo_v + v_idx[live_common]
            for q in np.concatenate([p_uw, p_vw]):
                supports[q] -= 1
                supports[twin[q]] -= 1
                if alive[q] and supports[q] < needed:
                    freshly_doomed.append(min(int(q), int(twin[q])))
        rt.for_each(
            OpEvent(kind="for_each", label="ktruss_wave",
                    items=len(doomed)),
            instr_per_item=4.0,
            extra_instr=wave_work * 3,
            streams=[rt.strided(csr.nbytes, wave_work),
                     rt.rand(supports.nbytes, wave_work, elem_bytes=8)],
        )
        if freshly_doomed:
            doomed = dedup_bounded(
                np.asarray(freshly_doomed, dtype=np.int64), csr.nvals)
            doomed = doomed[alive[doomed]]
        else:
            doomed = np.empty(0, dtype=np.int64)
    return alive, rounds


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------

def sym_graph(n, edges):
    """The symmetric pattern CSR of an undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keep = edges[:, 0] != edges[:, 1]
    csr = build_csr(n, n, edges[keep, 0], edges[keep, 1], None,
                    dedup="last")
    sym, _ = symmetrize(csr)
    return sym


def clique(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


ADVERSARIAL = {
    "empty": sym_graph(6, []),
    "single_edge": sym_graph(2, [(0, 1)]),
    "one_triangle": sym_graph(3, clique([0, 1, 2])),
    "k8": sym_graph(8, clique(list(range(8)))),
    "star": sym_graph(9, [(0, v) for v in range(1, 9)]),
    "cliques_sharing_vertex": sym_graph(
        9, clique([0, 1, 2, 3, 4]) + clique([4, 5, 6, 7, 8])),
    "many_components": sym_graph(
        30, clique([0, 1, 2]) + clique([3, 4, 5, 6])
        + clique([7, 8, 9, 10, 11]) + [(12, 13), (14, 15), (15, 16)]
        + clique([20, 21, 22, 23, 24, 25])),
    # Edges (0,2) and (1,2) have support 1 and go in the same round or
    # wave; (0,1) sits in a K_5 and loses their triangle exactly once.
    "triangle_loses_two": sym_graph(
        6, clique([0, 1, 3, 4, 5]) + [(0, 2), (1, 2)]),
    # A triangle hanging off a K_4 by one vertex: all three of its
    # edges fall together once k exceeds 3.
    "triangle_loses_three": sym_graph(
        6, clique([0, 1, 2, 3]) + clique([3, 4, 5])),
}


@st.composite
def random_sym_graph(draw, max_n=20, max_m=70):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ends), draw(ends)
    return sym_graph(n, list(zip(src, dst)))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_lagraph(fn, backend_cls, sym, k):
    backend = backend_cls(Machine())
    S, rounds = fn(backend, pattern_matrix(backend, sym), k)
    return S.csr, rounds, backend.machine.context.events


def run_lonestar(fn, sym, k):
    machine = Machine()
    alive, rounds = fn(Graph(GaloisRuntime(machine), sym), k)
    return alive, rounds, machine.context.events


def assert_lagraph_equivalent(backend_cls, sym, k):
    got, rounds, events = run_lagraph(lagraph_ktruss, backend_cls, sym, k)
    want, want_rounds, want_events = run_lagraph(
        reference_lagraph_ktruss, backend_cls, sym, k)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)
    assert rounds == want_rounds
    assert events == want_events
    return got.nvals


def assert_lonestar_equivalent(sym, k):
    alive, rounds, events = run_lonestar(lonestar_ktruss, sym, k)
    want, want_rounds, want_events = run_lonestar(
        reference_lonestar_ktruss, sym, k)
    assert np.array_equal(alive, want)
    assert rounds == want_rounds
    assert events == want_events
    return int(alive.sum())


def networkx_truss_edges(sym, k):
    G = nx.Graph()
    G.add_nodes_from(range(sym.nrows))
    rows = sym.row_ids()
    G.add_edges_from(zip(rows.tolist(), sym.indices.tolist()))
    return nx.k_truss(G, k).number_of_edges()


def assert_all_stacks(sym, k):
    oracle = 2 * networkx_truss_edges(sym, k)
    assert assert_lagraph_equivalent(SuiteSparseBackend, sym, k) == oracle
    assert assert_lagraph_equivalent(GaloisBLASBackend, sym, k) == oracle
    assert assert_lonestar_equivalent(sym, k) == oracle


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

class TestEquivalence:
    @SETTINGS
    @given(random_sym_graph(), st.integers(3, 7))
    def test_random_graphs(self, sym, k):
        assert_all_stacks(sym, k)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_graphs(self, name, k):
        assert_all_stacks(ADVERSARIAL[name], k)

    @pytest.mark.parametrize("k", [4, 6])
    def test_denser_random_graph(self, k):
        rng = np.random.default_rng(12)
        n, m = 60, 700
        sym = sym_graph(n, np.stack([rng.integers(0, n, m),
                                     rng.integers(0, n, m)], axis=1))
        assert_all_stacks(sym, k)

    def test_under_kernel_threads_and_small_shards(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, m = 40, 300
        sym = sym_graph(n, np.stack([rng.integers(0, n, m),
                                     rng.integers(0, n, m)], axis=1))
        want = {k: (run_lagraph(reference_lagraph_ktruss,
                                SuiteSparseBackend, sym, k)[2],
                    run_lonestar(reference_lonestar_ktruss, sym, k)[2])
                for k in (3, 5)}
        monkeypatch.setenv("REPRO_SHARD_ROWS", "8")
        previous = parallel.set_kernel_threads(4)
        try:
            for k, (la_events, ls_events) in want.items():
                assert run_lagraph(lagraph_ktruss, SuiteSparseBackend,
                                   sym, k)[2] == la_events
                assert run_lonestar(lonestar_ktruss, sym, k)[2] == ls_events
                assert_all_stacks(sym, k)
        finally:
            parallel.set_kernel_threads(previous)


class TestDestroyedTriangleEdges:
    def test_owner_is_lowest_removed_edge(self):
        # Triangle (0, 1, 2) with (0, 1) and (0, 2) removed together: the
        # survivor (1, 2) is reported once, by the lower edge (0, 1).
        sym = sym_graph(3, clique([0, 1, 2]))
        keys = list(zip(sym.row_ids().tolist(), sym.indices.tolist()))
        removed = np.array([keys.index((0, 1)), keys.index((0, 2))])
        got = destroyed_triangle_edges(sym, removed, twin_positions(sym))
        assert len(got) == 1
        assert keys[got[0]] in ((1, 2), (2, 1))

    def test_dead_edges_close_no_triangle(self):
        sym = sym_graph(3, clique([0, 1, 2]))
        keys = list(zip(sym.row_ids().tolist(), sym.indices.tolist()))
        alive = np.ones(sym.nvals, dtype=bool)
        alive[[keys.index((1, 2)), keys.index((2, 1))]] = False
        removed = np.array([keys.index((0, 1))])
        twin = twin_positions(sym)
        assert len(destroyed_triangle_edges(sym, removed, twin, alive)) == 0

    def test_nothing_removed(self):
        sym = sym_graph(4, clique([0, 1, 2, 3]))
        got = destroyed_triangle_edges(sym, np.empty(0, dtype=np.int64),
                                       twin_positions(sym))
        assert got.dtype == np.int64 and len(got) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sequential_cascade(self, seed):
        # Removing a random edge set one edge at a time in position order
        # decrements each surviving edge once per destroyed triangle.
        rng = np.random.default_rng(seed)
        n, m = 25, 160
        sym = sym_graph(n, np.stack([rng.integers(0, n, m),
                                     rng.integers(0, n, m)], axis=1))
        twin = twin_positions(sym)
        canon = np.flatnonzero(sym.indices > sym.row_ids())
        removed = np.sort(rng.choice(canon, len(canon) // 3, replace=False))
        before = edge_supports(sym, np.ones(sym.nvals, dtype=bool))[0]
        alive = np.ones(sym.nvals, dtype=bool)
        alive[removed] = False
        alive[twin[removed]] = False
        after = edge_supports(sym, alive)[0]
        got = destroyed_triangle_edges(sym, removed, twin)
        lost = np.bincount(got, minlength=sym.nvals)
        lost = lost + lost[twin]
        assert np.array_equal((before - lost)[alive], after[alive])
        assert not np.any(lost[~alive])


class TestCommittedRows:
    """The study cells of three graphs reproduce their committed rows."""

    @pytest.fixture(scope="class")
    def committed(self):
        rows = json.loads(CELLS.read_text())["cells"]
        return {(r["system"], r["app"], r["graph"]): r for r in rows}

    @pytest.mark.parametrize("graph", ["rmat22", "eukarya", "road-USA-W"])
    @pytest.mark.parametrize("system", ["SS", "GB", "LS"])
    def test_row_matches_committed(self, committed, system, graph):
        result = experiments.run_cell(system, "ktruss", graph,
                                      use_cache=False)
        row = experiments.cell_to_row(result)
        want = committed[(system, "ktruss", graph)]
        assert (json.dumps(row, sort_keys=True)
                == json.dumps(want, sort_keys=True))


class TestSupportUpdateInput:
    def test_rejects_s_outside_previous_supports(self):
        backend = SuiteSparseBackend(Machine())
        sym = sym_graph(4, clique([0, 1, 2, 3]))
        prev = sym_graph(3, clique([0, 1, 2]))
        prev = type(prev)(4, 4, np.append(prev.indptr, prev.indptr[-1]),
                          prev.indices, np.ones(prev.nvals, np.int64))
        S = pattern_matrix(backend, sym)
        C = gb.Matrix(backend, gb.INT64, 4, 4)
        with pytest.raises(InvalidValue):
            mxm_support_update(C, S, prev)
