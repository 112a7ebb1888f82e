"""The in-process study workload: seed-shuffled passes over a Table II grid.

A *pass* runs every cell of the workload's grid once through
``run_cell(..., use_cache=False)`` in an order drawn from the seed, then
checks each row against the committed one.  Each pass starts from a
fresh dataset cache (the graphs are rebuilt before it, outside the timed
window), so every pass sees what a fresh study process sees and passes
within a run are interchangeable samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from oracle import Oracle
from spans import Tracer, public_functions, public_methods

SYSTEMS = ("SS", "GB", "LS")

#: The study grid: ktruss on the power-law and protein graphs and tc on
#: the web crawl, where kernels dominate; SS tc uk07 ends as a modeled OOM
#: after computing a result that is thrown away.  SS and GB bfs on the web
#: crawl (a few milliseconds a cell) put the LAGraph traversal layers --
#: fused pipelines, ``vxm_push`` -- in the traced run; with 11 cells the
#: latency median falls inside the cluster of 2.4-2.8 s cells, not in the
#: gap below it.  Bfs and sssp on the road lattice, where per-operation
#: overhead dominates, are left out: that pure-Python work ran up to
#: 1.55x slower in the slow phases of a shared 2-vCPU host, so its medians
#: moved by more than the bounds between sets of runs.  The serve workload
#: still runs small traversals end to end.
GRIDS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "mine": tuple((s, "ktruss", g) for g in ("rmat22", "eukarya")
                  for s in SYSTEMS)
    + tuple((s, "tc", "uk07") for s in SYSTEMS)
    + (("SS", "bfs", "uk07"), ("GB", "bfs", "uk07")),
}


def graphs_of(cells) -> List[str]:
    return sorted({g for _s, _a, g in cells})


def build_graphs(graphs) -> float:
    """One set-up: drop the dataset cache and build every graph's directed
    and symmetric views.  Returns the seconds it took."""
    from repro.graphs import datasets

    t0 = time.perf_counter()
    datasets.clear_cache()
    for name in graphs:
        ds = datasets.get_dataset(name)
        ds.build()
        ds.build_symmetric()
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall: float
    cell_seconds: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.cell_seconds)


def shuffled(cells, rng: np.random.Generator) -> list:
    """The cells in an order drawn from ``rng``."""
    return [cells[i] for i in rng.permutation(len(cells))]


def run_pass(order, oracle: Oracle, tracer: Tracer = None) -> PassResult:
    """Run every cell once in the given order; check rows afterwards."""
    from repro.core import experiments

    sweeps = [oracle.wants_sweep(key) for key in order]
    results = []
    times = []
    t0 = time.perf_counter()
    for index, ((system, app, graph), sweep) in enumerate(zip(order, sweeps)):
        if tracer is not None:
            tracer.cell_id = index
        c0 = time.perf_counter()
        results.append(experiments.run_cell(
            system, app, graph, use_cache=False, sweep_threads=sweep))
        times.append(time.perf_counter() - c0)
    wall = time.perf_counter() - t0
    out = PassResult(wall=wall, cell_seconds=times)
    for result in results:
        # ERR and CANCELLED rows differ from every committed row.
        reason = oracle.mismatch(experiments.cell_to_row(result))
        if reason is not None:
            out.failures.append(reason)
    return out


# ----------------------------------------------------------------------
# Layer boundaries for the traced pass
# ----------------------------------------------------------------------

#: The kernel modules whose public functions are timed, one layer each.
SPARSE_MODULES = ("spmv", "spgemm", "join", "segreduce", "tricount")


def install_pass_tracing(tracer: Tracer) -> None:
    """Wrap every layer boundary a study cell crosses."""
    import importlib

    from repro import lagraph, lonestar
    from repro.core import experiments
    from repro.core.systems import System, SystemInstance
    from repro.engine.context import ExecutionContext
    from repro.graphblas import operations
    from repro.graphblas.backend import BaseBackend
    from repro.graphblas.pipeline import FusedPipeline
    from repro.perf.machine import Machine
    from repro.runtime.galois_rt import GaloisRuntime

    for short in SPARSE_MODULES:
        module = importlib.import_module(f"repro.sparse.{short}")
        for _name, fn in public_functions(module):
            tracer.wrap_function(f"sparse.{short}", fn)
    for _name, fn in public_functions(operations):
        tracer.wrap_function("graphblas.op", fn)
    for attr in public_methods(FusedPipeline, exclude=("round",)):
        tracer.wrap_method("graphblas.fused", FusedPipeline, attr)
    tracer.wrap_method("backend.emit", BaseBackend, "emit")
    tracer.wrap_method("perf.charge", Machine, "charge_loop")
    for attr in ("do_all", "for_each"):
        tracer.wrap_method("runtime.loop", GaloisRuntime, attr)
    for package, layer in ((lagraph, "lagraph"), (lonestar, "lonestar")):
        for name in package.__all__:
            tracer.wrap_function(layer, getattr(package, name))
    tracer.wrap_method("engine.events", ExecutionContext, "close_span",
                       count_only=True)
    tracer.wrap_method("core.instantiate", System, "instantiate")
    for attr in ("load_directed", "load_weighted", "load_symmetric"):
        tracer.wrap_method("core.load", SystemInstance, attr)
    tracer.wrap_function("core.cell", experiments.run_cell)


def install_build_tracing(tracer: Tracer) -> None:
    """Wrap the dataset build methods (timed during set-up only: inside a
    pass a build is a cache hit and counts toward ``core.load``)."""
    from repro.graphs.datasets import Dataset

    for attr in ("build", "build_symmetric"):
        tracer.wrap_method("graphs.build", Dataset, attr)


def layer_metrics(summary: Dict[str, Tuple[int, float]],
                  counts: Dict[str, int], grid_s: float) -> Dict[str, float]:
    """Per-layer metrics from a traced pass's span summary."""
    def calls(name):
        return float(summary.get(name, (0, 0.0))[0])

    def self_s(name):
        return summary.get(name, (0, 0.0))[1]

    out = {}
    sparse_total = 0.0
    for short in SPARSE_MODULES:
        sparse_total += self_s(f"sparse.{short}")
        if short != "tricount":
            out[f"sparse.{short}_calls"] = calls(f"sparse.{short}")
        out[f"sparse.{short}_s"] = self_s(f"sparse.{short}")
    out["sparse.share"] = sparse_total / grid_s
    out.update({
        "graphblas.op_calls": calls("graphblas.op"),
        "graphblas.op_self_s": self_s("graphblas.op"),
        "graphblas.fused_calls": calls("graphblas.fused"),
        "graphblas.fused_s": self_s("graphblas.fused"),
        "backend.emit_calls": calls("backend.emit"),
        "backend.emit_self_s": self_s("backend.emit"),
        "perf.charge_calls": calls("perf.charge"),
        "perf.charge_s": self_s("perf.charge"),
        "runtime.loop_calls": calls("runtime.loop"),
        "runtime.loop_self_s": self_s("runtime.loop"),
        "lagraph.self_s": self_s("lagraph"),
        "lonestar.self_s": self_s("lonestar"),
        "engine.events": float(counts.get("engine.events", 0)),
        "core.instantiate_s": self_s("core.instantiate"),
        "core.load_s": self_s("core.load"),
        "core.cell_self_s": self_s("core.cell"),
    })
    attributed = sum(s for _c, s in summary.values())
    out["trace.unattributed_frac"] = 1.0 - attributed / grid_s
    return out


# ----------------------------------------------------------------------
# Kernel speed-of-light reference
# ----------------------------------------------------------------------

def _best_of(fn, repeats: int) -> Tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def scipy_reference() -> Dict[str, float]:
    """Our SpMV and SpGEMM wall time as a multiple of ``scipy.sparse`` on
    the same integer operands (results asserted equal)."""
    import scipy.sparse as sp

    from repro.graphs.datasets import get_dataset
    from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
    from repro.sparse.spgemm import spgemm_saxpy
    from repro.sparse.spmv import spmv_pull

    plus, times = MONOID_FNS["plus"], BINARY_FNS["times"]

    road, weights = get_dataset("road-USA").build()
    A = _with_values(road, weights)
    x = np.random.default_rng(0).integers(1, 100, A.ncols, dtype=np.int64)
    S = sp.csr_matrix((A.values, A.indices, A.indptr), shape=(A.nrows, A.ncols))
    ours_s, (y, _touched, _flops) = _best_of(
        lambda: spmv_pull(A, x, plus, times, out_dtype=np.int64), 9)
    ref_s, y_ref = _best_of(lambda: S @ x, 9)
    if not np.array_equal(y, y_ref):
        raise AssertionError("spmv_pull differs from scipy.sparse on road-USA")

    rmat, _w = get_dataset("rmat22").build()
    B = _with_values(rmat, np.ones(rmat.nvals, dtype=np.int64))
    T = sp.csr_matrix((B.values, B.indices, B.indptr), shape=(B.nrows, B.ncols))
    ours_g, (C, _flops) = _best_of(
        lambda: spgemm_saxpy(B, B, plus, times, out_dtype=np.int64), 3)
    ref_g, C_ref = _best_of(lambda: T @ T, 3)
    C_ref.sort_indices()
    if not (np.array_equal(C.indptr, C_ref.indptr)
            and np.array_equal(C.indices, C_ref.indices)
            and np.array_equal(C.values, C_ref.data)):
        raise AssertionError("spgemm_saxpy differs from scipy.sparse on "
                             "rmat22 A*A")
    return {"sparse.spmv_scipy_x": ours_s / ref_s,
            "sparse.spgemm_scipy_x": ours_g / ref_g}


def _with_values(csr, values):
    from repro.sparse.csr import CSRMatrix

    return CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices,
                     np.asarray(values, dtype=np.int64))
