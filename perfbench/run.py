"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``mine`` — seed-shuffled in-process passes over a Table II sub-grid
  (:mod:`study`);
* ``serve`` — bursts of jobs through the HTTP API and a two-worker queue
  drain (:mod:`served`).

Every cell or job row is compared with the committed
``benchmarks/results/cells.json``; a mismatch, an ERR/CANCELLED/dead
result or a refused submit counts as failed and makes the exit code 1.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones (a traced run also times one
untraced pass for ``trace.overhead_frac``).  A summary of each run, with
the host record, is written under ``.perfbench-out/``; a traced study run
also writes its spans there as ``.npz``.

Inherited ``REPRO_*`` variables are removed from this process's
environment before ``repro`` is imported, so every knob is at its default
here and in the spawned queue workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CELLS = ROOT / "benchmarks" / "results" / "cells.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"

#: Set-ups timed per run at least (``setup_s`` is their median).
MIN_SETUPS = 7

#: Typical seconds of one batch (a study pass or a served burst) on the
#: 2-core reference host.  A run makes ``round(--seconds / this)`` batches,
#: at least one, so a slow phase of a shared host changes how long a run
#: takes but not how many samples its medians are taken over.
BATCH_SECONDS = {"mine": 22.5, "serve": 15.0}

#: What each workload imports before it can run.
IMPORTS = {
    "study": "import repro.core.experiments",
    "serve": "import repro.core.experiments, repro.service.api, "
             "repro.service.queue_supervisor",
}


def strip_knobs(environ) -> list:
    """Remove every ``REPRO_*`` variable from ``environ``; returns their
    names."""
    names = sorted(k for k in environ if k.startswith("REPRO_"))
    for name in names:
        del environ[name]
    return names


def git_head(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a
    git work tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(args) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_head": git_head(ROOT),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KB);
    with ``children`` the larger of this process and its reaped children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def import_seconds(kind: str) -> float:
    """Seconds a fresh interpreter takes to import what the workload
    needs (timed inside the child, so interpreter start is excluded)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); {IMPORTS[kind]}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def setup_seconds(kind: str, setups) -> float:
    """``setup_s``: the median fresh-interpreter import time plus the
    median of the run's set-ups (at least :data:`MIN_SETUPS` of each)."""
    imports = [import_seconds(kind) for _ in range(MIN_SETUPS)]
    return statistics.median(imports) + statistics.median(setups)


def stop_helpers() -> None:
    """Stop and reap the helper processes ``multiprocessing`` starts on
    its own.  The queue workers are spawned, and the first spawn also
    starts a resource-tracker process that would otherwise outlive this
    one."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def batch_count(args) -> int:
    return max(1, round(args.seconds / BATCH_SECONDS[args.workload]))


def _layer_zeros(per_layer) -> dict:
    return {name: 0.0 for name in per_layer}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def run_study(args, spec, oracle):
    import numpy as np

    import study
    from metrics import highest_percentile, percentile

    cells = study.GRIDS[args.workload]
    graphs = study.graphs_of(cells)
    rng = np.random.default_rng(args.seed)
    setups, passes = [], []
    report = {"cells": len(cells)}
    if not args.trace:
        for _ in range(batch_count(args)):
            setups.append(study.build_graphs(graphs))
            passes.append(study.run_pass(study.shuffled(cells, rng), oracle))
        while len(setups) < MIN_SETUPS:
            setups.append(study.build_graphs(graphs))
        walls = [p.wall for p in passes]
        samples = [t for p in passes for t in p.cell_seconds]
        metrics = {
            "setup_s": setup_seconds("study", setups),
            "grid_s": statistics.median(walls),
            "jobs_per_s": statistics.median(len(cells) / w for w in walls),
            "job_latency_p50_s": percentile(samples, 50),
            "job_latency_p90_s": percentile(samples, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        report.update(passes=len(passes), latency_samples=len(samples),
                      latency_tail_percentile=highest_percentile(
                          len(samples)),
                      pass_walls=walls, setups=setups)
        return passes, metrics, report, None

    from repro.graphs import datasets
    from repro.sparse import plancache
    from spans import Tracer

    order = study.shuffled(cells, rng)
    study.build_graphs(graphs)
    untraced = study.run_pass(order, oracle)

    builds = Tracer()
    study.install_build_tracing(builds)
    generations = datasets.generation_count()
    try:
        study.build_graphs(graphs)
    finally:
        builds.uninstall()
    generations = datasets.generation_count() - generations

    tracer = Tracer()
    study.install_pass_tracing(tracer)
    plancache.reset_stats()
    try:
        traced = study.run_pass(order, oracle, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = _layer_zeros(spec["per_layer"])
    metrics.update(study.layer_metrics(tracer.summary(), tracer.counts,
                                       traced.wall))
    metrics["sparse.plancache_hit_rate"] = plancache.hit_rate() or 0.0
    metrics["graphs.build_s"] = builds.summary()["graphs.build"][1]
    metrics["graphs.generations"] = float(generations)
    metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    metrics.update(study.scipy_reference())
    report.update(untraced_grid_s=untraced.wall, traced_grid_s=traced.wall,
                  spans=len(tracer.name_id))
    return [untraced, traced], metrics, report, tracer


def run_serve(args, spec, oracle):
    import numpy as np

    import served
    import study
    from metrics import highest_percentile, percentile, tail_ok

    OUT.mkdir(exist_ok=True)
    workdir = str(OUT)
    jobs = served.SERVE_CELLS
    rng = np.random.default_rng(args.seed)
    bursts = []
    report = {"jobs_per_burst": served.COPIES * len(jobs)}
    # A traced run serves one untraced and one traced burst.
    for _ in range(2 if args.trace else batch_count(args)):
        burst = [key for _copy in range(served.COPIES)
                 for key in study.shuffled(jobs, rng)]
        bursts.append(served.run_burst(burst, oracle, workdir))
    setups = [b.setup_s for b in bursts]
    while len(setups) < MIN_SETUPS:
        setups.append(served.setup_sample(workdir))
    windows = [b.window_s for b in bursts]
    latencies = [x for b in bursts for x in b.latencies]
    report.update(bursts=len(bursts), latency_samples=len(latencies),
                  latency_tail_percentile=highest_percentile(len(latencies)),
                  windows=windows, setups=setups)
    if not args.trace:
        if not tail_ok(len(latencies), 90):
            raise RuntimeError(f"{len(latencies)} latency samples are too "
                               "few for a p90")
        metrics = {
            "setup_s": setup_seconds("serve", setups),
            "grid_s": statistics.median(windows),
            "jobs_per_s": statistics.median(b.jobs_per_s for b in bursts),
            "job_latency_p50_s": percentile(latencies, 50),
            "job_latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        return bursts, metrics, report, None

    untraced, traced = bursts
    metrics = _layer_zeros(spec["per_layer"])
    metrics.update(served.service_metrics(traced))
    metrics["trace.overhead_frac"] = traced.window_s / untraced.window_s - 1
    metrics["trace.unattributed_frac"] = 1.0 - sum(traced.runs) / (
        served.WORKERS * traced.window_s)
    metrics.update(study.scipy_reference())
    return bursts, metrics, report, None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    removed = strip_knobs(os.environ)
    for path, what in ((SPEC, "BENCHMARK.json"),
                       (SRC / "repro" / "__init__.py", "the repro sources"),
                       (CELLS, "the committed cells.json")):
        if not path.is_file():
            return _fail(f"{what} not found at {path}")
    from metrics import load_spec, result_line

    spec = load_spec(SPEC)
    if args.workload not in spec["workloads"]:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {spec['workloads']}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return _fail(f"imported repro from {repro.__file__}, not {SRC}")

    from oracle import Oracle

    oracle = Oracle.load(CELLS)
    runner = run_serve if args.workload == "serve" else run_study
    try:
        batches, metrics, report, tracer = runner(args, spec, oracle)
    finally:
        stop_helpers()

    failures = [f for b in batches for f in b.failures]
    attempted = sum(b.attempted for b in batches)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    host = host_record(args)
    host["knobs_removed"] = removed

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as f:
        json.dump({"host": host, "report": report, "metrics": metrics,
                   "failures": failures}, f, indent=1, sort_keys=True)
    if tracer is not None:
        import numpy as np

        np.savez_compressed(f"{stem}-spans.npz", names=np.array(tracer.names),
                            **tracer.arrays())

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"report: {json.dumps(report, sort_keys=True)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  error_rate {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} of {attempted})")
    print(result_line(attempted, len(failures), metrics, units), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
