"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402
from oracle import Oracle, canonical  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

ROOT = HERE.parent.parent


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------

def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=37))
    for q in (0, 10, 50, 90, 99, 100):
        assert metrics.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_samples_beyond_and_highest_percentile():
    assert metrics.samples_beyond(100, 90) == 10
    assert metrics.samples_beyond(99, 90) == 9
    assert metrics.tail_ok(100, 90) and not metrics.tail_ok(99, 90)
    assert metrics.highest_percentile(19) is None
    assert metrics.highest_percentile(20) == 50
    assert metrics.highest_percentile(114) == 90
    assert metrics.highest_percentile(1000) == 99
    assert metrics.highest_percentile(10_000) == 99.9


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def test_self_time_nested():
    # root [0,100) > a [10,40) > b [15,25); root > c [50,90)
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert list(own) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert own.sum() == 100  # self times tile the root


def test_self_time_overlapping_children_counted_once():
    # Two children of one parent overlap on [30,40): covered = [20,50).
    own = self_times([0, 20, 30], [100, 40, 50], [-1, 0, 0])
    assert own[0] == 100 - 30
    assert list(own[1:]) == [20, 20]


def test_self_time_child_clipped_to_parent():
    own = self_times([0, 80], [100, 130], [-1, 0])
    assert own[0] == 80


def test_tracer_rebinds_every_module_binding_and_restores():
    def kernel(x):
        return x + 1

    kernel.__module__ = "repro._perfbench_test_a"
    mod_a = types.ModuleType("repro._perfbench_test_a")
    mod_b = types.ModuleType("repro._perfbench_test_b")
    mod_a.kernel = kernel
    mod_b.alias = kernel  # as after ``from ... import kernel as alias``
    sys.modules[mod_a.__name__] = mod_a
    sys.modules[mod_b.__name__] = mod_b
    try:
        tracer = Tracer()
        assert tracer.wrap_function("layer.k", kernel) == 2
        assert mod_a.kernel is mod_b.alias is not kernel
        assert mod_a.kernel(1) == 2 and mod_b.alias(2) == 3
        assert tracer.summary()["layer.k"][0] == 2
        tracer.uninstall()
        assert mod_a.kernel is kernel and mod_b.alias is kernel
    finally:
        del sys.modules[mod_a.__name__], sys.modules[mod_b.__name__]


def test_tracer_records_parent_links():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    tracer = Tracer()
    tracer.wrap_method("outer", Layer, "outer")
    tracer.wrap_method("inner", Layer, "inner")
    try:
        assert Layer().outer() == 7
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0]
    assert not hasattr(vars(Layer)["outer"], "__wrapped__")  # restored


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["grid_s", "sparse.spmv_calls", "p-90",
                                  "9lives", "a" * 64])
def test_valid_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "a/b",
                                  "café", "a" * 65, None])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_json_is_valid_and_matches_units():
    spec = metrics.load_spec(ROOT / "BENCHMARK.json")
    assert "setup_s" in spec["end_to_end"]
    assert spec["end_to_end"]["setup_s"] == "s"


def test_duplicate_metric_name_rejected(tmp_path):
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw["per_layer"].append(dict(raw["end_to_end"][0]))
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="used twice"):
        metrics.load_spec(path)


def test_result_line_requires_exactly_the_declared_metrics():
    units = {"a_s": "s", "b": "count"}
    line = json.loads(metrics.result_line(3, 0, {"a_s": 1.5, "b": 2}, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"]["a_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        metrics.result_line(3, 0, {"a_s": 1.5}, units)
    with pytest.raises(ValueError):
        metrics.result_line(3, 0, {"a_s": float("nan"), "b": 1}, units)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

def _committed():
    with open(ROOT / "benchmarks" / "results" / "cells.json") as f:
        return json.load(f)["cells"]


def test_oracle_accepts_committed_rows_with_int_sweep_keys():
    rows = _committed()
    oracle = Oracle(rows)
    swept = next(r for r in rows if r["thread_sweep"])
    row = copy.deepcopy(swept)
    row["thread_sweep"] = {int(k): v for k, v in row["thread_sweep"].items()}
    assert oracle.mismatch(row) is None
    assert oracle.wants_sweep((row["system"], row["app"], row["graph"]))


def test_oracle_catches_one_perturbed_counter():
    rows = _committed()
    oracle = Oracle(rows)
    row = copy.deepcopy(next(r for r in rows if r["status"] == "ok"))
    counter = sorted(row["counters"])[0]
    row["counters"][counter] += 1
    assert "counters" in oracle.mismatch(row)


def test_oracle_catches_missing_sweep():
    rows = _committed()
    oracle = Oracle(rows)
    row = copy.deepcopy(next(r for r in rows if r["thread_sweep"]))
    row["thread_sweep"] = {}
    assert "thread_sweep" in oracle.mismatch(row)


def test_canonical_ignores_key_order():
    assert canonical({"b": 1, "a": {2: 3}}) == canonical({"a": {"2": 3},
                                                          "b": 1})


# ----------------------------------------------------------------------
# Run hygiene
# ----------------------------------------------------------------------

def test_strip_knobs_removes_only_repro_variables():
    env = {"REPRO_FUSION": "0", "REPRO_KERNEL_THREADS": "4", "PATH": "/bin"}
    assert run.strip_knobs(env) == ["REPRO_FUSION", "REPRO_KERNEL_THREADS"]
    assert env == {"PATH": "/bin"}


def test_stop_helpers_reaps_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    process = multiprocessing.get_context("spawn").Process(target=int)
    process.start()
    process.join(30)
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_helpers()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
