"""Tests for the batched merge-join engine (``repro.sparse.join``).

Three layers:

* Property tests — :func:`repro.sparse.join.row_pair_join` against the
  per-pair reference :func:`repro.sparse.join.naive_row_pair_join` over
  randomized CSR shapes, dtypes, keep-masks, and both forced plans.  The
  engine's contract is *bit-identical* output in identical order, so
  every comparison below is exact (``array_equal``), never approximate.
* Regression tests — the hoisted value-cast fix (the seed
  ``spgemm_masked_dot`` re-materialized the full B value array once per
  row) and an AST lint pinning the per-row loops out of the rewired
  kernels.
* Equivalence of the loop-free call sites (``coo_group_reduce`` both
  plans, ``dedup_bounded`` both branches).
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.errors import DimensionMismatch, InvalidValue
from repro.sparse.csr import build_csr, expand_ranges
from repro.sparse.join import (
    CAST_COUNTS,
    dedup_bounded,
    masked_row_join,
    naive_row_pair_join,
    row_pair_join,
)
from repro.sparse.segreduce import coo_group_reduce
from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
from repro.sparse.spgemm import spgemm_masked_dot

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def random_csr(rng, nrows, ncols, density, valued=True, dtype=np.float64):
    nnz = int(density * nrows * ncols)
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    if valued:
        if np.dtype(dtype).kind == "f":
            values = rng.standard_normal(nnz).astype(dtype)
        else:
            values = rng.integers(1, 100, nnz).astype(dtype)
    else:
        values = None
    return build_csr(nrows, ncols, rows, cols, values)


def assert_results_equal(got, want):
    assert np.array_equal(got.hits, want.hits)
    assert np.array_equal(got.a_pos, want.a_pos)
    assert np.array_equal(got.b_pos, want.b_pos)
    assert np.array_equal(got.out_seg, want.out_seg)
    assert np.array_equal(got.cand, want.cand)
    assert got.work == want.work


class TestRowPairJoinProperties:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("plan", [None, "merge", "densify"])
    def test_matches_naive_reference(self, seed, plan):
        rng = np.random.default_rng(seed)
        nrows = int(rng.integers(1, 40))
        ncols = int(rng.integers(1, 40))
        A = random_csr(rng, nrows, ncols, float(rng.uniform(0, 0.4)))
        Bt = random_csr(rng, int(rng.integers(1, 40)), ncols,
                        float(rng.uniform(0, 0.4)))
        n_pairs = int(rng.integers(0, 60))
        a_rows = rng.integers(0, nrows, n_pairs)
        b_rows = rng.integers(0, Bt.nrows, n_pairs)
        got = row_pair_join(A, a_rows, Bt, b_rows, plan=plan)
        want = naive_row_pair_join(A, a_rows, Bt, b_rows)
        assert_results_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_keep_masks(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = random_csr(rng, 25, 30, 0.3)
        Bt = random_csr(rng, 20, 30, 0.3)
        n_pairs = 40
        a_rows = rng.integers(0, A.nrows, n_pairs)
        b_rows = rng.integers(0, Bt.nrows, n_pairs)
        a_keep = rng.random(A.nvals) < 0.7
        b_keep = rng.random(Bt.nvals) < 0.7
        got = row_pair_join(A, a_rows, Bt, b_rows,
                            a_keep=a_keep, b_keep=b_keep)
        want = naive_row_pair_join(A, a_rows, Bt, b_rows,
                                   a_keep=a_keep, b_keep=b_keep)
        assert_results_equal(got, want)

    def test_small_batches_match_single_batch(self):
        # Batch boundaries can never change results.
        rng = np.random.default_rng(7)
        A = random_csr(rng, 30, 30, 0.25)
        Bt = random_csr(rng, 30, 30, 0.25)
        a_rows = rng.integers(0, 30, 50)
        b_rows = rng.integers(0, 30, 50)
        big = row_pair_join(A, a_rows, Bt, b_rows, batch_flops=1 << 30)
        tiny = row_pair_join(A, a_rows, Bt, b_rows, batch_flops=1)
        assert_results_equal(tiny, big)

    @pytest.mark.parametrize("valued", [True, False])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_value_dtypes_and_pattern(self, valued, dtype):
        rng = np.random.default_rng(11)
        A = random_csr(rng, 20, 25, 0.3, valued=valued, dtype=dtype)
        Bt = random_csr(rng, 20, 25, 0.3, valued=valued, dtype=dtype)
        a_rows = rng.integers(0, 20, 30)
        b_rows = rng.integers(0, 20, 30)
        got = row_pair_join(A, a_rows, Bt, b_rows)
        want = naive_row_pair_join(A, a_rows, Bt, b_rows)
        assert_results_equal(got, want)

    def test_empty_rows_charge_nothing(self):
        # A pair whose A row is empty is inactive: no candidates, no work,
        # exactly like the per-row loops' skip-empty short-circuit.
        A = build_csr(4, 5, np.array([1, 1]), np.array([0, 3]), None)
        Bt = build_csr(3, 5, np.array([0, 0, 2]), np.array([0, 3, 4]), None)
        a_rows = np.array([0, 1, 2, 3])
        b_rows = np.array([0, 0, 0, 2])
        res = row_pair_join(A, a_rows, Bt, b_rows)
        want = naive_row_pair_join(A, a_rows, Bt, b_rows)
        assert_results_equal(res, want)
        assert res.cand[0] == 0 and res.cand[2] == 0 and res.cand[3] == 0
        assert res.work == res.cand.sum()

    def test_no_pairs(self):
        rng = np.random.default_rng(0)
        A = random_csr(rng, 5, 5, 0.5)
        res = row_pair_join(A, np.empty(0, np.int64),
                            A, np.empty(0, np.int64))
        assert len(res.hits) == 0 and res.work == 0

    def test_output_order_is_pair_major(self):
        rng = np.random.default_rng(3)
        A = random_csr(rng, 15, 15, 0.4)
        a_rows = rng.integers(0, 15, 25)
        b_rows = rng.integers(0, 15, 25)
        res = row_pair_join(A, a_rows, A, b_rows)
        assert np.all(np.diff(res.out_seg) >= 0)
        # Within a pair, matches come in B-row (= column) order.
        for k in np.unique(res.out_seg):
            b_cols = A.indices[res.b_pos[res.out_seg == k]]
            assert np.all(np.diff(b_cols) > 0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        A = random_csr(rng, 4, 5, 0.5)
        B6 = random_csr(rng, 4, 6, 0.5)
        with pytest.raises(DimensionMismatch):
            row_pair_join(A, [0], B6, [0])
        with pytest.raises(DimensionMismatch):
            row_pair_join(A, [0, 1], A, [0])
        with pytest.raises(InvalidValue):
            row_pair_join(A, [0], A, [0], plan="quantum")
        with pytest.raises(DimensionMismatch):
            masked_row_join(A, A, B6)


class TestMaskedRowJoin:
    def test_tricount_shape(self):
        # A = Bt = mask = L: the triangle-counting instance.
        rng = np.random.default_rng(21)
        sym = random_csr(rng, 30, 30, 0.2, valued=False)
        L = sym.extract_tril(strict=True)
        res = masked_row_join(L, L, L)
        want = naive_row_pair_join(L, L.row_ids(),
                                   L, L.indices.astype(np.int64))
        assert_results_equal(res, want)


class TestDedupBounded:
    @pytest.mark.parametrize("n,bound", [
        (0, 100), (5, 100), (10, 100),       # tiny: np.unique branch
        (5000, 100), (5000, 1 << 18),        # large: flag-array branch
    ])
    def test_matches_unique(self, n, bound):
        rng = np.random.default_rng(n + bound)
        ids = rng.integers(0, bound, n)
        got = dedup_bounded(ids, bound)
        want = np.unique(ids).astype(np.int64, copy=False)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_flag_branch_is_exercised(self):
        # len > max(16, bound >> 7) must take the O(n) path; verify via
        # output identity at a size where both branches are plausible.
        ids = np.array([9, 3, 3, 7, 0, 9, 1, 4, 4, 4, 8, 2, 6, 5, 0, 1, 2],
                       dtype=np.int64)
        assert np.array_equal(dedup_bounded(ids, 10), np.unique(ids))


class TestCooGroupReduce:
    @pytest.mark.parametrize("seed", range(4))
    def test_both_plans_match_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2000))
        ncols = int(rng.integers(1, 50))
        rows = np.sort(rng.integers(0, 40, n)).astype(np.int64)
        cols = rng.integers(0, ncols, n).astype(np.int64)
        values = rng.standard_normal(n)
        r_rows, r_cols, vals = coo_group_reduce(rows, cols, values, ncols,
                                                "plus")
        keys = rows * ncols + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        ref = np.zeros(len(uniq))
        np.add.at(ref, inverse, values)
        assert np.array_equal(r_rows, uniq // ncols)
        assert np.array_equal(r_cols, uniq % ncols)
        assert np.array_equal(vals, ref) or np.allclose(vals, ref)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        r, c, v = coo_group_reduce(empty, empty, np.empty(0), 4, "plus")
        assert len(r) == 0 and len(c) == 0 and len(v) == 0


class TestHoistedCastRegression:
    def test_masked_dot_casts_values_once_per_operand(self):
        # The seed bug: B's full value array was re-cast inside the
        # per-row loop — O(nrows * nnz).  The rewired kernel must cast
        # each operand's values at most once per call.
        rng = np.random.default_rng(5)
        A = random_csr(rng, 40, 40, 0.2, dtype=np.float32)
        L = A.extract_tril(strict=True)
        CAST_COUNTS["calls"] = 0
        spgemm_masked_dot(L, L, L, MONOID_FNS["plus"], BINARY_FNS["times"],
                          out_dtype=np.float64)
        assert CAST_COUNTS["calls"] <= 2

    def test_masked_dot_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        A = random_csr(rng, 25, 25, 0.3)
        L = A.extract_tril(strict=True)
        C, work = spgemm_masked_dot(A, A, L, MONOID_FNS["plus"],
                                    BINARY_FNS["times"])
        dense_a = np.zeros((A.nrows, A.ncols))
        dense_a[A.row_ids(), A.indices] = A.values
        dense = dense_a @ dense_a.T
        for i in range(L.nrows):
            for p in range(int(C.indptr[i]), int(C.indptr[i + 1])):
                j = int(C.indices[p])
                assert C.values[p] == pytest.approx(dense[i, j])


class TestNoPerRowLoops:
    """AST lint: the rewired kernels must stay loop-free."""

    def _functions(self, path):
        tree = ast.parse(path.read_text())
        return {node.name: node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)}

    def test_tricount_has_no_for_loops(self):
        tree = ast.parse((SRC / "repro/sparse/tricount.py").read_text())
        loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)]
        assert loops == [], "per-row loops crept back into tricount.py"

    def test_masked_dot_has_no_for_loops(self):
        fns = self._functions(SRC / "repro/sparse/spgemm.py")
        node = fns["spgemm_masked_dot"]
        loops = [n for n in ast.walk(node) if isinstance(n, ast.For)]
        assert loops == [], "per-row loop crept back into spgemm_masked_dot"


class TestExpandRanges:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_concatenated_aranges(self, seed):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, 50, 20)
        stops = starts + rng.integers(0, 10, 20)
        got = expand_ranges(starts, stops)
        want = (np.concatenate([np.arange(s, e) for s, e in
                                zip(starts, stops)])
                if len(starts) else np.empty(0, np.int64))
        assert np.array_equal(got, want)
        assert got.dtype == np.int64

    def test_empty(self):
        out = expand_ranges(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(out) == 0 and out.dtype == np.int64
