"""GraphBLAS operations with mask / accumulator / descriptor semantics.

Each function mutates its output object in place, GraphBLAS-style:

>>> mxv(w, A, u, semiring("min_plus"), mask=frontier, desc=REPLACE_COMP)

Semantics follow the GraphBLAS C spec:

1. compute ``T`` from the inputs with the operation's semiring/operator;
2. ``Z = accum(C, T)`` element-wise if an accumulator is given, else ``Z=T``;
3. write ``Z`` into ``C`` through the (optionally complemented, optionally
   structural) mask; with ``REPLACE``, entries of ``C`` outside the mask are
   deleted, otherwise they are kept.

Every operation emits one typed :class:`~repro.engine.events.OpEvent` to the
output's backend (``backend.emit``), which converts it into parallel loops
on the simulated machine and records it in the machine's execution trace.
One GraphBLAS call is at least one full loop nest plus a barrier — the
"lightweight loops" property (§II-D observation 1) the paper's analysis
builds on.

Not to be confused with :mod:`repro.graphblas.ops`, which defines the
*operators* (unary/binary operators, monoids, semirings) these operations
are parameterized by.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.engine.events import OpEvent
from repro.errors import DimensionMismatch, InvalidValue
from repro.graphblas.descriptor import DEFAULT_DESC, Descriptor, GrB_ALL
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import BinaryOp, Monoid, Semiring, UnaryOp
from repro.graphblas.vector import Vector
from repro.sparse import parallel as _parallel
from repro.sparse import spgemm as _spgemm
from repro.sparse import spmv as _spmv
from repro.sparse.csr import CSRMatrix
from repro.sparse.segreduce import scatter_reduce
from repro.sparse.semiring_ops import BinaryFn
from repro.sparse.tricount import destroyed_triangle_edges, twin_positions

__all__ = [
    "mxv",
    "vxm",
    "mxm",
    "mxm_support_update",
    "eWiseAdd",
    "eWiseMult",
    "apply",
    "select",
    "assign",
    "extract",
    "reduce_to_scalar",
    "reduce_to_vector",
    "eWiseAddMatrix",
    "eWiseMultMatrix",
    "applyMatrix",
    "extractMatrix",
]


# ----------------------------------------------------------------------
# Mask / write-back machinery
# ----------------------------------------------------------------------

def _mask_allowed(mask, size: int, desc: Descriptor) -> Optional[np.ndarray]:
    """Dense boolean 'may write here' array, or None for no mask."""
    if mask is None:
        if desc.mask_comp:
            # Complement of an absent mask forbids every write.
            return np.zeros(size, dtype=bool)
        return None
    if mask.size != size:
        raise DimensionMismatch("mask size does not match output size")
    allowed = mask.present_mask()
    if not desc.mask_structure:
        allowed &= mask.dense_values(fill=0).astype(bool)
    if desc.mask_comp:
        allowed = ~allowed
    return allowed


def _write_back(
    out: Vector,
    t_vals: np.ndarray,
    t_present: np.ndarray,
    allowed: Optional[np.ndarray],
    accum: Optional[BinaryOp],
    replace: bool,
) -> None:
    """Steps 2 and 3 of the GraphBLAS execution semantics."""
    c_vals = out.dense_values()
    c_present = out.present_mask()
    if accum is not None:
        both = c_present & t_present
        only_t = t_present & ~c_present
        z_vals = c_vals.copy()
        if both.any():
            z_vals[both] = accum.apply(c_vals[both], t_vals[both])
        z_vals[only_t] = t_vals[only_t]
        z_present = c_present | t_present
    else:
        z_vals = t_vals
        z_present = t_present

    if allowed is None:
        new_vals = z_vals.astype(out.type.dtype, copy=False)
        new_present = z_present
    else:
        new_present = np.where(allowed, z_present,
                               c_present if not replace else False)
        new_vals = np.where(allowed, z_vals, c_vals).astype(out.type.dtype,
                                                            copy=False)
    out._store(np.ascontiguousarray(new_vals), new_present)


def _as_semiring_parts(op: Union[Semiring, Monoid, BinaryOp]):
    if isinstance(op, Semiring):
        return op.add, op.mult
    raise InvalidValue("expected a Semiring")


def _mask_dense_bytes(mask) -> int:
    """Dense footprint of a vector mask (0 when unmasked)."""
    if mask is None:
        return 0
    return mask.size * mask.type.itemsize


def _is_full_diagonal(csr: CSRMatrix) -> bool:
    """True when the matrix has exactly one entry per row, on the diagonal."""
    if csr.nrows != csr.ncols or csr.nvals != csr.nrows:
        return False
    return bool(np.array_equal(csr.indices, csr.row_ids()))


def _swapped(mult: BinaryOp) -> BinaryOp:
    """mult with reversed operand order (for pull-mode vxm)."""
    if mult.name == "first":
        from repro.graphblas.ops import binary
        return binary("second")
    if mult.name == "second":
        from repro.graphblas.ops import binary
        return binary("first")
    return BinaryOp(BinaryFn(f"{mult.name}_swapped",
                             lambda a, b: mult.apply(b, a)))


# ----------------------------------------------------------------------
# Matrix-vector products
# ----------------------------------------------------------------------

def mxv(
    w: Vector,
    A: Matrix,
    u: Vector,
    semiring: Semiring,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, A (+.x) u)`` (GrB_mxv)."""
    csr = A.transposed_csr() if desc.transpose_a else A.csr
    nrows = csr.nrows if not desc.transpose_a else A.ncols
    if u.size != (A.ncols if not desc.transpose_a else A.nrows):
        raise DimensionMismatch("u length must match A's column count")
    if w.size != (A.nrows if not desc.transpose_a else A.ncols):
        raise DimensionMismatch("w length must match A's row count")
    add, mult = semiring.add, semiring.mult
    dtype = w.type.dtype

    u_idx, u_vals = u.to_pairs()
    dense_input = len(u_idx) == u.size
    _parallel.clear_fanout()
    if dense_input:
        # Pull (SDOT): iterate output rows, dot with the dense input.
        y_vals, touched, flops = _spmv.spmv_pull(
            csr, u.dense_values(), add.fn, mult, out_dtype=dtype)
        t_vals, t_present = y_vals, touched
        mode = "pull"
    else:
        # Push (SAXPY): scatter the explicit input entries along A's
        # columns, i.e. the rows of A-transpose.
        at = A.csr if desc.transpose_a else A.transposed_csr()
        y_idx, y_vals, flops = _spmv.mxv_push_transposed(
            at, u_idx, u_vals, add.fn, mult, out_dtype=dtype)
        t_vals = np.zeros(w.size, dtype=dtype)
        t_present = np.zeros(w.size, dtype=bool)
        t_vals[y_idx] = y_vals
        t_present[y_idx] = True
        mode = "push"

    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    if mode == "pull":
        weights = np.diff(csr.indptr) + 1
    else:
        at_deg = np.diff(at.indptr)
        weights = at_deg[u_idx] + 1
    w.backend.emit(OpEvent(
        kind="mxv", items=len(u_idx), flops=flops, mode=mode,
        masked=mask is not None, in_nvals=len(u_idx), out_nvals=w.nvals,
        mask_bytes=_mask_dense_bytes(mask),
        **_parallel.fanout_fields(),
    ), out=w, mat=A, weights=weights)
    return w


def vxm(
    w: Vector,
    u: Vector,
    A: Matrix,
    semiring: Semiring,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w'<mask> = accum(w, u' (+.x) A)`` (GrB_vxm)."""
    csr = A.transposed_csr() if desc.transpose_a else A.csr
    if u.size != csr.nrows:
        raise DimensionMismatch("u length must match A's row count")
    if w.size != csr.ncols:
        raise DimensionMismatch("w length must match A's column count")
    add, mult = semiring.add, semiring.mult
    dtype = w.type.dtype

    u_idx, u_vals = u.to_pairs()
    dense_input = len(u_idx) == u.size
    _parallel.clear_fanout()
    if dense_input:
        # Pull over columns: dot rows of A-transpose with dense u, with the
        # multiply order swapped back to (u, A).
        at = A.csr if desc.transpose_a else A.transposed_csr()
        y_vals, touched, flops = _spmv.spmv_pull(
            at, u.dense_values(), add.fn, _swapped(mult), out_dtype=dtype)
        t_vals, t_present = y_vals, touched
        mode = "pull"
    else:
        y_idx, y_vals, flops = _spmv.vxm_push(
            csr, u_idx, u_vals, add.fn, mult, out_dtype=dtype)
        t_vals = np.zeros(w.size, dtype=dtype)
        t_present = np.zeros(w.size, dtype=bool)
        t_vals[y_idx] = y_vals
        t_present[y_idx] = True
        mode = "push"

    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    if mode == "pull":
        weights = np.diff(at.indptr) + 1
    else:
        weights = np.diff(csr.indptr)[u_idx] + 1
    w.backend.emit(OpEvent(
        kind="vxm", items=len(u_idx), flops=flops, mode=mode,
        masked=mask is not None, in_nvals=len(u_idx), out_nvals=w.nvals,
        mask_bytes=_mask_dense_bytes(mask),
        **_parallel.fanout_fields(),
    ), out=w, mat=A, weights=weights)
    return w


# ----------------------------------------------------------------------
# Matrix-matrix product
# ----------------------------------------------------------------------

def mxm(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    semiring: Semiring,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
    method: Optional[str] = None,
) -> Matrix:
    """``C<mask> = accum(C, A (+.x) B)`` (GrB_mxm).

    Matrix masks are *structural* (all the study's algorithms use pattern
    masks); value masks on matrices are not supported.  The multiply method
    (SAXPY vs SDOT) is chosen by the backend unless forced via ``method``.
    """
    if mask is not None and not desc.mask_structure:
        raise InvalidValue("matrix masks are supported as structural only")
    if accum is not None:
        raise InvalidValue("mxm accumulators are not needed by the study")
    a_csr = A.transposed_csr() if desc.transpose_a else A.csr
    b_csr = B.transposed_csr() if desc.transpose_b else B.csr
    if a_csr.ncols != b_csr.nrows:
        raise DimensionMismatch("inner dimensions of A and B differ")
    add, mult = semiring.add, semiring.mult
    dtype = C.type.dtype

    # GaloisBLAS's diagonal-times-matrix fast path (§III-B): scale each row
    # of B by the matching diagonal entry of A, skipping SpGEMM entirely.
    if (C.backend.supports_diag_opt and mask is None
            and _is_full_diagonal(a_csr)):
        diag = np.zeros(a_csr.nrows, dtype=dtype)
        diag[:] = a_csr.value_array(dtype)
        result, flops = _spgemm.spgemm_diag_left(diag, b_csr, mult.fn,
                                                 out_dtype=dtype)
        C.replace_csr(result)
        C.backend.emit(OpEvent(
            kind="diag_mxm", items=result.nvals, flops=flops,
            out_nvals=result.nvals,
        ), out=C, mat2=B)
        return C

    chosen = method or C.backend.choose_mxm_method(a_csr, b_csr, mask)
    _parallel.clear_fanout()
    if mask is not None:
        if chosen == "dot":
            # SDOT wants B transposed; reuse the cache when possible.
            bt = B.csr if desc.transpose_b else B.transposed_csr()
            result, flops = _spgemm.spgemm_masked_dot(
                a_csr, bt, mask.csr, add.fn, mult.fn, out_dtype=dtype)
        else:
            result, flops = _spgemm.spgemm_masked_saxpy(
                a_csr, b_csr, mask.csr, add.fn, mult.fn, out_dtype=dtype)
    else:
        result, flops = _spgemm.spgemm_saxpy(
            a_csr, b_csr, add.fn, mult.fn, out_dtype=dtype)

    if desc.mask_comp:
        raise InvalidValue("complemented matrix masks are not supported")
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="mxm", items=result.nvals, flops=flops, method=chosen,
        masked=mask is not None, out_nvals=result.nvals,
        **_parallel.fanout_fields(),
    ), out=C, mat=A, mat2=B)
    return C


def mxm_support_update(C: Matrix, S: Matrix, prev: CSRMatrix) -> Matrix:
    """``C<S, replace> = S (+.pair) S'`` for a symmetric ``S``, derived from
    the previous round's supports instead of recomputed.

    ``prev`` is the previous support matrix: the previous candidate set's
    edges with non-zero support, valued with that support (the previous
    round's ``mxm`` output).  ``S`` must be a subset of its pattern.  Every
    triangle of the previous candidate set lies inside ``prev``, so the
    support of an edge of ``S`` is its ``prev`` value minus the triangles
    that the edges of ``prev`` missing from ``S`` destroy, found with one
    :func:`~repro.sparse.tricount.destroyed_triangle_edges` join.

    The result and the trace equal those of ``mxm(C, S, S, PLUS_PAIR,
    mask=S, desc=REPLACE_STRUCT)``: the transpose of ``S`` is built and
    charged as the dot method builds it, and the ``mxm`` event carries the
    dot method's flops, Σ deg(j) over the entries (i, j) of ``S``, which is
    derived from structure rather than from the work done here.
    """
    s_csr = S.csr
    if s_csr.nrows != s_csr.ncols or prev.nrows != s_csr.nrows:
        raise DimensionMismatch("support update wants square, equal shapes")
    # Positions of S's entries inside prev (both sorted by (row, col)).
    n = np.int64(prev.ncols)
    prev_keys = prev.row_ids() * n + prev.indices
    s_keys = s_csr.row_ids() * n + s_csr.indices
    kept = np.searchsorted(prev_keys, s_keys)
    if len(kept) and (kept[-1] >= prev.nvals
                      or not np.array_equal(prev_keys[kept], s_keys)):
        raise InvalidValue("S is not a subset of the previous supports")
    gone = np.ones(prev.nvals, dtype=bool)
    gone[kept] = False
    removed = np.flatnonzero(gone & (prev.indices > prev.row_ids()))
    twin = twin_positions(prev)
    survivors = destroyed_triangle_edges(prev, removed, twin)
    lost = np.bincount(survivors, minlength=prev.nvals)
    support = (prev.values[kept] - lost[kept] - lost[twin[kept]]).astype(
        C.type.dtype, copy=False)
    result = CSRMatrix(s_csr.nrows, s_csr.ncols, s_csr.indptr,
                       s_csr.indices, support).filter_entries(support > 0)
    bt = S.transposed_csr()
    flops = int(bt.row_degrees()[s_csr.indices].sum())
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="mxm", items=result.nvals, flops=flops, method="dot",
        masked=True, out_nvals=result.nvals,
    ), out=C, mat=S, mat2=S)
    return C


# ----------------------------------------------------------------------
# Element-wise operations
# ----------------------------------------------------------------------

def eWiseAdd(
    w: Vector,
    u: Vector,
    v: Vector,
    op: Union[BinaryOp, Monoid],
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u (+) v)`` — set *union* of patterns."""
    if u.size != v.size or u.size != w.size:
        raise DimensionMismatch("eWiseAdd operands must have equal size")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    u_p, v_p = u.present_mask(), v.present_mask()
    u_d, v_d = u.dense_values(), v.dense_values()
    t_present = u_p | v_p
    t_vals = np.zeros(w.size, dtype=w.type.dtype)
    both = u_p & v_p
    if both.any():
        t_vals[both] = binop.apply(u_d[both], v_d[both])
    only_u = u_p & ~v_p
    t_vals[only_u] = u_d[only_u]
    only_v = v_p & ~u_p
    t_vals[only_v] = v_d[only_v]

    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    w.backend.emit(OpEvent(
        kind="ewise_add", items=int(t_present.sum()), out_nvals=w.nvals,
        masked=mask is not None,
    ), out=w)
    return w


def eWiseMult(
    w: Vector,
    u: Vector,
    v: Vector,
    op: Union[BinaryOp, Monoid],
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u (x) v)`` — set *intersection* of patterns."""
    if u.size != v.size or u.size != w.size:
        raise DimensionMismatch("eWiseMult operands must have equal size")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    t_present = u.present_mask() & v.present_mask()
    t_vals = np.zeros(w.size, dtype=w.type.dtype)
    if t_present.any():
        t_vals[t_present] = binop.apply(
            u.dense_values()[t_present], v.dense_values()[t_present])

    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    w.backend.emit(OpEvent(
        kind="ewise_mult", items=int(t_present.sum()), out_nvals=w.nvals,
        masked=mask is not None,
    ), out=w)
    return w


# ----------------------------------------------------------------------
# Apply / select
# ----------------------------------------------------------------------

def apply(
    w: Vector,
    op: UnaryOp,
    u: Vector,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, op(u))`` (GrB_apply)."""
    if u.size != w.size:
        raise DimensionMismatch("apply operands must have equal size")
    t_present = u.present_mask()
    t_vals = np.zeros(w.size, dtype=w.type.dtype)
    if t_present.any():
        t_vals[t_present] = np.asarray(
            op.apply(u.dense_values()[t_present])).astype(w.type.dtype)
    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    w.backend.emit(OpEvent(
        kind="apply", items=int(t_present.sum()), out_nvals=w.nvals,
        masked=mask is not None,
    ), out=w)
    return w


_VALUE_SELECTORS = {
    "gt": lambda vals, thunk: vals > thunk,
    "ge": lambda vals, thunk: vals >= thunk,
    "lt": lambda vals, thunk: vals < thunk,
    "le": lambda vals, thunk: vals <= thunk,
    "eq": lambda vals, thunk: vals == thunk,
    "ne": lambda vals, thunk: vals != thunk,
}


def select(
    out: Union[Vector, Matrix],
    op_name: str,
    source: Union[Vector, Matrix],
    thunk=0,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Union[Vector, Matrix]:
    """``out<mask> = select(source, op, thunk)`` (GxB_select).

    Vector selectors: value comparisons (gt/ge/lt/le/eq/ne).  Matrix
    selectors additionally include ``tril``/``triu`` (strict, with ``thunk``
    as the diagonal offset) and ``diag``/``offdiag``.
    """
    if isinstance(source, Vector):
        if op_name not in _VALUE_SELECTORS:
            raise InvalidValue(f"unknown vector selector {op_name!r}")
        pred = _VALUE_SELECTORS[op_name]
        t_present = source.present_mask()
        vals = source.dense_values()
        keep = np.zeros(source.size, dtype=bool)
        keep[t_present] = pred(vals[t_present], thunk)
        t_vals = np.where(keep, vals, 0).astype(out.type.dtype)
        allowed = _mask_allowed(mask, out.size, desc)
        _write_back(out, t_vals, keep, allowed, accum, desc.replace)
        out.backend.emit(OpEvent(
            kind="select", items=int(t_present.sum()), out_nvals=out.nvals,
            masked=mask is not None,
        ), out=out)
        return out

    csr: CSRMatrix = source.csr
    rows = csr.row_ids()
    if op_name == "tril":
        keep = csr.indices <= rows + thunk
    elif op_name == "triu":
        keep = csr.indices >= rows + thunk
    elif op_name == "diag":
        keep = csr.indices == rows + thunk
    elif op_name == "offdiag":
        keep = csr.indices != rows + thunk
    elif op_name in _VALUE_SELECTORS:
        keep = _VALUE_SELECTORS[op_name](csr.value_array(), thunk)
    else:
        raise InvalidValue(f"unknown matrix selector {op_name!r}")
    result = csr.filter_entries(np.asarray(keep, dtype=bool))
    out.replace_csr(result)
    out.backend.emit(OpEvent(
        kind="select_matrix", items=csr.nvals, out_nvals=result.nvals,
    ), out=out)
    return out


# ----------------------------------------------------------------------
# Assign / extract
# ----------------------------------------------------------------------

def assign(
    w: Vector,
    value,
    indices=GrB_ALL,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask>(indices) = accum(w, value)`` (GrB_assign).

    ``value`` may be a scalar (GrB_Vector_assign_Scalar, as in Algorithm 2's
    initialization and distance update) or a Vector aligned with ``indices``.
    Duplicate indices with a min/max accumulator combine with the
    accumulator, which is the behaviour LAGraph's FastSV relies on.
    """
    t_vals = np.zeros(w.size, dtype=w.type.dtype)
    t_present = np.zeros(w.size, dtype=bool)

    if isinstance(value, Vector):
        src_idx, src_vals = value.to_pairs()
        if indices is GrB_ALL:
            if value.size != w.size:
                raise DimensionMismatch("assign source must match w's size")
            t_vals[src_idx] = src_vals.astype(w.type.dtype)
            t_present[src_idx] = True
            n_processed = len(src_idx)
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if value.size != len(idx):
                raise DimensionMismatch("assign source must match index count")
            # Only explicit entries of the source are assigned.
            targets = idx[src_idx]
            vals = src_vals.astype(w.type.dtype)
            if accum is not None and accum.name in ("min", "max"):
                fill = (np.iinfo(w.type.dtype).max
                        if w.type.dtype.kind in "iu" else np.inf)
                if accum.name == "max":
                    fill = (np.iinfo(w.type.dtype).min
                            if w.type.dtype.kind in "iu" else -np.inf)
                combine = np.full(w.size, fill, dtype=w.type.dtype)
                scatter_reduce(combine, targets, vals, accum.name)
                touched = np.zeros(w.size, dtype=bool)
                touched[targets] = True
                t_vals[touched] = combine[touched]
                t_present = touched
            else:
                t_vals[targets] = vals
                t_present[targets] = True
            n_processed = len(targets)
    else:
        if indices is GrB_ALL:
            t_vals[:] = value
            t_present[:] = True
            n_processed = w.size
        else:
            idx = np.asarray(indices, dtype=np.int64)
            t_vals[idx] = value
            t_present[idx] = True
            n_processed = len(idx)

    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    if mask is not None:
        # Both implementations exploit mask sparsity (§III): a masked
        # assign touches the mask's explicit entries, not all of w.
        n_processed = min(n_processed, max(mask.nvals, 1))
    w.backend.emit(OpEvent(
        kind="assign", items=n_processed, out_nvals=w.nvals,
        masked=mask is not None,
    ), out=w)
    return w


def extract(
    w: Vector,
    u: Vector,
    indices,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u(indices))`` (GrB_extract) — a gather.

    Duplicate indices are allowed (FastSV gathers grandparents with
    ``extract(gp, f, f)``).
    """
    if indices is GrB_ALL:
        idx = np.arange(u.size, dtype=np.int64)
    else:
        idx = np.asarray(indices, dtype=np.int64)
    if w.size != len(idx):
        raise DimensionMismatch("w length must equal the index count")
    src_present = u.present_mask()
    src_vals = u.dense_values()
    t_present = src_present[idx]
    t_vals = np.where(t_present, src_vals[idx], 0).astype(w.type.dtype)
    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    w.backend.emit(OpEvent(
        kind="extract", items=len(idx), out_nvals=w.nvals,
        masked=mask is not None, gather=True,
    ), out=w)
    return w


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def reduce_to_scalar(source: Union[Vector, Matrix], mon: Monoid):
    """``s = reduce(source)`` over explicit entries (GrB_reduce)."""
    if isinstance(source, Vector):
        idx, vals = source.to_pairs()
        result = mon.reduce_all(vals, dtype=source.type.dtype)
        source.backend.emit(OpEvent(kind="reduce_vector", items=len(idx)),
                            out=source)
        return result
    vals = source.csr.value_array(source.type.dtype)
    result = mon.reduce_all(vals, dtype=source.type.dtype)
    source.backend.emit(OpEvent(kind="reduce_matrix", items=source.nvals),
                        out=source)
    return result


def reduce_to_vector(
    w: Vector,
    A: Matrix,
    mon: Monoid,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, reduce_rows(A))``; transpose_a reduces columns."""
    csr = A.transposed_csr() if desc.transpose_a else A.csr
    if w.size != csr.nrows:
        raise DimensionMismatch("w length must match the reduced dimension")
    from repro.sparse.semiring_ops import SegmentReducer

    rows = csr.row_ids()
    reducer = SegmentReducer(mon.fn)
    # Row expansions are sorted by construction: presorted reduceat path.
    t_vals = reducer.reduce(csr.value_array(w.type.dtype), rows, csr.nrows,
                            dtype=w.type.dtype, row_splits=csr.indptr,
                            cache_on=csr)
    t_present = csr.row_degrees() > 0
    allowed = _mask_allowed(mask, w.size, desc)
    _write_back(w, t_vals, t_present, allowed, accum, desc.replace)
    w.backend.emit(OpEvent(
        kind="reduce_matrix_to_vector", items=csr.nvals, out_nvals=w.nvals,
    ), out=w, mat=A)
    return w


# ----------------------------------------------------------------------
# Matrix element-wise operations
# ----------------------------------------------------------------------

def eWiseAddMatrix(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    op: Union[BinaryOp, Monoid],
) -> Matrix:
    """``C = A (+) B`` — pattern *union* on matrices (GrB_eWiseAdd).

    Matrix masks/accumulators are not needed by the study's algorithms and
    are not supported here; the vector forms carry the full semantics.
    """
    if A.nrows != B.nrows or A.ncols != B.ncols:
        raise DimensionMismatch("eWiseAddMatrix operands differ in shape")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    result = _combine_matrices(A.csr, B.csr, binop, union=True,
                               dtype=C.type.dtype)
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="ewise_matrix", items=A.nvals + B.nvals,
        out_nvals=result.nvals,
    ), out=C)
    return C


def eWiseMultMatrix(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    op: Union[BinaryOp, Monoid],
) -> Matrix:
    """``C = A (x) B`` — pattern *intersection* on matrices."""
    if A.nrows != B.nrows or A.ncols != B.ncols:
        raise DimensionMismatch("eWiseMultMatrix operands differ in shape")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    result = _combine_matrices(A.csr, B.csr, binop, union=False,
                               dtype=C.type.dtype)
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="ewise_matrix", items=A.nvals + B.nvals,
        out_nvals=result.nvals,
    ), out=C)
    return C


def applyMatrix(C: Matrix, op: UnaryOp, A: Matrix) -> Matrix:
    """``C = op(A)`` element-wise over A's explicit entries (GrB_apply)."""
    if A.nrows != C.nrows or A.ncols != C.ncols:
        raise DimensionMismatch("applyMatrix operands differ in shape")
    vals = np.asarray(op.apply(A.csr.value_array(C.type.dtype)))
    result = CSRMatrix(A.nrows, A.ncols, A.csr.indptr.copy(),
                       A.csr.indices.copy(),
                       vals.astype(C.type.dtype, copy=False))
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="ewise_matrix", items=A.nvals, out_nvals=result.nvals,
    ), out=C)
    return C


def _combine_matrices(a: CSRMatrix, b: CSRMatrix, binop: BinaryOp,
                      union: bool, dtype) -> CSRMatrix:
    """Key-aligned union/intersection combine of two CSR matrices."""
    from repro.sparse.csr import build_csr

    a_rows = a.row_ids()
    b_rows = b.row_ids()
    a_keys = a_rows * a.ncols + a.indices
    b_keys = b_rows * b.ncols + b.indices
    a_vals = a.value_array(dtype)
    b_vals = b.value_array(dtype)

    pos_in_b = np.searchsorted(b_keys, a_keys)
    pos_clip = np.minimum(pos_in_b, max(len(b_keys) - 1, 0))
    matched = (b_keys[pos_clip] == a_keys) if len(b_keys) else         np.zeros(len(a_keys), dtype=bool)

    both_keys = a_keys[matched]
    both_vals = np.asarray(binop.apply(a_vals[matched],
                                       b_vals[pos_clip[matched]]))
    if union:
        only_a = ~matched
        in_a = np.zeros(len(b_keys), dtype=bool)
        in_a[pos_clip[matched]] = True
        keys = np.concatenate([both_keys, a_keys[only_a], b_keys[~in_a]])
        vals = np.concatenate([both_vals.astype(dtype),
                               a_vals[only_a].astype(dtype),
                               b_vals[~in_a].astype(dtype)])
    else:
        keys, vals = both_keys, both_vals.astype(dtype)
    rows = keys // a.ncols
    cols = keys % a.ncols
    return build_csr(a.nrows, a.ncols, rows, cols, vals, dedup="error")


def extractMatrix(C: Matrix, A: Matrix, row_indices, col_indices) -> Matrix:
    """``C = A(I, J)`` — submatrix extraction (GrB_Matrix_extract).

    ``row_indices`` / ``col_indices`` are index arrays or ``GrB_ALL``;
    duplicate indices are permitted (rows/columns are then replicated).
    """
    from repro.sparse.csr import build_csr

    rows = (np.arange(A.nrows, dtype=np.int64) if row_indices is GrB_ALL
            else np.asarray(row_indices, dtype=np.int64))
    cols = (np.arange(A.ncols, dtype=np.int64) if col_indices is GrB_ALL
            else np.asarray(col_indices, dtype=np.int64))
    if C.nrows != len(rows) or C.ncols != len(cols):
        raise DimensionMismatch("C's shape must match the index counts")
    if len(rows) and (rows.min() < 0 or rows.max() >= A.nrows):
        raise InvalidValue("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= A.ncols):
        raise InvalidValue("col index out of range")

    # Column remap: old id -> list of new positions (duplicates allowed).
    from repro.sparse.csr import expand_ranges, gather_rows

    src = A.csr
    cat_cols, positions, seg = gather_rows(src, rows)
    n_processed = len(cat_cols)
    if n_processed:
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        lo = np.searchsorted(sorted_cols, cat_cols, side="left")
        hi = np.searchsorted(sorted_cols, cat_cols, side="right")
        counts = hi - lo
        keep = counts > 0
        # Expand entries whose column appears multiple times in J.
        rep = counts[keep]
        out_rows = np.repeat(seg[keep], rep)
        out_cols = order[expand_ranges(lo[keep], hi[keep])]
        vals = None
        if src.values is not None:
            vals = np.repeat(src.values[positions[keep]], rep)
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=np.int64)
        vals = None if src.values is None else np.empty(0, src.values.dtype)
    result = build_csr(len(rows), len(cols), out_rows, out_cols,
                       None if vals is None else
                       vals.astype(C.type.dtype, copy=False),
                       dedup="last")
    C.replace_csr(result)
    C.backend.emit(OpEvent(
        kind="select_matrix", items=n_processed, out_nvals=result.nvals,
    ), out=C)
    return C
