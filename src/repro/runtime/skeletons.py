"""Fused-operator skeletons (runtime integration, Figure 4).

The hand-coded skeletons implement the data access over dense, sparse,
and compressed matrices — depending on sparse-safeness over cells or
non-zero values — and call the generated code per tile / row /
non-zero batch.  Generated operators only override ``genexec`` (plus
the whole-value ``genkernel`` of :mod:`repro.codegen.npgen`), which
keeps them lean; the skeletons own tiling, aggregation, and output
assembly.

Dispatch is one table, :data:`_DRIVERS`, keyed by ``(template, main
format)``.  Each entry names the *interpreted* driver (loops around
``genexec``: the differential oracle and the fallback) and the
*compiled* driver (around the operator's vectorized kernel):

* Cell/MAgg over dense: row tiles vs one whole-array ``genkernel`` call
  with the aggregation folded in (einsum when eligible),
* Cell/MAgg over CSR (sparse-safe plans): one driver for both tiers,
  ``genexec`` over non-zero batches bounded by a cell budget,
* Cell/MAgg over compressed (dictionary-direct plans, Figure 9): one
  driver for both tiers, ``genexec`` over each column's distinct values
  combined with their counts,
* Row over dense/CSR: row tiles vs one whole-block ``genkernel`` call
  (run on the CSR directly only when the body is CSR-main-safe),
* Outer over dense/CSR: per-row ``genexec`` vs batched row ranges with
  the U/V/W products folded into block matmuls.

CSR mains of Cell plans that are not sparse-safe read densely, and
compressed mains outside the dictionary-direct conditions decompress
to dense first.  Element-wise and row-aligned kernels reproduce the
interpreted results bit-identically; kernels that reassociate an
aggregation (whole-array sums, einsum) match within
:data:`KERNEL_COMPARE_RTOL`.

Large operators additionally execute *intra-operator parallel*: the
main input splits into a fixed number of row partitions (dense slices,
CSR row ranges, compressed column-group views) that run on the shared
worker pool (:mod:`repro.runtime.parallel`) with thread-local partial
results.  Row-aligned outputs concatenate; aggregating outputs combine
through :func:`reduce_spoof_partials` over the fixed-topology
:func:`tree_reduce` — the same combine path the simulated distributed
backend charges network traffic for — so parallel results are
deterministic run-to-run.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.cplan import Access, CPlan, OutType, compressed_cell_eligible
from repro.codegen.template import TemplateType
from repro.errors import RuntimeExecError
from repro.obs import trace as obs_trace
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock, recommend_format
from repro.runtime.parallel import run_tasks
from repro.runtime.sideinput import SideInput

_TILE_CELLS = 1 << 18

#: Cell budget of the non-zero batches (Cell over CSR) and of the
#: batched Outer driver's row ranges, where a batch holds roughly this
#: many (nnz x rank) gather cells.
_KERNEL_CHUNK_CELLS = 1 << 22

#: Relative tolerance for compiled-vs-interpreted comparisons where the
#: vectorized kernel reassociates an aggregation (whole-array einsum/sum
#: vs the tile-loop combine chain).  Order-preserving kernels
#: (element-wise, row-wise) are compared exactly.
KERNEL_COMPARE_RTOL = 1e-9

_CELL_TEMPLATES = (TemplateType.CELL, TemplateType.MAGG)

#: Output variants whose partition-wise results are row-aligned with the
#: main input — the distributed backend keeps them as a BlockedMatrix.
_ROW_PARTITIONED_OUT = frozenset({
    OutType.NO_AGG,
    OutType.ROW_AGG,
    OutType.OUTER_NO_AGG,
    OutType.OUTER_RIGHT,
})


def is_row_partitioned_output(out_type: OutType) -> bool:
    """True when partition-wise execution yields row-aligned blocks."""
    return out_type in _ROW_PARTITIONED_OUT


def partition_bounds(rows: int, n_partitions: int) -> list[tuple[int, int]]:
    """Contiguous row ranges splitting ``rows`` into ``n_partitions``.

    Shared by the local intra-op partitioner and the distributed
    backend's :class:`~repro.runtime.distributed.BlockedMatrix`, so both
    execution strategies partition (and therefore reassociate
    aggregations) identically for a given partition count.
    """
    if rows <= 0:
        return []
    n_partitions = max(1, min(n_partitions, rows))
    step = (rows + n_partitions - 1) // n_partitions
    return [(r0, min(rows, r0 + step)) for r0 in range(0, rows, step)]


def tree_reduce(partials: list, combine) -> tuple[object, int]:
    """Pairwise tree-reduction with a *fixed* topology.

    Partial ``i`` always combines with partial ``i+1`` per level, so a
    given partition count yields bit-identical results run-to-run — the
    property the determinism tests pin down.  Returns ``(result,
    levels)``; both the local intra-op combiner and the simulated
    distributed backend (which additionally charges network traffic per
    level) reduce through this one topology.
    """
    parts = list(partials)
    if not parts:
        raise RuntimeExecError("tree_reduce over zero partials")
    levels = 0
    while len(parts) > 1:
        merged = [
            combine(parts[i], parts[i + 1])
            for i in range(0, len(parts) - 1, 2)
        ]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
        levels += 1
    return parts[0], levels


def reduce_spoof_partials(cplan: CPlan, partials: list, tree_reduce):
    """Combine per-partition partials of an aggregating fused operator.

    ``tree_reduce(parts, combine) -> (result, levels)`` is supplied by
    the caller: the local intra-op path passes :func:`tree_reduce`
    directly, the distributed backend wraps it to charge the combine
    topology's network traffic.  Returns the combined value plus the
    number of reduction levels.
    """
    out = cplan.out_type
    if out in (OutType.FULL_AGG, OutType.OUTER_FULL_AGG):
        agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"
        return tree_reduce(
            [float(p) for p in partials],
            lambda a, b: float(_combine(np.float64(a), b, agg)),
        )
    if out in (OutType.COL_AGG, OutType.COL_AGG_T, OutType.OUTER_LEFT):
        agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"

        def combine_blocks(a, b):
            return MatrixBlock(_combine(a.to_dense(), b.to_dense(), agg))

        return tree_reduce(partials, combine_blocks)
    if out is OutType.MULTI_AGG:
        # k x 1 partials; each root row combines under its own agg op.
        def combine_multi(a, b):
            a_arr, b_arr = a.to_dense(), b.to_dense()
            merged = np.empty_like(a_arr)
            for k in range(a_arr.shape[0]):
                agg = cplan.agg_ops[k] if k < len(cplan.agg_ops) else "sum"
                merged[k] = _combine(a_arr[k], b_arr[k], agg)
            return MatrixBlock(merged)

        return tree_reduce(partials, combine_multi)
    raise RuntimeExecError(f"non-aggregating out type {out}")


def execute_operator(operator, inputs: list, config, stats=None,
                     allow_parallel: bool = True):
    """Execute a generated fused operator on runtime values.

    ``inputs`` parallels ``operator.cplan.inputs``: MatrixBlock /
    CompressedMatrix for matrix bindings, floats for scalars.

    When the main input is large enough and ``intra_op_threads`` allows,
    it is split into row partitions (dense slices, CSR row ranges,
    compressed column-group views) executed on the shared worker pool
    with thread-local partial results, which combine through the fixed
    :func:`tree_reduce` topology.  ``allow_parallel=False`` keeps the
    serial skeletons — the distributed backend sets it for its
    per-partition calls so partitions never nest another fan-out.
    """
    cplan = operator.cplan
    if stats is not None:
        stats.record_spoof(cplan.ttype.value)
    inputs = _consult_observed_sparsity(cplan, inputs, config, stats)
    if stats is not None and isinstance(_main_of(cplan, inputs),
                                        CompressedMatrix):
        # Dictionary-compatible plans run over distinct values only;
        # everything else decompresses inside the skeleton below.
        if compressed_cell_eligible(cplan):
            stats.n_compressed_ops += 1
        else:
            stats.n_decompressions += 1
    # Side inputs are consumed through dense/CSR tile access in every
    # skeleton (only the main input has a dictionary-direct path), so
    # compressed sides decompress once here, explicitly and counted.
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if isinstance(value, CompressedMatrix):
            if stats is not None:
                stats.n_decompressions += 1
            inputs = list(inputs)
            inputs[idx] = value.decompress()
    # Tier resolution happens once, before partitioning, so every
    # intra-op partition of this execution runs the same driver and
    # the run counters count one execution each.
    kernel = resolve_kernel(operator, config, stats)
    if kernel is not None and not _kernel_supported(kernel, cplan, inputs):
        kernel = None
    if stats is not None:
        if kernel is not None:
            stats.n_compiled_runs += 1
        else:
            stats.n_interpreted_runs += 1
    tracer = stats.tracer if stats is not None else obs_trace.NULL_TRACER
    tier = "interpreted" if kernel is None else "kernel"
    if tracer.level >= obs_trace.INSTRUCTIONS:
        # Enrich the executor's enclosing instruction span (same
        # thread) with what the profiler attributes per operator.
        tracer.annotate(template=cplan.ttype.value, tier=tier,
                        fmt=_main_input_format(cplan, inputs))
    with tracer.span(f"op:{cplan.ttype.value}", cat="operator",
                     level=obs_trace.FULL, tier=tier):
        if allow_parallel and config.effective_intra_op_threads() > 1:
            plan = _plan_intra_op(cplan, inputs, config)
            if plan is not None:
                return _execute_intra_op(operator, plan, config, stats,
                                         kernel=kernel)
        return _execute_serial(operator, inputs, kernel=kernel)


def resolve_kernel(operator, config, stats=None):
    """The operator's compiled kernel, compiled on first use.

    Returns ``None`` — stay interpreted — when ``vectorized_kernels``
    is off or an earlier compile of this operator failed (a failure
    pins the operator to the interpreted tier permanently).  The kernel
    lands on the shared :class:`~repro.codegen.pygen.GeneratedOperator`,
    so every program, serving specialization, and adaptive recompile
    that reuses the operator through the plan cache shares one compiled
    kernel.
    """
    if not config.vectorized_kernels:
        return None
    with operator.lock:
        if operator.kernel is not None:
            return operator.kernel
        if operator.kernel_failed:
            return None
        from repro.codegen.npgen import compile_kernel

        tracer = (stats.tracer if stats is not None
                  else obs_trace.NULL_TRACER)
        try:
            with tracer.span("kernel-compile", cat="kernel",
                             op=operator.name,
                             template=operator.cplan.ttype.value):
                kernel = compile_kernel(operator.cplan, config, stats)
        except Exception:
            operator.kernel_failed = True
            if stats is not None:
                stats.n_kernel_failures += 1
            return None
        operator.kernel = kernel
    if stats is not None:
        stats.n_kernel_compiles += 1
    return kernel


def _main_of(cplan: CPlan, inputs: list):
    """The operator's main input value, or None without one."""
    if 0 <= cplan.main_index < len(inputs):
        return inputs[cplan.main_index]
    return None


def _main_input_format(cplan: CPlan, inputs: list) -> str:
    """Storage format of the operator's main input."""
    main = _main_of(cplan, inputs)
    if isinstance(main, CompressedMatrix):
        return "compressed"
    if isinstance(main, MatrixBlock):
        return "csr" if main.is_sparse else "dense"
    return "scalar"


def _dispatch_format(cplan: CPlan, main) -> str:
    """The main-format half of the :data:`_DRIVERS` key.

    Compressed mains stay compressed only for dictionary-direct plans
    (everything else decompresses to dense), and CSR mains of Cell
    plans that are not sparse-safe read densely.
    """
    if isinstance(main, CompressedMatrix):
        return "compressed" if compressed_cell_eligible(cplan) else "dense"
    if not isinstance(main, MatrixBlock):
        raise RuntimeExecError(
            f"{cplan.ttype.value} operator without matrix main input"
        )
    if main.is_sparse and (cplan.sparse_safe
                           or cplan.ttype not in _CELL_TEMPLATES):
        return "csr"
    return "dense"


def _kernel_supported(kernel, cplan: CPlan, inputs: list) -> bool:
    """Whether the compiled driver can execute these runtime inputs.

    Decided once per operator execution — before partitioning — so all
    intra-op partitions run the same tier.  The one unsupported cell of
    the table is a CSR Row main whose body is not CSR-main-safe: it
    runs the interpreted tiles, which densify one tile at a time.
    """
    fmt = _dispatch_format(cplan, _main_of(cplan, inputs))
    return not (cplan.ttype is TemplateType.ROW and fmt == "csr"
                and not kernel.csr_main_safe)


def _consult_observed_sparsity(cplan: CPlan, inputs: list, config,
                               stats=None) -> list:
    """Observed-sparsity format consult for sparse-safe plans.

    A dense-stored main input whose *actual* density falls below the
    shared threshold switches to CSR before partitioning/execution, so
    sparse-safe skeletons (and the intra-op partitioner's CSR row-range
    slicing) run over non-zeros even when the compiler's estimate —
    or the producer's storage choice — said dense.  Gated by
    ``adaptive_recompile`` so estimate-frozen baselines stay frozen.
    """
    if not (config.adaptive_recompile and cplan.sparse_safe):
        return inputs
    main = _main_of(cplan, inputs)
    if not isinstance(main, MatrixBlock) or main.is_sparse:
        return inputs
    fmt = recommend_format(
        main.rows, main.cols, main.nnz, config.sparse_threshold
    )
    if fmt != "sparse":
        return inputs
    if stats is not None:
        stats.n_format_conversions += 1
    inputs = list(inputs)
    inputs[cplan.main_index] = MatrixBlock(main.to_csr())
    return inputs


def _execute_serial(operator, inputs: list, kernel=None):
    """Run one (partition of an) operator through the driver table.

    With a resolved ``kernel`` the entry's compiled driver runs; a
    driver failure pins the operator back to the interpreted tier and
    re-executes these inputs interpreted (same inputs, same result
    contract), so a kernel bug can never fail a run the interpreted
    skeletons would have completed.
    """
    cplan = operator.cplan
    main = _main_of(cplan, inputs)
    fmt = _dispatch_format(cplan, main)
    if fmt == "dense" and isinstance(main, CompressedMatrix):
        inputs = list(inputs)
        inputs[cplan.main_index] = main.decompress()
    interpreted, compiled = _DRIVERS[(cplan.ttype, fmt)]
    if kernel is not None:
        try:
            return compiled(operator, inputs, kernel)
        except Exception:
            with operator.lock:
                operator.kernel = None
                operator.kernel_failed = True
    return interpreted(operator, inputs)


# ----------------------------------------------------------------------
# Intra-operator parallel execution
# ----------------------------------------------------------------------
def _plan_intra_op(cplan: CPlan, inputs: list, config):
    """Per-partition input lists, or None when serial execution wins.

    The partition count is ``config.effective_intra_op_threads()`` —
    fixed by configuration, never by the tokens the thread budget later
    grants — so a given (config, input shape) pair always produces the
    same partitioning and combine topology.
    """
    n_parts = config.effective_intra_op_threads()
    main_index = cplan.main_index
    if main_index < 0 or main_index >= len(inputs):
        return None
    main = inputs[main_index]
    if isinstance(main, CompressedMatrix):
        if main.rows * main.cols < config.intra_op_min_cells:
            return None
        if compressed_cell_eligible(cplan):
            return _plan_group_partitions(main, inputs, main_index, n_parts)
        if main.rows < 2 * n_parts:
            return None  # gate on metadata before materializing anything
        # Dictionary-only execution does not apply: decompress once here
        # (instead of once per partition) and row-partition the result.
        inputs = list(inputs)
        inputs[main_index] = main.decompress()
        main = inputs[main_index]
    if not isinstance(main, MatrixBlock):
        return None
    rows, cols = main.shape
    if rows * cols < config.intra_op_min_cells or rows < 2 * n_parts:
        return None
    bounds = partition_bounds(rows, n_parts)
    if len(bounds) < 2:
        return None
    if main.is_sparse:
        csr = main.to_csr()
        main_parts = [MatrixBlock(csr[r0:r1]) for r0, r1 in bounds]
    else:
        arr = main.to_dense()
        main_parts = [MatrixBlock(arr[r0:r1]) for r0, r1 in bounds]
    sliceable = sliceable_spoof_inputs(cplan, inputs, rows)
    part_inputs = []
    for p, (r0, r1) in enumerate(bounds):
        values = []
        for idx, value in enumerate(inputs):
            if idx == main_index:
                values.append(main_parts[p])
            elif idx in sliceable:
                values.append(_row_slice(value, r0, r1))
            else:
                values.append(value)
        part_inputs.append(values)
    return part_inputs


def _plan_group_partitions(main: CompressedMatrix, inputs: list,
                           main_index: int, n_parts: int):
    """Split a compressed main input by column groups.

    Valid only under :func:`compressed_cell_eligible` (sum-aggregated
    sparse-safe cell plans without side inputs): each partition sums its
    groups' dictionary contributions independently, and the per-group
    sums add up to the full result exactly as the serial group loop
    does.
    """
    groups = main.groups
    if len(groups) < 2:
        return None
    n_parts = min(n_parts, len(groups))
    bounds = partition_bounds(len(groups), n_parts)
    part_inputs = []
    for g0, g1 in bounds:
        # Each view carries its column-share of the parent's
        # uncompressed bytes, so per-view compression ratios (and any
        # size-based accounting) stay proportional instead of every
        # view claiming the full matrix.
        share = sum(len(g.cols) for g in groups[g0:g1]) / max(main.cols, 1)
        view = CompressedMatrix(
            main.rows, main.cols, groups[g0:g1],
            main.uncompressed_bytes * share,
        )
        values = list(inputs)
        values[main_index] = view
        part_inputs.append(values)
    return part_inputs


def _row_slice(block: MatrixBlock, r0: int, r1: int) -> MatrixBlock:
    if block.is_sparse:
        return MatrixBlock(block.to_csr()[r0:r1])
    return MatrixBlock(block.to_dense()[r0:r1])


def _execute_intra_op(operator, part_inputs: list, config, stats,
                      kernel=None):
    cplan = operator.cplan
    tasks = [
        (lambda values: lambda: _execute_serial(
            operator, values, kernel=kernel))(pv)
        for pv in part_inputs
    ]
    partials, workers = run_tasks(
        tasks, limit=config.thread_budget or None
    )
    if is_row_partitioned_output(cplan.out_type):
        result = _concat_row_partials(partials)
        levels = 0
    else:
        result, levels = reduce_spoof_partials(cplan, partials, tree_reduce)
    if stats is not None:
        stats.n_intra_op_parallel += 1
        stats.n_intra_op_partitions += len(part_inputs)
        stats.intra_op_combine_levels += levels
        stats.intra_op_max_threads = max(stats.intra_op_max_threads, workers)
    return result


def _concat_row_partials(partials: list) -> MatrixBlock:
    """Stack row-aligned partition outputs back into one block."""
    import scipy.sparse as sp

    blocks = [
        p if isinstance(p, MatrixBlock) else MatrixBlock(p) for p in partials
    ]
    if all(not b.is_sparse for b in blocks):
        stacked = np.concatenate([b.to_dense() for b in blocks], axis=0)
        return MatrixBlock(stacked).examine_representation()
    stacked = sp.vstack([b.to_csr() for b in blocks], format="csr")
    return MatrixBlock(stacked).examine_representation()


def decompress_side_inputs(cplan: CPlan, values: list,
                           main_rows: int) -> list:
    """Decompress the row-aligned compressed side inputs.

    Compressed blocks cannot be row-sliced, so a *row-aligned*
    compressed side MUST decompress before partition-wise execution —
    otherwise :func:`sliceable_spoof_inputs` skips it and every
    partition reads rows ``[0, len)`` of the full side through
    partition-local indices.  The distributed path calls this and keeps
    non-aligned sides compressed, since it charges broadcast traffic
    for the compressed representation; the local partitioner never
    sees compressed sides (:func:`execute_operator` decompresses them
    first).
    """
    normalized = list(values)
    for idx, (spec, value) in enumerate(zip(cplan.inputs, normalized)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if not isinstance(value, CompressedMatrix):
            continue
        if value.rows == main_rows > 1 or idx in (cplan.u_index,
                                                  cplan.w_index):
            normalized[idx] = value.decompress()
    return normalized


def sliceable_spoof_inputs(cplan: CPlan, values: list,
                           main_rows: int) -> set[int]:
    """Indices of side inputs that are row-aligned with the main input
    and therefore sliced to each partition's row range.  Shared by the
    local intra-op partitioner and the distributed backend."""
    sliceable: set[int] = set()
    for idx, (spec, value) in enumerate(zip(cplan.inputs, values)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if not isinstance(value, MatrixBlock):
            continue
        if cplan.ttype is TemplateType.OUTER:
            # U is row-aligned by construction; W is row-aligned only
            # for the left-multiply accumulation; V never is.
            if idx == cplan.u_index:
                sliceable.add(idx)
            elif idx == cplan.w_index:
                if cplan.out_type is OutType.OUTER_LEFT:
                    sliceable.add(idx)
            elif idx != cplan.v_index and value.rows == main_rows > 1:
                sliceable.add(idx)
        elif (spec.access is Access.SIDE_ROW
              and value.rows == main_rows > 1):
            sliceable.add(idx)
    return sliceable


# ----------------------------------------------------------------------
# Shared input preparation
# ----------------------------------------------------------------------
def _split_inputs(cplan: CPlan, inputs: list):
    main = None
    sides: list = []
    scalars: list[float] = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx == cplan.main_index:
            main = value
        elif spec.access is Access.SCALAR:
            scalars.append(_as_float(value))
        else:
            sides.append((spec, value))
    return main, sides, scalars


def _as_float(value) -> float:
    if isinstance(value, MatrixBlock):
        return value.as_scalar()
    return float(value)


def _tile_rows(rows: int, cols: int) -> int:
    return max(16, min(rows, _TILE_CELLS // max(1, cols)))


def _csr_row_chunks(indptr, rows: int, budget_nnz: int):
    """Row ranges whose non-zero counts fit the cell budget.

    A single row larger than the budget forms its own chunk, so the
    generator always advances.
    """
    r0 = 0
    while r0 < rows:
        target = indptr[r0] + budget_nnz
        r1 = int(np.searchsorted(indptr, target, side="left"))
        r1 = min(rows, max(r1, r0 + 1))
        yield r0, r1, int(indptr[r0]), int(indptr[r1])
        r0 = r1


def _combine(acc, value, agg: str):
    if acc is None:
        return value
    if agg == "sum":
        return acc + value
    if agg == "min":
        return np.minimum(acc, value)
    if agg == "max":
        return np.maximum(acc, value)
    raise RuntimeExecError(f"unknown aggregation '{agg}'")


# ----------------------------------------------------------------------
# Cell / MultiAgg drivers
# ----------------------------------------------------------------------
def _cell_finalize(cplan: CPlan, accs, out):
    if cplan.out_type is OutType.NO_AGG:
        return MatrixBlock(out).examine_representation()
    if cplan.out_type is OutType.FULL_AGG:
        return float(accs[0])
    if cplan.out_type is OutType.MULTI_AGG:
        return MatrixBlock(np.array([[float(a)] for a in accs]))
    if cplan.out_type is OutType.ROW_AGG:
        return MatrixBlock(out)
    if cplan.out_type is OutType.COL_AGG:
        return MatrixBlock(accs[0].reshape(1, -1))
    raise RuntimeExecError(f"bad cell out type {cplan.out_type}")


def _cell_tiles(operator, inputs):
    """Interpreted dense Cell/MAgg: ``genexec`` per row tile."""
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    rows, cols = main.shape
    arr = main.to_dense()
    side_inputs = [SideInput(v) for (_, v) in sides]
    bs = _tile_rows(rows, cols)
    agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"

    # Output shapes derive from the runtime inputs: operators are
    # size-generic and shared across matrix sizes via the plan cache.
    out = None
    if cplan.out_type is OutType.ROW_AGG:
        out = np.empty((rows, 1))
    accs = [None] * max(1, len(cplan.roots))

    reducer = {"sum": np.sum, "min": np.min, "max": np.max}[agg]
    for r0 in range(0, rows, bs):
        r1 = min(rows, r0 + bs)
        tile = arr[r0:r1]
        side_tiles = [s.row_tile(r0, r1) for s in side_inputs]
        value = operator.genexec(tile, side_tiles, scalars)
        if cplan.out_type is OutType.NO_AGG:
            if out is None:
                out = np.empty((rows, np.shape(value)[-1]))
            out[r0:r1] = np.broadcast_to(value, (r1 - r0, out.shape[1]))
        elif cplan.out_type is OutType.ROW_AGG:
            out[r0:r1] = reducer(np.broadcast_to(value, tile.shape), axis=1, keepdims=True)
        elif cplan.out_type is OutType.COL_AGG:
            tile_val = reducer(np.broadcast_to(value, tile.shape), axis=0)
            accs[0] = _combine(accs[0], tile_val, agg)
        elif cplan.out_type is OutType.FULL_AGG:
            accs[0] = _combine(accs[0], reducer(value), agg)
        else:  # MULTI_AGG
            for k, part in enumerate(value):
                red = {"sum": np.sum, "min": np.min, "max": np.max}[cplan.agg_ops[k]]
                accs[k] = _combine(accs[k], red(part), cplan.agg_ops[k])
    return _cell_finalize(cplan, accs, out)


def _cell_kernel(operator, inputs, kernel):
    """Compiled dense Cell/MAgg: one whole-array ``genkernel`` call."""
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    side_tiles = [SideInput(v).row_tile(0, main.rows) for (_, v) in sides]
    raw = kernel.entry(main.to_dense(), side_tiles, scalars)

    out = cplan.out_type
    if out is OutType.NO_AGG:
        return MatrixBlock(raw).examine_representation()
    if out is OutType.FULL_AGG:
        return float(raw)
    if out in (OutType.ROW_AGG, OutType.COL_AGG, OutType.MULTI_AGG):
        return MatrixBlock(np.asarray(raw))
    raise RuntimeExecError(f"bad cell out type {out}")


def _cell_sparse(operator, inputs, kernel=None):
    """Sparse-safe Cell/MAgg over batched non-zero gathers (both tiers).

    The body evaluates once per batch of whole rows holding at most
    :data:`_KERNEL_CHUNK_CELLS` non-zeros; outputs assemble through
    ``bincount`` / CSR rebuilds.
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    csr = main.to_csr()
    rows, cols = csr.shape
    side_inputs = [SideInput(v) for (_, v) in sides]

    out = cplan.out_type
    accs = [0.0] * max(1, len(cplan.roots))
    out_data = np.empty(csr.nnz) if out is OutType.NO_AGG else None
    row_out = np.zeros((rows, 1)) if out is OutType.ROW_AGG else None
    col_acc = np.zeros(cols) if out is OutType.COL_AGG else None

    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for r0, r1, lo, hi in _csr_row_chunks(indptr, rows, _KERNEL_CHUNK_CELLS):
        if hi == lo:
            continue
        values = data[lo:hi]
        col_idx = indices[lo:hi]
        row_idx = np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1]))
        side_vals = [s.gather(row_idx, col_idx) for s in side_inputs]
        value = operator.genexec(values, side_vals, scalars)
        if out is OutType.NO_AGG:
            out_data[lo:hi] = value
        elif out is OutType.ROW_AGG:
            row_out[r0:r1, 0] += np.bincount(
                row_idx - r0,
                weights=np.broadcast_to(value, values.shape),
                minlength=r1 - r0,
            )
        elif out is OutType.COL_AGG:
            col_acc += np.bincount(
                col_idx,
                weights=np.broadcast_to(value, values.shape),
                minlength=cols,
            )
        elif out is OutType.FULL_AGG:
            accs[0] += float(np.sum(value))
        else:  # MULTI_AGG
            for k, part in enumerate(value):
                accs[k] += float(np.sum(part))

    if out is OutType.NO_AGG:
        result = sp.csr_matrix(
            (out_data, indices.copy(), indptr.copy()), shape=csr.shape
        )
        return MatrixBlock(result).examine_representation()
    if out is OutType.ROW_AGG:
        return MatrixBlock(row_out)
    if out is OutType.COL_AGG:
        return MatrixBlock(col_acc.reshape(1, -1))
    if out is OutType.FULL_AGG:
        return accs[0]
    return MatrixBlock(np.array([[a] for a in accs]))


def _cell_compressed(operator, inputs, kernel=None):
    """Dictionary-direct Cell/MAgg over distinct values (both tiers).

    Valid for sparse-safe, side-input-free, sum-aggregated cell plans
    (:func:`compressed_cell_eligible`, Figure 9): each column member's
    distinct values run through ``genexec`` once and combine with their
    counts.
    """
    cplan = operator.cplan
    main, _, scalars = _split_inputs(cplan, inputs)
    accs = [0.0] * max(1, len(cplan.roots))
    for values, counts in main.iter_distinct():
        result = operator.genexec(values, [], scalars)
        parts = result if cplan.out_type is OutType.MULTI_AGG else (result,)
        for k, part in enumerate(parts):
            accs[k] += float(np.dot(np.broadcast_to(part, values.shape), counts))
    if cplan.out_type is OutType.FULL_AGG:
        return accs[0]
    return MatrixBlock(np.array([[a] for a in accs]))


# ----------------------------------------------------------------------
# Row drivers
# ----------------------------------------------------------------------
def _row_side_tiles(handles, r0: int, r1: int) -> list:
    return [
        handle.dense() if spec.access is Access.SIDE_FULL
        else handle.row_tile(r0, r1)
        for (spec, handle) in handles
    ]


def _row_tiles(operator, inputs):
    """Interpreted Row: ``genexec`` per dense row tile."""
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    rows, cols = main.shape
    handles = [(spec, SideInput(v)) for (spec, v) in sides]
    bs = _tile_rows(rows, cols)
    agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"

    # Output allocation is deferred until the first tile result is
    # known: operators are size-generic (plan-cache reuse across
    # sizes), so the runtime — not the CPlan — determines the shape.
    out = None
    acc = None

    dense_main = None if main.is_sparse else main.to_dense()
    csr = main.to_csr() if main.is_sparse else None
    for r0 in range(0, rows, bs):
        r1 = min(rows, r0 + bs)
        if dense_main is not None:
            tile = dense_main[r0:r1]
        else:
            tile = np.asarray(csr[r0:r1].todense())
        value = operator.genexec(tile, _row_side_tiles(handles, r0, r1),
                                 scalars)
        if cplan.out_type in (OutType.NO_AGG, OutType.ROW_AGG):
            if out is None:
                width = 1 if cplan.out_type is OutType.ROW_AGG else np.shape(value)[-1]
                out = np.empty((rows, width))
            out[r0:r1] = value
        elif cplan.out_type in (OutType.COL_AGG, OutType.COL_AGG_T):
            acc = _combine(acc, value, agg)
        else:  # FULL_AGG
            acc = _combine(acc, float(value), agg)

    if cplan.out_type in (OutType.NO_AGG, OutType.ROW_AGG):
        return MatrixBlock(out).examine_representation()
    if cplan.out_type is OutType.FULL_AGG:
        return float(acc)
    result = np.asarray(acc)
    if result.ndim == 1:
        result = result.reshape(1, -1)
    return MatrixBlock(result).examine_representation()


def _row_kernel(operator, inputs, kernel):
    """Compiled Row: one whole-block ``genkernel`` call.

    A CSR main reaches this driver only for CSR-main-safe bodies (the
    main feeds matmuls only), so the kernel runs on the CSR directly
    without densifying.
    """
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    handles = [(spec, SideInput(v)) for (spec, v) in sides]
    a = main.to_csr() if main.is_sparse else main.to_dense()
    raw = kernel.entry(a, _row_side_tiles(handles, 0, main.rows), scalars)

    out = cplan.out_type
    if out in (OutType.NO_AGG, OutType.ROW_AGG):
        return MatrixBlock(raw).examine_representation()
    if out is OutType.FULL_AGG:
        return float(raw)
    if out in (OutType.COL_AGG, OutType.COL_AGG_T):
        return MatrixBlock(np.asarray(raw)).examine_representation()
    raise RuntimeExecError(f"bad row out type {out}")


# ----------------------------------------------------------------------
# Outer-product drivers
# ----------------------------------------------------------------------
def _outer_operands(cplan: CPlan, inputs: list):
    """Split an Outer operator's inputs for either driver.

    Returns ``(driver, U, V, W, sides, scalars, acc)``: the main input,
    dense U and V (V as columns x rank, transposed back when the plan
    reads ``t(V)``), dense W or None, the remaining side inputs as
    :class:`SideInput` handles, the scalars, and the zeroed
    accumulator of the aggregating out types (None for OUTER_NO_AGG).
    """
    driver = inputs[cplan.main_index]
    u_arr = inputs[cplan.u_index].to_dense()
    v_arr = inputs[cplan.v_index].to_dense()
    if cplan.v_transposed:
        v_arr = np.ascontiguousarray(v_arr.T)
    w_arr = inputs[cplan.w_index].to_dense() if cplan.w_index >= 0 else None

    sides = []
    scalars: list[float] = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx in (cplan.main_index, cplan.u_index, cplan.v_index,
                   cplan.w_index):
            continue
        if spec.access is Access.SCALAR:
            scalars.append(_as_float(value))
        else:
            sides.append(SideInput(value))

    rows, cols = driver.shape
    out_type = cplan.out_type
    if out_type is OutType.OUTER_FULL_AGG:
        acc = 0.0
    elif out_type is OutType.OUTER_RIGHT:
        acc = np.zeros((rows, w_arr.shape[1]))
    elif out_type is OutType.OUTER_LEFT:
        acc = np.zeros((cols, w_arr.shape[1]))
    else:  # OUTER_NO_AGG
        acc = None
    return driver, u_arr, v_arr, w_arr, sides, scalars, acc


def _outer_agg_result(out_type: OutType, acc):
    if out_type is OutType.OUTER_FULL_AGG:
        return float(acc)
    return MatrixBlock(acc).examine_representation()


def _outer_rows(operator, inputs):
    """Interpreted Outer: one ``genexec`` call per row."""
    import scipy.sparse as sp

    cplan = operator.cplan
    driver, u_arr, v_arr, w_arr, side_handles, scalars, acc = \
        _outer_operands(cplan, inputs)
    rows, cols = driver.shape
    out_type = cplan.out_type

    if driver.is_sparse:
        csr = driver.to_csr()
        indptr, indices, data = csr.indptr, csr.indices, csr.data
        out_data = np.empty(csr.nnz) if out_type is OutType.OUTER_NO_AGG else None
        for i in range(rows):
            lo, hi = indptr[i], indptr[i + 1]
            if hi == lo:
                continue
            cols_i = indices[lo:hi]
            xv = data[lo:hi]
            uv = v_arr[cols_i] @ u_arr[i]
            side_vals = [s.gather_row(i, cols_i) for s in side_handles]
            w_vals = operator.genexec(xv, uv, side_vals, scalars)
            w_vals = np.broadcast_to(w_vals, xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                acc[i] = w_vals @ w_arr[cols_i]
            elif out_type is OutType.OUTER_LEFT:
                acc[cols_i] += np.outer(w_vals, w_arr[i])
            else:
                out_data[lo:hi] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            result = sp.csr_matrix(
                (out_data, indices.copy(), indptr.copy()), shape=(rows, cols)
            )
            return MatrixBlock(result).examine_representation()
    else:
        arr = driver.to_dense()
        all_cols = np.arange(cols)
        out_dense = np.empty((rows, cols)) if out_type is OutType.OUTER_NO_AGG else None
        for i in range(rows):
            xv = arr[i]
            uv = v_arr @ u_arr[i]
            side_vals = [s.gather_row(i, all_cols) for s in side_handles]
            w_vals = operator.genexec(xv, uv, side_vals, scalars)
            w_vals = np.broadcast_to(w_vals, xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                acc[i] = w_vals @ w_arr
            elif out_type is OutType.OUTER_LEFT:
                acc += np.outer(w_vals, w_arr[i])
            else:
                out_dense[i] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            return MatrixBlock(out_dense).examine_representation()
    return _outer_agg_result(out_type, acc)


def _outer_batched(operator, inputs, kernel):
    """Compiled Outer over batched row ranges.

    Each batch evaluates ``uv`` for all its non-zeros in one einsum,
    runs the kernel body once, and folds the W-side accumulation into a
    block matmul (chunk-CSR ``S @ W`` / ``S.T @ W`` for sparse drivers).
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    driver, u_arr, v_arr, w_arr, side_handles, scalars, acc = \
        _outer_operands(cplan, inputs)
    rows, cols = driver.shape
    rank = max(1, u_arr.shape[1])
    budget = max(1024, _KERNEL_CHUNK_CELLS // rank)
    out_type = cplan.out_type
    genk = kernel.entry

    if driver.is_sparse:
        csr = driver.to_csr()
        indptr, indices, data = csr.indptr, csr.indices, csr.data
        out_data = (
            np.empty(csr.nnz) if out_type is OutType.OUTER_NO_AGG else None
        )
        for r0, r1, lo, hi in _csr_row_chunks(indptr, rows, budget):
            if hi == lo:
                continue
            col_idx = indices[lo:hi]
            row_idx = np.repeat(
                np.arange(r0, r1), np.diff(indptr[r0:r1 + 1])
            )
            xv = data[lo:hi]
            uv = np.einsum("ij,ij->i", u_arr[row_idx], v_arr[col_idx])
            side_vals = [s.gather(row_idx, col_idx) for s in side_handles]
            w_vals = np.broadcast_to(genk(xv, uv, side_vals, scalars),
                                     xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                chunk = sp.csr_matrix(
                    (np.ascontiguousarray(w_vals), col_idx,
                     indptr[r0:r1 + 1] - lo),
                    shape=(r1 - r0, cols),
                )
                acc[r0:r1] = chunk @ w_arr
            elif out_type is OutType.OUTER_LEFT:
                chunk = sp.csr_matrix(
                    (np.ascontiguousarray(w_vals), col_idx,
                     indptr[r0:r1 + 1] - lo),
                    shape=(r1 - r0, cols),
                )
                acc += chunk.T @ w_arr[r0:r1]
            else:
                out_data[lo:hi] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            result = sp.csr_matrix(
                (out_data, indices.copy(), indptr.copy()), shape=(rows, cols)
            )
            return MatrixBlock(result).examine_representation()
    else:
        arr = driver.to_dense()
        v_t = v_arr.T
        bs = max(16, budget // max(1, cols))
        out_dense = (
            np.empty((rows, cols)) if out_type is OutType.OUTER_NO_AGG
            else None
        )
        for r0 in range(0, rows, bs):
            r1 = min(rows, r0 + bs)
            xv = arr[r0:r1]
            uv = u_arr[r0:r1] @ v_t
            side_vals = [s.row_tile(r0, r1) for s in side_handles]
            w_vals = np.broadcast_to(genk(xv, uv, side_vals, scalars),
                                     xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                acc[r0:r1] = w_vals @ w_arr
            elif out_type is OutType.OUTER_LEFT:
                acc += w_vals.T @ w_arr[r0:r1]
            else:
                out_dense[r0:r1] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            return MatrixBlock(out_dense).examine_representation()
    return _outer_agg_result(out_type, acc)


#: ``(template, main format) -> (interpreted driver, compiled driver)``.
#: Interpreted drivers take ``(operator, inputs)``, compiled ones
#: ``(operator, inputs, kernel)``; one function fills both slots where
#: both tiers run the same arithmetic.  MAgg shares the Cell drivers.
_DRIVERS = {
    (TemplateType.CELL, "dense"): (_cell_tiles, _cell_kernel),
    (TemplateType.CELL, "csr"): (_cell_sparse, _cell_sparse),
    (TemplateType.CELL, "compressed"): (_cell_compressed, _cell_compressed),
    (TemplateType.ROW, "dense"): (_row_tiles, _row_kernel),
    (TemplateType.ROW, "csr"): (_row_tiles, _row_kernel),
    (TemplateType.OUTER, "dense"): (_outer_rows, _outer_batched),
    (TemplateType.OUTER, "csr"): (_outer_rows, _outer_batched),
}
_DRIVERS.update({
    (TemplateType.MAGG, fmt): drivers
    for (ttype, fmt), drivers in list(_DRIVERS.items())
    if ttype is TemplateType.CELL
})
