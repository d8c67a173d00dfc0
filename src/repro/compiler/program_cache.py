"""Compile each statement-block DAG once: the engine's program cache.

``api.eval`` / ``eval_all`` rebuild their HOP DAG on every call (one
statement block per loop iteration).  ``Engine.execute`` keys each DAG
by an exact structural signature (:func:`sign_dag`), so a repeated
block skips rewrites, codegen and lowering and reruns the cached
``Program`` with the caller's input blocks injected through the
executor's ``bindings`` overlay — the mechanism serving specializations
(:mod:`repro.serve.prepared`) use.

The signature holds everything the compiler reads: per hop its class,
op fields and input positions; per matrix leaf its dims, nnz (``-1``
when unknown), dense/CSR storage and an alias index (so ``X*X`` over
one block differs from ``X*Y`` over two); per literal its exact float
bits; and the root positions.  Compressed leaves are keyed by identity
and stay baked constants.  A miss compiles a structural clone whose
matrix leaves are :class:`~repro.serve.symbolic.SymbolicBlock`
stand-ins, so cached programs never pin input data and the caller's DAG
is never rewritten in place.

:class:`~repro.codegen.plan_cache.BuildOnceLRU` is the bounded,
build-once map under this cache, the plan cache and the serving
specializations.
"""

from __future__ import annotations

import struct

from repro.compiler.recompile import clone_hop
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    DataOp,
    Hop,
    IndexingOp,
    LiteralOp,
    NaryOp,
    ReorgOp,
    TernaryOp,
    UnaryOp,
)
from repro.runtime.matrix import MatrixBlock

#: Programs cached per engine; least recently used ones are evicted.
MAX_CACHED_PROGRAMS = 128

_F64 = struct.Struct("<d")

#: Hop class -> the op fields that distinguish two hops of that class.
#: Classes missing here (fused ``SpoofOp`` s of an already optimized
#: DAG) make a DAG uncacheable.
_OP_FIELDS = {
    UnaryOp: ("op",),
    BinaryOp: ("op",),
    TernaryOp: ("op",),
    AggUnaryOp: ("agg_op", "direction"),
    AggBinaryOp: (),
    ReorgOp: ("op",),
    IndexingOp: ("rl", "ru", "cl", "cu"),
    NaryOp: ("op",),
}


class SignedDag:
    """A DAG's signature plus what binding and cloning need."""

    __slots__ = ("key", "order", "roots", "blocks", "alias")

    def __init__(self, key, order, roots, blocks, alias):
        self.key = key  # hashable exact signature
        self.order = order  # hops, inputs before consumers
        self.roots = roots  # root positions in ``order``
        self.blocks = blocks  # distinct MatrixBlock leaves, alias order
        self.alias = alias  # id(block) -> alias index


def sign_dag(roots: list[Hop]) -> SignedDag | None:
    """Exact signature of the DAG under ``roots`` (one iterative walk).

    Returns ``None`` for DAGs holding hops the signature does not cover.
    """
    position: dict[int, int] = {}  # hop id -> index in ``order``
    order: list[Hop] = []
    key: list = []
    blocks: list = []
    alias: dict[int, int] = {}
    for root in roots:
        stack = [(root, 0)]
        while stack:
            hop, next_input = stack[-1]
            if hop.id in position:
                stack.pop()
                continue
            if next_input < len(hop.inputs):
                stack[-1] = (hop, next_input + 1)
                child = hop.inputs[next_input]
                if child.id not in position:
                    stack.append((child, 0))
                continue
            stack.pop()
            cls = type(hop)
            if cls is DataOp:
                data = hop.data
                if isinstance(data, MatrixBlock):
                    index = alias.get(id(data))
                    if index is None:
                        index = alias[id(data)] = len(blocks)
                        blocks.append(data)
                    entry = (cls, hop.rows, hop.cols, hop.nnz,
                             data.is_sparse, index)
                else:  # compressed (or other) leaf: a baked constant
                    entry = (cls, "const", id(data), hop.nnz)
            elif cls is LiteralOp:
                entry = (cls, _F64.pack(hop.value))
            else:
                fields = _OP_FIELDS.get(cls)
                if fields is None:
                    return None
                entry = (cls, tuple(getattr(hop, f) for f in fields),
                         tuple(position[i.id] for i in hop.inputs))
            position[hop.id] = len(order)
            order.append(hop)
            key.append(entry)
    root_positions = tuple(position[r.id] for r in roots)
    key.append(root_positions)
    return SignedDag(tuple(key), order, root_positions, blocks, alias)


class CachedProgram:
    """A compiled program plus the slots its matrix inputs bind to."""

    __slots__ = ("program", "input_slots")

    def __init__(self, program, input_slots):
        self.program = program
        self.input_slots = input_slots  # ((slot, alias index), ...)

    def bindings(self, blocks: list) -> dict:
        return {slot: blocks[index] for slot, index in self.input_slots}


def symbolic_clone(signed: SignedDag) -> tuple[list[Hop], list]:
    """Clone the signed DAG over symbolic matrix leaves.

    Returns the cloned roots and the ``SymbolicBlock`` per alias index.
    Compile reads only leaf metadata, so compiling the clone yields the
    program a compile of the original would.
    """
    # Call-time import: repro.serve imports the compiler package.
    from repro.serve.symbolic import SymbolicBlock

    # An nnz only some leaf over the block knows; never counted here.
    known_nnz = {
        signed.alias[id(hop.data)]: hop.nnz for hop in signed.order
        if isinstance(hop, DataOp) and id(hop.data) in signed.alias
        and hop.nnz >= 0
    }
    symbols = [
        SymbolicBlock(f"in{i}", block.rows, block.cols,
                      nnz=known_nnz.get(i), sparse=block.is_sparse)
        for i, block in enumerate(signed.blocks)
    ]
    clones: dict[int, Hop] = {}  # original hop id -> clone
    for hop in signed.order:
        if isinstance(hop, DataOp):
            index = signed.alias.get(id(hop.data))
            data = hop.data if index is None else symbols[index]
            clone = DataOp(data, name=hop.name, nnz_unknown=hop.nnz_unknown)
        elif isinstance(hop, LiteralOp):
            clone = LiteralOp(hop.value)
        else:
            clone = clone_hop(hop, [clones[i.id] for i in hop.inputs])
        clones[hop.id] = clone
    return [clones[signed.order[p].id] for p in signed.roots], symbols


def compile_signed(signed: SignedDag, compile_roots) -> CachedProgram:
    """Compile the symbolic clone of ``signed`` into a cache entry."""
    roots, symbols = symbolic_clone(signed)
    program = compile_roots(roots)
    alias = {id(symbol): index for index, symbol in enumerate(symbols)}
    input_slots = tuple(
        (slot, alias[id(value)]) for slot, value in program.constants
        if id(value) in alias
    )
    return CachedProgram(program, input_slots)
