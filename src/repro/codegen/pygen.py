"""Code generation: CPlans to Python source (codegen step 4).

Mirrors the paper's recursive template expansion: each CPlan expands
depth-first into the body of a ``genexec`` function, which the runtime
skeletons (:mod:`repro.runtime.skeletons`) invoke per data tile, per
cell batch, or per non-zero row — the hand-coded skeletons own the data
access, exactly as in the paper's runtime integration (Figure 4).

Generated code calls the shared vector-primitive library ``vp``; with
``inline_primitives`` (the "Gen inlined" configuration of Figure 10)
element-wise chains are instead expanded into per-element loops,
modelling monolithic generated code without shared primitives.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.codegen.cplan import Access, CNode, CPlan
from repro.codegen.template import TemplateType
from repro.errors import CodegenError
from repro.runtime.vector import BINARY_PRIMITIVES, UNARY_PRIMITIVES

#: Import surface of generated sources.  Both codegen backends emit
#: only ``import numpy as np`` / ``from repro.runtime import vector as
#: vp`` (scipy is reserved for sparse kernel bodies); the kernel lint
#: (:mod:`repro.analysis.kernel_lint`) and the restricted ``exec``
#: namespace (:mod:`repro.codegen.plan_cache`) enforce exactly this
#: contract — extend it here, in one place, if a template grows a new
#: dependency.
GENERATED_IMPORT_MODULES = ("numpy", "scipy", "repro.runtime")


def operator_name(cplan: CPlan) -> str:
    """Deterministic operator name derived from the semantic hash.

    Equivalent CPlans always generate the same name regardless of
    process history or test ordering, so source dumps and goldens are
    stable — unlike a process-global id counter.
    """
    return f"TMP_{cplan.semantic_hash()[:10]}"


@dataclass
class GeneratedOperator:
    """A compiled fused operator: metadata plus the genexec callable.

    Beyond the interpreted ``genexec`` tier, an operator may hold a
    compiled vectorized kernel (:mod:`repro.codegen.npgen`).  Operators
    are shared through the semantic-hash plan cache, so the kernel slot
    is shared by every program, serving specialization, and adaptive
    recompile that reuses the operator.
    """

    name: str
    cplan: CPlan
    source: str
    genexec: object  # callable
    # Tiered-kernel state (guarded by ``lock``): ``kernel`` holds the
    # CompiledKernel once compiled; ``kernel_failed`` pins the operator
    # to the interpreted tier.
    kernel: object = None
    kernel_failed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def template(self) -> TemplateType:
        return self.cplan.ttype


def generate_source(cplan: CPlan, inline_primitives: bool = False) -> tuple[str, str]:
    """Generate the Python source of a fused operator.

    Returns ``(class_name, source)``.  The genexec signature depends on
    the template:

    * Cell/MAgg: ``genexec(a, b, s)`` over aligned value tiles,
    * Row: ``genexec(a, b, s)`` over a dense row-block tile,
    * Outer: ``genexec(a, uv, b, s)`` over one row's non-zero cells.
    """
    name = operator_name(cplan)
    emitter = _Emitter(cplan, inline_primitives)
    if cplan.ttype is TemplateType.OUTER:
        header = f"def genexec(a, uv, b, s):"
    else:
        header = f"def genexec(a, b, s):"
    lines = [
        f"# generated fused operator {name}: {cplan.ttype.value} "
        f"({cplan.out_type.value})",
        "import numpy as np",
        "from repro.runtime import vector as vp",
        "",
        header,
    ]
    body_lines, result_vars = emitter.emit_roots()
    lines.extend("    " + line for line in body_lines)
    if len(result_vars) == 1:
        lines.append(f"    return {result_vars[0]}")
    else:
        lines.append(f"    return ({', '.join(result_vars)},)")
    return name, "\n".join(lines) + "\n"


class _Emitter:
    """Depth-first template expansion of a CPlan body DAG."""

    def __init__(self, cplan: CPlan, inline_primitives: bool):
        self.cplan = cplan
        self.inline = inline_primitives
        self.lines: list[str] = []
        self.vars: dict[int, str] = {}
        self.counter = itertools.count(1)
        # Side-slot mapping: non-main matrix inputs in spec order.
        self.side_slot: dict[int, int] = {}
        self.scalar_slot: dict[int, int] = {}
        side, scalar = 0, 0
        for idx, spec in enumerate(cplan.inputs):
            if idx == cplan.main_index:
                continue
            if spec.access is Access.SCALAR:
                self.scalar_slot[idx] = scalar
                scalar += 1
            else:
                self.side_slot[idx] = side
                side += 1

    # ------------------------------------------------------------------
    def emit_roots(self) -> tuple[list[str], list[str]]:
        if self.inline and self._inline_applicable():
            return self._emit_inline()
        results = [self._emit(root) for root in self.cplan.roots]
        if not self.lines:
            # Ensure at least one statement for trivial bodies.
            self.lines.append("pass")
        return self.lines, results

    def _fresh(self) -> str:
        return f"t{next(self.counter)}"

    def _assign(self, expr: str) -> str:
        var = self._fresh()
        self.lines.append(f"{var} = {expr}")
        return var

    def _ref(self, node: CNode) -> str:
        return self.vars[node.id]

    def _emit(self, node: CNode) -> str:
        # Iterative post-order over the body DAG (which can be thousands
        # of nodes deep for long fused chains).
        stack = [node]
        while stack:
            cur = stack[-1]
            if cur.id in self.vars:
                stack.pop()
                continue
            if cur.op in ("lit", "data", "uv"):
                self.vars[cur.id] = self._emit_node(cur)
                stack.pop()
                continue
            missing = [c for c in cur.inputs if c.id not in self.vars]
            if missing:
                stack.extend(reversed(missing))
                continue
            self.vars[cur.id] = self._emit_node(cur)
            stack.pop()
        return self.vars[node.id]

    def _emit_node(self, node: CNode) -> str:
        """Emit one node whose inputs are already in ``self.vars``."""
        op = node.op
        if op == "lit":
            return repr(node.value)
        if op == "data":
            return self._data_expr(node.input_index)
        if op == "uv":
            return "uv"
        args = [self.vars[c.id] for c in node.inputs]
        kind, _, detail = op.partition(":")
        if kind == "u":
            func = UNARY_PRIMITIVES.get(detail)
            if func is None:
                raise CodegenError(f"no primitive for unary '{detail}'")
            return self._assign(f"vp.{func}({args[0]})")
        if kind == "b":
            func = BINARY_PRIMITIVES.get(detail)
            if func is None:
                raise CodegenError(f"no primitive for binary '{detail}'")
            return self._assign(f"vp.{func}({args[0]}, {args[1]})")
        if kind == "t":
            if detail == "+*":
                return self._assign(f"vp.vect_add({args[0]}, vp.vect_mult({args[1]}, {args[2]}))")
            if detail == "-*":
                return self._assign(f"vp.vect_minus({args[0]}, vp.vect_mult({args[1]}, {args[2]}))")
            if detail == "ifelse":
                return self._assign(f"vp.vect_ifelse({args[0]}, {args[1]}, {args[2]})")
            raise CodegenError(f"unknown ternary '{detail}'")
        if kind == "rowagg":
            func = {
                "sum": "vect_sum_kd",
                "min": "vect_min_kd",
                "max": "vect_max_kd",
                "mean": "vect_mean_kd",
                "sumsq": "vect_sum_kd",
            }[detail]
            arg = args[0]
            if detail == "sumsq":
                arg = self._assign(f"vp.vect_pow2({arg})")
            return self._assign(f"vp.{func}({arg})")
        if kind == "colagg":
            reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[detail]
            return self._assign(f"{reducer}({args[0]}, axis=0, keepdims=True)")
        if kind == "fullagg":
            reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[detail]
            return self._assign(f"{reducer}({args[0]})")
        if kind == "mm":
            return self._assign(f"vp.vect_matmult({args[0]}, {args[1]})")
        if kind == "touter":
            return self._assign(f"({args[0]}).T @ ({args[1]})")
        if kind == "rix":
            cl, cu = node.meta
            return self._assign(f"({args[0]})[:, {cl}:{cu}]")
        raise CodegenError(f"cannot generate code for CNode '{op}'")

    def _data_expr(self, input_index: int) -> str:
        if input_index == self.cplan.main_index:
            return "a"
        if input_index in self.scalar_slot:
            return f"s[{self.scalar_slot[input_index]}]"
        return f"b[{self.side_slot[input_index]}]"

    # ------------------------------------------------------------------
    # Inline mode (Figure 10): expand element-wise chains into explicit
    # per-element loops instead of shared vector primitives.
    # ------------------------------------------------------------------
    def _inline_applicable(self) -> bool:
        from repro.codegen.cplan import OutType

        if self.cplan.ttype not in (
            TemplateType.CELL, TemplateType.ROW, TemplateType.MAGG
        ):
            return False
        if len(self.cplan.roots) != 1:
            return False
        root = self.cplan.roots[0]
        kind, _, detail = root.op.partition(":")
        if kind in ("rowagg", "fullagg") and detail == "sum":
            # Row template: an explicit aggregation node at the root.
            return self._pure_cell(root.inputs[0])
        if (
            self.cplan.out_type is OutType.FULL_AGG
            and self.cplan.agg_ops == ["sum"]
        ):
            # Cell template: the skeleton reduces; partial per-row sums
            # returned by inline code sum to the same total.
            return self._pure_cell(root)
        return False

    def _pure_cell(self, node: CNode) -> bool:
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.op in ("data", "lit"):
                continue
            kind, _, detail = cur.op.partition(":")
            if kind == "u" and detail in _SCALAR_UNARY_EXPR:
                stack.extend(cur.inputs)
            elif kind == "b" and detail in _SCALAR_BINARY_FMT:
                stack.extend(cur.inputs)
            else:
                return False
        return True

    def _emit_inline(self) -> tuple[list[str], list[str]]:
        root = self.cplan.roots[0]
        lines: list[str] = ["bs, n = a.shape", "out = np.zeros((bs, 1))"]
        scalar_exprs: dict[int, str] = {}
        counter = itertools.count(1)

        def expand(node: CNode) -> str:
            if node.id in scalar_exprs:
                return scalar_exprs[node.id]
            kind, _, detail = node.op.partition(":")
            if node.op == "lit":
                expr = repr(node.value)
            elif node.op == "data":
                base = self._data_expr(node.input_index)
                expr = "a[_i, _j]" if base == "a" else (
                    base if node.input_index in self.scalar_slot else f"{base}[_i % {base}.shape[0], _j % {base}.shape[1]]"
                )
            elif kind == "u":
                expr = _SCALAR_UNARY_EXPR[detail].format(expand(node.inputs[0]))
            elif kind == "b":
                expr = _SCALAR_BINARY_FMT[detail].format(
                    expand(node.inputs[0]), expand(node.inputs[1])
                )
            else:
                raise CodegenError(f"inline mode cannot expand {node.op}")
            var = f"v{next(counter)}"
            scalar_exprs[node.id] = var
            inner_body.append(f"{var} = {expr}")
            return var

        # Innermost expression: the cell chain below the final sum (the
        # root itself for Cell full-agg plans, where the skeleton sums
        # the returned per-row partials).
        kind, _, detail = root.op.partition(":")
        chain = root.inputs[0] if kind in ("rowagg", "fullagg") else root
        inner_body: list[str] = []
        result_var = expand(chain)
        lines.append("for _i in range(bs):")
        lines.append("    _acc = 0.0")
        lines.append("    for _j in range(n):")
        lines.extend("        " + line for line in inner_body)
        lines.append(f"        _acc += {result_var}")
        lines.append("    out[_i, 0] = _acc")
        if kind == "fullagg":
            # Row template full aggregation: reduce to a scalar here;
            # for Cell plans the skeleton sums the per-row partials.
            lines.append("out = np.sum(out)")
        return lines, ["out"]


_SCALAR_UNARY_EXPR = {
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sqrt": "np.sqrt({0})",
    "abs": "abs({0})",
    "neg": "-({0})",
    "pow2": "({0}) * ({0})",
    "sigmoid": "1.0 / (1.0 + np.exp(-({0})))",
    "sprop": "({0}) * (1.0 - ({0}))",
}

_SCALAR_BINARY_FMT = {
    "+": "({0}) + ({1})",
    "-": "({0}) - ({1})",
    "*": "({0}) * ({1})",
    "/": "({0}) / ({1})",
    "min": "min({0}, {1})",
    "max": "max({0}, {1})",
}
