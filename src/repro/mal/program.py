"""MAL program representation.

A :class:`MalProgram` is a *query template* (paper §2.2): a linear list of
instructions over a flat variable space, parametrised by the literal
constants factored out of the original query.  Templates are compiled once,
cached, and executed many times with different parameter bindings — the
property that gives the recycler its inter-query reuse opportunities.

Instructions reference their inputs either as :class:`Const` (embedded
constants) or :class:`VarRef` (results of earlier instructions or template
parameters).  The representation is deliberately simple — a list — because
the recycler's design leans on the linear, interpretable form of MAL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.errors import PlanError


@dataclass(frozen=True)
class VarRef:
    """Reference to a program variable (instruction result or parameter)."""

    index: int

    def __repr__(self) -> str:
        return f"X{self.index}"


@dataclass(frozen=True)
class Const:
    """A constant embedded in the plan."""

    value: Any

    def __repr__(self) -> str:
        return f"{self.value!r}"


Arg = Union[VarRef, Const]


@dataclass
class Instr:
    """One MAL instruction: ``result := opname(args...)``.

    ``recycle`` is set by the recycler optimiser (§3.1) for instructions
    whose results the run-time should monitor.
    """

    opname: str
    result: int
    args: Tuple[Arg, ...]
    recycle: bool = False
    #: position in the template; with the template name it forms the stable
    #: instruction identity used by the credit admission policy (§4.2).
    pc: int = -1

    def arg_vars(self) -> List[int]:
        return [a.index for a in self.args if isinstance(a, VarRef)]

    def render(self, names: Optional[Dict[int, str]] = None) -> str:
        def nm(i: int) -> str:
            return (names or {}).get(i, f"X{i}")

        rendered = ", ".join(
            nm(a.index) if isinstance(a, VarRef) else repr(a.value)
            for a in self.args
        )
        mark = "*" if self.recycle else " "
        return f"{mark} {nm(self.result)} := {self.opname}({rendered})"


class MalProgram:
    """A compiled query template.

    Attributes:
        name: template identity (used by credit bookkeeping, §4.2).
        instrs: the linear instruction list.
        nvars: size of the variable space.
        params: parameter name -> variable index.
        result_var: variable holding the invocation result (or None).
    """

    def __init__(
        self,
        name: str,
        instrs: List[Instr],
        nvars: int,
        params: Dict[str, int],
        result_var: Optional[int] = None,
        var_names: Optional[Dict[int, str]] = None,
    ):
        self.name = name
        self.instrs = instrs
        self.nvars = nvars
        self.params = dict(params)
        self.result_var = result_var
        self.var_names = var_names or {}
        self._validate()
        #: per-instruction index of the last instruction using each var,
        #: filled in by the garbage-collection optimiser.
        self.free_after: Dict[int, List[int]] = {}
        self._cones: Optional[ConePlan] = None
        self._started = False

    def warm_cones(self) -> Optional["ConePlan"]:
        """The program's recycled frontier and the cones below it — None
        on the program's first invocation, built on its second.  A
        statement run once (a preparation run, an ad-hoc query) never pays
        for the analysis."""
        if self._cones is None:
            if not self._started:
                self._started = True
                return None
            self._cones = ConePlan(self)
        return self._cones

    def _validate(self) -> None:
        defined = set(self.params.values())
        for pc, ins in enumerate(self.instrs):
            ins.pc = pc
            for v in ins.arg_vars():
                if v not in defined:
                    raise PlanError(
                        f"{self.name}: instruction {pc} ({ins.opname}) uses "
                        f"undefined variable X{v}"
                    )
            if ins.result in self.params.values():
                raise PlanError(
                    f"{self.name}: instruction {pc} overwrites parameter "
                    f"X{ins.result}"
                )
            defined.add(ins.result)
        if self.result_var is not None and self.result_var not in defined:
            raise PlanError(f"{self.name}: result variable never defined")

    @property
    def n_marked(self) -> int:
        """Number of instructions marked for recycling."""
        return sum(1 for i in self.instrs if i.recycle)

    def render(self) -> str:
        """Human-readable listing (marked instructions prefixed with ``*``)."""
        header = f"function {self.name}({', '.join(self.params)}):"
        body = [ins.render(self.var_names) for ins in self.instrs]
        return "\n".join([header] + ["  " + line for line in body] + ["end"])

    def __repr__(self) -> str:
        return (
            f"MalProgram({self.name!r}, {len(self.instrs)} instrs, "
            f"{self.n_marked} marked)"
        )


class LineageShape:
    """The plan-constant half of a lineage key: one cone's instructions in
    a canonical order, arguments naming constants by value, parameters and
    leaves by slot, and other cone members by position.  Equal
    computations in different programs get equal shapes.  The hash is
    computed once, so a key costs what its slot values cost to hash."""

    __slots__ = ("nodes", "_hash")

    def __init__(self, nodes: Tuple):
        self.nodes = nodes
        self._hash = hash(nodes)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, LineageShape) and self._hash == other._hash
            and self.nodes == other.nodes)


def _picker(slots: Tuple[int, ...]):
    """``vals -> tuple(vals[i] for i in slots)``, at C speed."""
    if len(slots) >= 2:
        return operator.itemgetter(*slots)
    return lambda vals: tuple(vals[i] for i in slots)


class ConePlan:
    """What serving a warm invocation top-down needs; built once per
    program (:meth:`MalProgram.warm_cones`).

    The *frontier* is every marked instruction whose result leaves the
    recycled part of the plan: it feeds an instruction that still runs,
    is the program's result, or feeds nothing.  A frontier instruction's
    *cone* is itself, the marked instructions below it, and the
    *transparent* ones they read (unmarked scalar expressions over
    parameters, as the marking optimiser calls them).  *Leaves* are marked
    instructions with constant arguments only (``sql.bind``,
    ``sql.bindidx``): the plan fixes their signature, so the pool finds
    them by it.

    A lineage key is ``(shape, values)``: the frontier's
    :class:`LineageShape` and the values of its slots, taken from
    ``params values + leaf result tokens`` — a parameter by value, a leaf
    by the token of its pooled entry, which names the table instance and
    column version.  Building one costs a tuple of the cone's parameters
    and leaves, however many instructions the cone holds.

    Attributes:
        params: parameter variables; slot ``i`` is ``params[i]``'s value.
        leaves: the distinct leaf signatures; slot ``len(params) + j``
            is the token of ``leaves[j]``'s pooled entry.
        key_of: frontier pc (leaves excluded) -> ``(shape, picker, leaf
            indices)``; ``picker(values)`` selects the key's slot values.
        leaf_pcs: ``(pc, leaf index)`` of every leaf instruction.
        walk: marked non-leaf pcs, top-down, each with its leaf
            children as ``(signature position, leaf index)`` and its
            other marked children as ``(signature position, child pc,
            child opname)``.
        book: ``(pc, operator definition)`` of every marked
            instruction, in program order.
        n_nonbind: how many of them are not binds.
        steps: ``(instruction, operator definition if marked else
            None)`` of what a served invocation still enters: every
            instruction but the transparent ones only the cones read.
        fast: whether the program can be served at all (it has marked
            instructions, and every cone is built of marked, transparent
            and leaf instructions over hashable constants).
    """

    __slots__ = ("params", "leaves", "key_of", "leaf_pcs", "walk", "book",
                 "n_nonbind", "steps", "fast")

    def __init__(self, program: MalProgram):
        from repro.mal.operators import get_op

        instrs = program.instrs
        self.params = tuple(sorted(program.params.values()))
        param_slot = {v: i for i, v in enumerate(self.params)}
        producer: Dict[int, int] = {}
        consumers: Dict[int, List[int]] = {}
        fast = True
        for pc, ins in enumerate(instrs):
            for v in ins.arg_vars():
                if v in producer:
                    consumers.setdefault(producer[v], []).append(pc)
            if ins.result in producer:
                fast = False   # a redefined variable: keep to the walk
            producer[ins.result] = pc
        kinds = [get_op(ins.opname) for ins in instrs]
        marked = [pc for pc, ins in enumerate(instrs) if ins.recycle]
        is_marked = set(marked)
        transparent: Set[int] = set()
        for pc, ins in enumerate(instrs):
            op = kinds[pc]
            if (not ins.recycle and op.kind == "scalar" and not op.sideeffect
                    and all(v in param_slot or producer[v] in transparent
                            for v in ins.arg_vars())):
                transparent.add(pc)

        leaf_of: Dict[int, int] = {}
        leaves: Dict[Tuple, int] = {}
        for pc in marked:
            args = instrs[pc].args
            if all(isinstance(a, Const) for a in args):
                sig = (instrs[pc].opname,) + tuple(("c", a.value)
                                                   for a in args)
                try:
                    leaf_of[pc] = leaves.setdefault(sig, len(leaves))
                except TypeError:
                    fast = False
            elif not all(v in param_slot or producer[v] in is_marked
                         or producer[v] in transparent
                         for v in instrs[pc].arg_vars()):
                fast = False   # reads an unmarked, non-scalar result
        self.leaves = tuple(leaves)

        skipped = set(is_marked)
        for pc in reversed(range(len(instrs))):
            if (pc in transparent and instrs[pc].result != program.result_var
                    and all(c in skipped for c in consumers.get(pc, ()))):
                skipped.add(pc)
        self.steps = tuple((ins, kinds[pc] if ins.recycle else None)
                           for pc, ins in enumerate(instrs)
                           if ins.recycle or pc not in skipped)
        frontier = [
            pc for pc in marked
            if instrs[pc].result == program.result_var
            or not consumers.get(pc)
            or any(c not in skipped for c in consumers[pc])
        ]
        self.key_of: Dict[int, Tuple] = {}
        if fast:
            try:
                for pc in frontier:
                    if pc not in leaf_of:
                        self.key_of[pc] = self._key_maker(
                            pc, instrs, producer, param_slot, leaf_of)
            except (TypeError, RecursionError):
                fast = False
                self.key_of = {}
        self.leaf_pcs = tuple(leaf_of.items())

        def children(pc: int, leaf: bool) -> Tuple:
            refs = [(1 + j, producer[a.index])
                    for j, a in enumerate(instrs[pc].args)
                    if isinstance(a, VarRef)
                    and producer.get(a.index) in is_marked]
            if leaf:
                return tuple((pos, leaf_of[c]) for pos, c in refs
                             if c in leaf_of)
            return tuple((pos, c, instrs[c].opname) for pos, c in refs
                         if c not in leaf_of)

        self.walk = tuple((pc, children(pc, True), children(pc, False))
                          for pc in reversed(marked) if pc not in leaf_of)
        self.book = tuple((pc, kinds[pc]) for pc in marked)
        self.n_nonbind = sum(kinds[pc].kind != "bind" for pc in marked)
        self.fast = fast and bool(marked)

    def _key_maker(self, root: int, instrs: List[Instr],
                   producer: Dict[int, int], param_slot: Dict[int, int],
                   leaf_of: Dict[int, int]) -> Tuple:
        """``(shape, picker, leaf indices)`` of *root*'s lineage key:
        the cone in post-order, each slot numbered at first sight."""
        nodes: List[Tuple] = []
        position: Dict[int, int] = {}
        slots: List[int] = []
        slot_of: Dict[Tuple[str, int], int] = {}
        nparams = len(self.params)

        def slot(kind: str, ident: int, value_index: int) -> int:
            if (kind, ident) not in slot_of:
                slot_of[kind, ident] = len(slots)
                slots.append(value_index)
            return slot_of[kind, ident]

        def arg(a: Arg) -> Tuple:
            if isinstance(a, Const):
                return ("c", a.value)
            if a.index in param_slot:
                return ("p", slot("p", a.index, param_slot[a.index]))
            return ("n", visit(producer[a.index]))

        def visit(pc: int) -> int:
            if pc not in position:
                ins = instrs[pc]
                if pc in leaf_of:
                    node = ("l", ins.opname,
                            tuple(a.value for a in ins.args),
                            slot("l", pc, nparams + leaf_of[pc]))
                else:
                    node = ("m" if ins.recycle else "t", ins.opname,
                            tuple(arg(a) for a in ins.args))
                position[pc] = len(nodes)
                nodes.append(node)
            return position[pc]

        visit(root)
        leaf_indices = tuple(i - nparams for i in slots if i >= nparams)
        return LineageShape(tuple(nodes)), _picker(tuple(slots)), leaf_indices


class ProgramBuilder:
    """Low-level builder emitting instructions into a fresh variable space.

    Higher layers (the relational builder, the SQL planner) use this to
    assemble templates::

        b = ProgramBuilder("q6")
        lo = b.param("date_lo")
        col = b.emit("sql.bind", Const("lineitem"), Const("l_shipdate"))
        sel = b.emit("algebra.select", col, lo, b.const(None), ...)
    """

    def __init__(self, name: str):
        self.name = name
        self._instrs: List[Instr] = []
        self._params: Dict[str, int] = {}
        self._nvars = 0
        self._names: Dict[int, str] = {}
        self._result: Optional[int] = None

    def _new_var(self, label: Optional[str] = None) -> VarRef:
        idx = self._nvars
        self._nvars += 1
        if label:
            self._names[idx] = label
        return VarRef(idx)

    def param(self, name: str) -> VarRef:
        """Declare a template parameter, returning its variable."""
        if name in self._params:
            return VarRef(self._params[name])
        var = self._new_var(f"A_{name}")
        self._params[name] = var.index
        return var

    def const(self, value: Any) -> Const:
        return Const(value)

    def emit(self, opname: str, *args: Union[Arg, Any],
             label: Optional[str] = None) -> VarRef:
        """Append an instruction; bare Python values become constants."""
        norm = tuple(
            a if isinstance(a, (VarRef, Const)) else Const(a) for a in args
        )
        out = self._new_var(label)
        self._instrs.append(Instr(opname, out.index, norm))
        return out

    def set_result(self, var: VarRef) -> None:
        self._result = var.index

    def build(self) -> MalProgram:
        return MalProgram(
            self.name,
            self._instrs,
            self._nvars,
            self._params,
            result_var=self._result,
            var_names=self._names,
        )
