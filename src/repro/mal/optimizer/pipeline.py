"""The default optimiser chain applied to every compiled template."""

from __future__ import annotations

from repro.mal.program import MalProgram
from repro.mal.optimizer.dead_code import eliminate_dead_code
from repro.mal.optimizer.garbage_collect import inject_garbage_collection
from repro.mal.optimizer.recycle_mark import mark_for_recycling


def optimize(program: MalProgram) -> MalProgram:
    """Dead code → recycler marking → garbage collection.

    Ordering follows §3.1: marking must precede garbage-collection
    injection and follow the cleanup passes.
    """
    program = eliminate_dead_code(program)
    program = mark_for_recycling(program)
    return inject_garbage_collection(program)
