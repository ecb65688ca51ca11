"""DB-API parameter binding: placeholder slots and value substitution.

The lexer emits ``qmark`` (``?``) and ``named`` (``:name``) placeholder
tokens wherever PEP 249 parameters may appear.  This module turns a token
stream into *literal slots* — the reading-order sequence of literal
positions, each either an inline constant or a placeholder — and binds a
parameter set against them, yielding the concrete literal values the
template machinery already understands
(:meth:`repro.sql.planner.CompiledQuery.bind`).

Because placeholders and inline literals normalise to the same ``?`` in
the template key, a parametrised statement *is* the paper's query
template (§2.2): executing it again with new parameters re-runs the same
compiled plan and the recycler serves the parameter-independent prefix
from the pool.
"""

from __future__ import annotations

import datetime
from collections.abc import Mapping, Sequence
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.errors import ProgrammingError
from repro.sql.lexer import Token

#: Literal slot markers (first tuple element of each slot).
INLINE = "inline"
QMARK = "qmark"
NAMED = "named"


def extract_slots(tokens: Sequence[Token]
                  ) -> Tuple[List[Tuple[str, Any]], Optional[str]]:
    """Literal slots in reading order, plus the statement's paramstyle.

    Each slot is ``(INLINE, value)``, ``(QMARK, ordinal)`` or
    ``(NAMED, name)``.  The paramstyle is ``"qmark"``, ``"named"`` or
    ``None`` (no placeholders); mixing both styles in one statement is a
    :class:`ProgrammingError`.
    """
    slots: List[Tuple[str, Any]] = []
    styles = set()
    ordinal = 0
    for tok in tokens:
        if tok.is_literal:
            value = tok.value[0] if tok.kind == "interval" else tok.value
            slots.append((INLINE, value))
        elif tok.kind == "qmark":
            slots.append((QMARK, ordinal))
            ordinal += 1
            styles.add("qmark")
        elif tok.kind == "named":
            slots.append((NAMED, tok.value))
            styles.add("named")
    if len(styles) > 1:
        raise ProgrammingError(
            "cannot mix qmark (?) and named (:name) placeholders "
            "in one statement"
        )
    return slots, (styles.pop() if styles else None)


def coerce_value(value: Any) -> Tuple[str, Any]:
    """Map a bound Python value to its literal token kind and value.

    Dates normalise to day-resolution ``np.datetime64`` so placeholder
    bindings behave exactly like inline ``date '...'`` literals.
    """
    if value is None:
        raise ProgrammingError("cannot bind NULL: the engine has no NULLs")
    if isinstance(value, bool):
        return "num", int(value)
    if isinstance(value, (int, np.integer)):
        return "num", int(value)
    if isinstance(value, (float, np.floating)):
        return "num", float(value)
    if isinstance(value, str):
        return "str", value
    if isinstance(value, np.datetime64):
        day = value.astype("datetime64[D]")
        # Same no-silent-truncation rule as datetime.datetime below: a
        # sub-day timestamp must not quietly shift the comparison bound.
        if day.astype(value.dtype) != value:
            raise ProgrammingError(
                f"cannot bind {value!r}: the engine stores "
                "day-resolution dates; pass a day-exact value"
            )
        return "date", day
    if isinstance(value, datetime.datetime):
        # Day-resolution engine: refuse to silently drop a time-of-day.
        if (value.hour, value.minute, value.second,
                value.microsecond) != (0, 0, 0, 0):
            raise ProgrammingError(
                f"cannot bind {value.isoformat()}: the engine stores "
                "day-resolution dates; pass a date (or midnight)"
            )
        return "date", np.datetime64(value.strftime("%Y-%m-%d"), "D")
    if isinstance(value, datetime.date):
        return "date", np.datetime64(value.strftime("%Y-%m-%d"), "D")
    if isinstance(value, (tuple, list)):
        raise ProgrammingError(
            "cannot bind a sequence to one placeholder; write one "
            "placeholder per IN-list element: in (?, ?, ?)"
        )
    raise ProgrammingError(
        f"cannot bind a parameter of type {type(value).__name__}"
    )


def bind_slot_values(slots: Sequence[Tuple[str, Any]],
                     paramstyle: Optional[str],
                     params: Any) -> List[Any]:
    """Concrete literal values (reading order) for one parameter set.

    ``params`` is a positional sequence for qmark statements, a mapping
    for named statements, and must be empty/None for statements without
    placeholders.  Arity and name mismatches raise
    :class:`ProgrammingError` — never a silent partial bind.
    """
    if paramstyle is None:
        if params:
            raise ProgrammingError(
                "statement has no placeholders but parameters were given"
            )
        return [value for kind, value in slots if kind == INLINE]

    if paramstyle == "qmark":
        if params is None or isinstance(params, (str, Mapping)) \
                or not isinstance(params, Sequence):
            raise ProgrammingError(
                "qmark statement needs a parameter sequence "
                f"(tuple/list), got {type(params).__name__}"
            )
        n_marks = sum(1 for kind, _ in slots if kind == QMARK)
        if len(params) != n_marks:
            raise ProgrammingError(
                f"statement has {n_marks} placeholder(s) but "
                f"{len(params)} parameter(s) were given"
            )
        return [
            value if kind == INLINE else coerce_value(params[value])[1]
            for kind, value in slots
        ]

    if not isinstance(params, Mapping):
        raise ProgrammingError(
            "named statement needs a parameter mapping, got "
            f"{type(params).__name__}"
        )
    out, used = [], set()
    for kind, value in slots:
        if kind == INLINE:
            out.append(value)
        else:
            if value not in params:
                raise ProgrammingError(f"missing named parameter :{value}")
            used.add(value)
            out.append(coerce_value(params[value])[1])
    extra = sorted(set(params) - used)
    if extra:
        # A misspelled key must not be dropped without diagnosis (the
        # qmark path enforces exact arity; named does the equivalent).
        raise ProgrammingError(
            f"unknown named parameter(s) {extra}; statement binds "
            f"{sorted(used)}"
        )
    return out


def tokens_with_values(tokens: Sequence[Token],
                       slots: Sequence[Tuple[str, Any]],
                       values: Sequence[Any]) -> List[Token]:
    """The token stream with placeholders replaced by literal tokens.

    *values* is the full reading-order literal list (as produced by
    :func:`bind_slot_values`); inline literals keep their original
    tokens, placeholders become literal tokens of the bound value's kind
    — yielding a stream the parser accepts unchanged.
    """
    out: List[Token] = []
    i = 0
    for tok in tokens:
        if tok.is_literal:
            i += 1
            out.append(tok)
        elif tok.is_placeholder:
            kind, value = coerce_value(values[i])
            i += 1
            out.append(Token(kind, repr(value), value))
        else:
            out.append(tok)
    return out
