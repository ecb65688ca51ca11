"""Column arithmetic (``batcalc``), string/date helpers, and scalar ``calc``.

``batcalc`` operators work positionally: operands are BATs aligned on the
same head (or scalars), and the result keeps the head of the first BAT
operand.  Scalar ``calc``/``mtime`` operators evaluate cheap expressions
over template parameters at run time (e.g. ``date + interval '3' month``);
they are *not* recyclable — the paper's optimiser never marks them (§3.1).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import InterpreterError, ProgrammingError
from repro.storage.bat import BAT
from repro.mal.operators import register

Operand = Union[BAT, int, float, str]


def _binary(a: Operand, b: Operand, fn, *, bool_result: bool = False) -> BAT:
    """Apply *fn* positionally; at least one operand must be a BAT."""
    if isinstance(a, BAT) and isinstance(b, BAT):
        if len(a) != len(b):
            raise InterpreterError(
                f"batcalc: misaligned operands ({len(a)} vs {len(b)})"
            )
        out = fn(a.tail_values(), b.tail_values())
        head = a.head if a.head_dense else a.head_values()
        sources = a.sources | b.sources
    elif isinstance(a, BAT):
        out = fn(a.tail_values(), b)
        head = a.head if a.head_dense else a.head_values()
        sources = a.sources
    elif isinstance(b, BAT):
        out = fn(a, b.tail_values())
        head = b.head if b.head_dense else b.head_values()
        sources = b.sources
    else:
        raise InterpreterError("batcalc: expected at least one BAT operand")
    if bool_result:
        out = out.astype(bool)
    return BAT.materialized(head, out, sources=sources)


@register("batcalc.add", kind="calc")
def batcalc_add(ctx, a: Operand, b: Operand) -> BAT:
    """Positional addition."""
    return _binary(a, b, lambda x, y: x + y)


@register("batcalc.sub", kind="calc")
def batcalc_sub(ctx, a: Operand, b: Operand) -> BAT:
    """Positional subtraction."""
    return _binary(a, b, lambda x, y: x - y)


@register("batcalc.mul", kind="calc")
def batcalc_mul(ctx, a: Operand, b: Operand) -> BAT:
    """Positional multiplication."""
    return _binary(a, b, lambda x, y: x * y)


@register("batcalc.div", kind="calc")
def batcalc_div(ctx, a: Operand, b: Operand) -> BAT:
    """Positional division (true division)."""
    return _binary(a, b, lambda x, y: x / y)


@register("batcalc.eq", kind="calc")
def batcalc_eq(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x == y, bool_result=True)


@register("batcalc.ne", kind="calc")
def batcalc_ne(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x != y, bool_result=True)


@register("batcalc.lt", kind="calc")
def batcalc_lt(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x < y, bool_result=True)


@register("batcalc.le", kind="calc")
def batcalc_le(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x <= y, bool_result=True)


@register("batcalc.gt", kind="calc")
def batcalc_gt(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x > y, bool_result=True)


@register("batcalc.ge", kind="calc")
def batcalc_ge(ctx, a: Operand, b: Operand) -> BAT:
    return _binary(a, b, lambda x, y: x >= y, bool_result=True)


@register("batcalc.and", kind="calc")
def batcalc_and(ctx, a: BAT, b: BAT) -> BAT:
    return _binary(a, b, lambda x, y: x & y, bool_result=True)


@register("batcalc.or", kind="calc")
def batcalc_or(ctx, a: BAT, b: BAT) -> BAT:
    return _binary(a, b, lambda x, y: x | y, bool_result=True)


@register("batcalc.not", kind="calc")
def batcalc_not(ctx, a: BAT) -> BAT:
    out = ~a.tail_values().astype(bool)
    return BAT.materialized(
        a.head if a.head_dense else a.head_values(), out, sources=a.sources
    )


@register("batcalc.ifthenelse", kind="calc")
def batcalc_ifthenelse(ctx, mask: BAT, then_val: Operand,
                       else_val: Operand) -> BAT:
    """CASE WHEN mask THEN then_val ELSE else_val END (positional)."""
    m = mask.tail_values().astype(bool)
    tv = then_val.tail_values() if isinstance(then_val, BAT) else then_val
    ev = else_val.tail_values() if isinstance(else_val, BAT) else else_val
    out = np.where(m, tv, ev)
    sources = mask.sources
    for o in (then_val, else_val):
        if isinstance(o, BAT):
            sources = sources | o.sources
    return BAT.materialized(
        mask.head if mask.head_dense else mask.head_values(),
        out,
        sources=sources,
    )


@register("batcalc.like", kind="calc")
def batcalc_like(ctx, a: BAT, pattern: str) -> BAT:
    """Boolean LIKE mask over a string tail (used inside CASE etc.)."""
    from repro.mal.operators.selection import like_mask

    out = like_mask(a.tail_values(), pattern)
    return BAT.materialized(
        a.head if a.head_dense else a.head_values(), out, sources=a.sources
    )


@register("batmtime.year", kind="calc")
def batmtime_year(ctx, bat: BAT) -> BAT:
    """Extract the calendar year from a datetime64 tail."""
    tail = bat.tail_values()
    if tail.dtype.kind != "M":
        raise InterpreterError(f"batmtime.year: expected dates, got {tail.dtype}")
    years = tail.astype("datetime64[Y]").astype(np.int64) + 1970
    return BAT.materialized(
        bat.head if bat.head_dense else bat.head_values(),
        years,
        sources=bat.sources,
    )


@register("batstr.substr", kind="calc")
def batstr_substr(ctx, bat: BAT, start: int, length: int) -> BAT:
    """SUBSTRING over a string tail (*start* is 1-based, per SQL)."""
    for bound in (start, length):
        # Template parameters: a client may bind anything here.
        if isinstance(bound, bool) or \
                not isinstance(bound, (int, np.integer)):
            raise ProgrammingError(
                f"substring bounds must be integers, got {bound!r}")
    if length < 0:
        raise ProgrammingError(f"substring length {length} is negative")
    tail = bat.tail_values()
    if tail.dtype.kind not in "US":
        raise InterpreterError(f"batstr.substr: expected strings, got {tail.dtype}")
    if start == 1 and length:           # "U0" would mean "unsized"
        out = tail.astype(f"U{length}")
    else:
        out = np.array([s[start - 1:start - 1 + length] for s in tail])
    return BAT.materialized(
        bat.head if bat.head_dense else bat.head_values(),
        out,
        sources=bat.sources,
    )


# ---------------------------------------------------------------------------
# Scalar operators over template parameters (cheap — never recycled)
# ---------------------------------------------------------------------------
def _null_propagating(fn):
    """SQL semantics: any NULL (None) operand yields NULL."""

    def wrapped(ctx, a, b):
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapped


@register("calc.add", recyclable=False, kind="scalar")
@_null_propagating
def calc_add(a, b):
    return a + b


@register("calc.sub", recyclable=False, kind="scalar")
@_null_propagating
def calc_sub(a, b):
    return a - b


@register("calc.mul", recyclable=False, kind="scalar")
@_null_propagating
def calc_mul(a, b):
    return a * b


@register("calc.div", recyclable=False, kind="scalar")
@_null_propagating
def calc_div(a, b):
    return a / b


def add_months(date: np.datetime64, months: int) -> np.datetime64:
    """Calendar-correct month arithmetic on day-resolution dates.

    Mirrors MonetDB's ``mtime.addmonths``: day-of-month is preserved where
    possible (clamped to the target month's length).
    """
    d = np.datetime64(date, "D")
    month_start = d.astype("datetime64[M]")
    day = (d - month_start).astype(np.int64)
    target_month = month_start + np.timedelta64(int(months), "M")
    next_month = target_month + np.timedelta64(1, "M")
    month_len = (
        next_month.astype("datetime64[D]") - target_month.astype("datetime64[D]")
    ).astype(np.int64)
    day = min(int(day), int(month_len) - 1)
    return target_month.astype("datetime64[D]") + np.timedelta64(day, "D")


@register("mtime.addmonths", recyclable=False, kind="scalar")
def mtime_addmonths(ctx, date, months: int):
    return add_months(date, months)


@register("mtime.addyears", recyclable=False, kind="scalar")
def mtime_addyears(ctx, date, years: int):
    return add_months(date, int(years) * 12)


@register("mtime.adddays", recyclable=False, kind="scalar")
def mtime_adddays(ctx, date, days: int):
    return np.datetime64(date, "D") + np.timedelta64(int(days), "D")
