"""Data access operators: ``sql.bind`` and ``sql.bindidx``.

Binds resolve catalogue names to persistent column BATs (paper §2.2).  The
catalogue returns a stable BAT object per column *version*, so bind results
of unchanged columns match across queries in the recycle pool, while any
update yields a fresh token (and triggers invalidation).
"""

from __future__ import annotations

from repro.mal.operators import register


@register("sql.bind", kind="bind")
def sql_bind(ctx, table: str, column: str):
    """``sql.bind(table, column)`` — the persistent BAT ``[oid -> value]``."""
    return ctx.catalog.bind(table, column)


@register("sql.bindidx", kind="bind")
def sql_bindidx(ctx, fk_table: str, fk_column: str):
    """``sql.bindIdxbat`` — FK join index ``[fk_oid -> pk_oid]``."""
    return ctx.catalog.bind_idx(fk_table, fk_column)
