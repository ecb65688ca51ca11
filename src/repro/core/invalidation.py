"""Update synchronisation entry point (paper §6.4).

The paper's implemented granularity: inserting or deleting rows affects
every cached column of the changed table; an in-place column update affects
only the columns directly touched.  :class:`~repro.storage.table.Table`
encodes that rule once, in the column versions it bumps; the recycler
drops every entry derived from a version that is no longer current
(:meth:`~repro.core.recycler.Recycler.on_update`).
"""

from __future__ import annotations

from repro.storage.catalog import Catalog
from repro.storage.deltas import TableDelta


def synchronize(recycler, catalog: Catalog, delta: TableDelta) -> int:
    """Apply the recycler's update synchronisation for one committed delta.

    Returns the number of invalidated pool entries.  Honours the
    recycler's ``propagate_selects`` configuration (§6.3 extension).
    """
    return recycler.on_update(delta.table, catalog, delta)
