"""Update deltas (paper §6).

MonetDB/SQL processes updates through per-table delta structures: inserts
and deletes are collected and merged into the base columns at commit.  The
recycler consumes these deltas in two ways:

* **Immediate invalidation** (the mode the paper evaluates, §6.4): the
  recycler needs no delta at all; the table bumps column versions and
  the recycler drops intermediates derived from versions no longer
  current.
* **Delta propagation** (the design of §6.3, implemented here as an
  extension): propagation needs the actual inserted rows / deleted oids,
  which the :class:`TableDelta` each update returns records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class TableDelta:
    """The net effect of one committed update batch on a table.

    Attributes:
        table: table name.
        insert_start: first oid of the appended rows (before any deletes in
            the same batch were compacted), or ``None`` if nothing was
            appended.
        inserted: per-column arrays of the appended rows.
        deleted_oids: oids (pre-compaction) of the deleted rows.
        renumbered: True when deletes physically compacted the table and
            oids were renumbered — propagation is then impossible and
            consumers must fall back to invalidation.
    """

    table: str
    insert_start: Optional[int] = None
    inserted: Dict[str, np.ndarray] = field(default_factory=dict)
    deleted_oids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    renumbered: bool = False

    @property
    def n_inserted(self) -> int:
        if not self.inserted:
            return 0
        return len(next(iter(self.inserted.values())))

    @property
    def n_deleted(self) -> int:
        return len(self.deleted_oids)

    @property
    def append_only(self) -> bool:
        """True when the batch only appended rows (propagation-friendly)."""
        return self.n_deleted == 0 and not self.renumbered
