"""Column storage substrate: BATs, catalogue, tables, and the spill tier.

This package is the MonetDB-kernel analogue of the reproduction.  Data is
stored column-wise in Binary Association Tables (:class:`~repro.storage.bat.BAT`),
binary tables mapping a head of object identifiers (oids) to a tail of
values.  Tables are collections of equally long columns registered in a
:class:`~repro.storage.catalog.Catalog`; every update bumps the versions
of the columns it changes, which is all the recycler needs to drop what
went stale (§6.4).
"""

from repro.storage.bat import BAT, Dense, OID_DTYPE, column_values
from repro.storage.catalog import Catalog, ColumnDef, TableDef
from repro.storage.spill import SpillStore, SpilledStub
from repro.storage.table import Table

__all__ = [
    "BAT",
    "Dense",
    "OID_DTYPE",
    "column_values",
    "Catalog",
    "ColumnDef",
    "TableDef",
    "Table",
    "SpillStore",
    "SpilledStub",
]
