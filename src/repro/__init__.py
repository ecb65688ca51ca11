"""repro — recycling intermediates in a column-store.

A from-scratch reproduction of Ivanova, Kersten, Nes & Gonçalves,
"An Architecture for Recycling Intermediates in a Column-store"
(SIGMOD 2009 / TODS 2010): an operator-at-a-time column engine whose
interpreter harvests materialised intermediates into a self-organising
recycle pool, with admission/eviction policies, instruction subsumption,
and update invalidation.

The primary API is DB-API 2.0 (PEP 249)::

    import repro

    with repro.connect() as conn:       # recycler enabled
        conn.create_table("t", {"x": "int64"}, {"x": range(1000)})
        cur = conn.cursor()
        cur.execute("select count(*) from t where x >= ?", (500,))
        print(cur.fetchone()[0])

Statements are parametrised templates (paper §2.2): re-executing with
new parameters reuses the compiled plan, and the recycler serves every
parameter-independent intermediate from the pool.  The engine underneath
is :class:`repro.db.Database` — still available for embedded use.
"""

from repro.core import (
    AdaptiveCreditAdmission,
    BenefitEviction,
    CreditAdmission,
    HistoryEviction,
    KeepAllAdmission,
    LruEviction,
    Recycler,
    RecyclerConfig,
)
from repro.db import (
    CompileCacheStats,
    Database,
    PreparedStatement,
)
from repro.dbapi import (
    Connection,
    Cursor,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)
from repro.errors import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)
from repro.mal.interpreter import ExecutionStats, Interpreter, InvocationResult
from repro.mal.operators import ResultSet
from repro.net import (
    NetConnection,
    NetCursor,
    ReproServer,
    serve_in_thread,
)
from repro.rel.builder import QueryBuilder
from repro.server import ReadWriteLock, Session
from repro.storage import BAT, Catalog, SpillStore

__version__ = "2.0.0"

__all__ = [
    # DB-API 2.0 front-end
    "connect",
    "Connection",
    "Cursor",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    # Engine
    "Database",
    "PreparedStatement",
    "CompileCacheStats",
    "Session",
    "ReadWriteLock",
    "Recycler",
    "RecyclerConfig",
    "KeepAllAdmission",
    "CreditAdmission",
    "AdaptiveCreditAdmission",
    "LruEviction",
    "BenefitEviction",
    "HistoryEviction",
    # Network front door
    "NetConnection",
    "NetCursor",
    "ReproServer",
    "serve_in_thread",
    "Interpreter",
    "InvocationResult",
    "ExecutionStats",
    "ResultSet",
    "QueryBuilder",
    "BAT",
    "Catalog",
    "SpillStore",
    "__version__",
]
