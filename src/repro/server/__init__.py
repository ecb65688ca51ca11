"""Concurrent multi-session execution layer.

The paper evaluates the recycler in a single interpreter loop; this
package grows it into a server-shaped subsystem where many *sessions*
share one recycle pool:

* :class:`~repro.server.session.Session` — one client connection: its own
  interpreter and execution stack over the shared catalogue and recycler,
  plus per-session statistics.
* :class:`~repro.server.locks.ReadWriteLock` — the query/update
  serialisation primitive of the concurrency contract.

Locking protocol: three levels, always acquired database → table →
pool.  The database read-write lock is taken exclusively only by DDL and
``Database.close()``; one read-write lock per table is read by a query
for every table its plan binds and written by DML on the table it
mutates; the recycle pool's one re-entrant lock
(:attr:`repro.core.pool.RecyclePool.lock`) is held only for Algorithm
1's bookkeeping, never around operator execution.
:mod:`repro.server.locks` has the details.

The full walk-through, with the paper-section map, lives in
``docs/ARCHITECTURE.md``.
"""

from repro.server.locks import ReadWriteLock
from repro.server.session import Session

__all__ = [
    "ReadWriteLock",
    "Session",
]
