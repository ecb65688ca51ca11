"""Concurrent multi-session execution layer.

The paper evaluates the recycler in a single interpreter loop; this
package grows it into a server-shaped subsystem where many *sessions*
share one recycle pool:

* :class:`~repro.server.session.Session` — one client connection: its own
  interpreter and execution stack over the shared catalogue and recycler,
  plus per-session statistics.
* :class:`~repro.server.manager.SessionManager` — the thread-safe
  registry of open sessions the network server keeps.
* :class:`~repro.server.locks.ReadWriteLock` — the query/update
  serialisation primitive of the concurrency contract.

Locking protocol (coarse, two levels):

1. **Database read-write lock** — every query invocation runs under the
   shared (read) side; DML/DDL take the exclusive (write) side.  A query
   therefore sees a consistent snapshot of column versions for its whole
   plan, and update invalidation never interleaves with a running plan.
2. **Recycler pool lock** — one re-entrant mutex inside
   :class:`~repro.core.recycler.Recycler` guards all pool state
   (lookup, admission, eviction, demotion/promotion and the spill
   store of the two-tier pool, invalidation, statistics).  Operator
   execution happens *outside* this lock: the interpreter only enters it
   for the ``recycleEntry``/``recycleExit`` bookkeeping of Algorithm 1,
   so concurrent sessions overlap their actual query work.

The full walk-through, with the paper-section map, lives in
``docs/ARCHITECTURE.md``.
"""

from repro.server.locks import ReadWriteLock
from repro.server.session import Session
from repro.server.manager import SessionManager

__all__ = [
    "ReadWriteLock",
    "Session",
    "SessionManager",
]
