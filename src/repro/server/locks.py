"""Locking primitives for the multi-session execution layer.

Lock hierarchy (see ``docs/ARCHITECTURE.md`` for the full inventory)::

    database lock  →  table locks (sorted by name)  →  pool lock

* **Database level** — one phase-fair :class:`ReadWriteLock`.  Only
  *structural* operations take its write side: DDL (``CREATE`` /
  ``DROP`` / ``ADD FOREIGN KEY``) and ``Database.close()``.  Queries
  *and* DML take the read side — they coexist at this level and are
  serialised against each other per table below.
* **Table level** — one :class:`ReadWriteLock` per table, created on
  demand by :class:`TableLockManager`.  A query takes the read side of
  every table it binds, in sorted-name order; a DML statement takes the
  write side of the one table it mutates.  Ordered acquisition makes
  deadlock impossible; phase fairness means neither side starves the
  other — a steady query stream on ``photoobj`` cannot block a refresh
  stream on ``lineitem`` (they no longer contend at all), and a tight
  update loop on one table cannot lock readers of that table out
  forever.
* **Pool level** — the recycle pool's one re-entrant lock
  (:attr:`repro.core.pool.RecyclePool.lock`): every recycler operation
  on the pool — lookup, subsumption search, admission, eviction,
  promotion, invalidation, reset — runs under it, below the table
  level.

Nothing acquires a higher level while holding a lower one: the levels
are acquired strictly database → table → pool, so the three tiers
cannot deadlock against each other.

Each :class:`ReadWriteLock` is re-entrant per thread for the *read* side
(a session callback that issues a nested query must not deadlock), but
deliberately not upgradeable: acquiring the write side while holding the
read side is a programming error and raises immediately instead of
deadlocking.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List

from repro.errors import ReproError


class LockProtocolError(ReproError):
    """Misuse of the server locking protocol (e.g. read-to-write upgrade)."""


class ReadWriteLock:
    """A phase-fair readers-writer lock with re-entrant read side.

    Writers are preferred while they wait — new readers queue up behind
    a waiting writer, so a steady query stream cannot starve DML.  The
    preference is bounded the other way too: when a writer releases,
    the readers *already waiting at that instant* are granted admission
    before the next writer may enter (``_reader_grants``).  Without
    that grant a back-to-back writer stream (a tight update loop)
    re-registers as waiting before woken readers re-check the gate and
    starves them indefinitely.

    All shared state — ``_readers``, ``_writer``, ``_writer_depth``,
    ``_writers_waiting``, ``_readers_waiting``, ``_reader_grants`` — is
    read and written only under ``_cond``; the former fast paths that
    peeked at ``_writer`` without the lock could observe a torn/stale
    owner id and mis-grant re-entrant acquisition.  Per-thread read
    re-entrancy lives in a ``threading.local`` and needs no lock.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None       # owning thread id
        self._writer_depth = 0
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Readers owed admission before the next writer (set at write
        # release to the number then waiting).  Writers wait for the
        # grants to drain, so the count reaches zero before any writer
        # acquires — it cannot go stale.
        self._reader_grants = 0
        self._read_depth = threading.local()  # per-thread read re-entrancy

    # ------------------------------------------------------------------
    def _depth(self) -> int:
        return getattr(self._read_depth, "value", 0)

    def acquire_read(self) -> None:
        depth = self._depth()
        if depth > 0:
            # Thread-local: no other thread can race this fast path.
            self._read_depth.value = depth + 1
            return
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # A writer issuing a nested read: granted without touching
                # the reader count.  Remembered per-thread, because by
                # release time the write side may already have been
                # dropped.
                self._read_depth.value = 1
                self._read_depth.virtual = True
                return
            while self._writer is not None or (
                    self._writers_waiting and not self._reader_grants):
                self._readers_waiting += 1
                try:
                    self._cond.wait()
                finally:
                    self._readers_waiting -= 1
            if self._reader_grants:
                self._reader_grants -= 1
            self._readers += 1
        self._read_depth.value = 1
        self._read_depth.virtual = False

    def release_read(self) -> None:
        depth = self._depth()
        if depth == 0:
            raise LockProtocolError("release_read without acquire_read")
        self._read_depth.value = depth - 1
        if depth > 1:
            return
        if getattr(self._read_depth, "virtual", False):
            self._read_depth.virtual = False
            return
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Owner check first: a writer that took a nested (virtual)
                # read may still re-enter the write side.
                self._writer_depth += 1
                return
            if self._depth() > 0:
                raise LockProtocolError(
                    "cannot upgrade a read lock to a write lock"
                )
            self._writers_waiting += 1
            try:
                while (self._readers or self._writer is not None
                       or self._reader_grants):
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise LockProtocolError("release_write by non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth:
                return
            self._writer = None
            # Phase handoff: everyone blocked at this moment on the read
            # side goes before the next writer.  Any reader admitted
            # while writers wait consumes one grant, so exactly this
            # many enter before writer preference resumes.
            self._reader_grants = self._readers_waiting
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class TableLockManager:
    """The database- and table-level tiers of the lock hierarchy.

    One phase-fair database :class:`ReadWriteLock` plus one
    :class:`ReadWriteLock` per table, created on first use and never
    discarded (a dropped table's lock simply goes quiescent — keeping it
    avoids a delete race against a straggler DML on the dying table).

    Protocol:

    * **Queries** — database *read* + sorted table *reads* for every
      table the plan binds (:meth:`query_locked`).
    * **DML** — database *read* + the mutated table's *write*
      (:meth:`dml_locked`): updates on distinct tables run concurrently
      with each other and with queries on other tables.
    * **DDL / close** — database *write* (:meth:`ddl_locked`): drains
      every query and every DML, so it implicitly owns all tables and
      never touches the per-table tier.

    Table locks are always acquired in sorted-name order, never while
    holding another table's lock out of order, and never while holding
    the pool lock — the global order is database → table → pool.
    """

    def __init__(self):
        self.database = ReadWriteLock()
        self._tables: Dict[str, ReadWriteLock] = {}
        self._registry_lock = threading.Lock()

    def table_lock(self, name: str) -> ReadWriteLock:
        """The (lazily created) lock for *name*."""
        with self._registry_lock:
            lock = self._tables.get(name)
            if lock is None:
                lock = self._tables[name] = ReadWriteLock()
            return lock

    # ------------------------------------------------------------------
    @contextmanager
    def query_locked(self, tables: Iterable[str]):
        """Read-lock the database, then each named table in sorted order."""
        with self.database.read_locked():
            acquired: List[ReadWriteLock] = []
            try:
                for name in sorted(set(tables)):
                    lock = self.table_lock(name)
                    lock.acquire_read()
                    acquired.append(lock)
                yield
            finally:
                for lock in reversed(acquired):
                    lock.release_read()

    @contextmanager
    def dml_locked(self, table: str):
        """Read-lock the database, write-lock the one mutated table."""
        with self.database.read_locked():
            with self.table_lock(table).write_locked():
                yield

    @contextmanager
    def ddl_locked(self):
        """Write-lock the database: drains all queries and all DML."""
        with self.database.write_locked():
            yield
