"""The session manager: a thread-safe registry of open sessions.

The network server opens one :class:`~repro.server.session.Session` per
connection and must be able to say, at any moment, how many are alive —
and to close them all on drain.  Running a workload across sessions is
:func:`repro.bench.harness.run_workload`'s job, not the manager's.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

from repro.server.session import Session

if TYPE_CHECKING:
    from repro.db import Database


class SessionManager:
    """Opens and closes sessions on one database, under a lock.

    The network server opens and closes sessions from its event loop
    while a drain (or a test) calls :meth:`close_all` from another
    thread, so membership changes are serialised and every closed
    session leaves the list exactly once — a client vanishing mid-query
    must bring :attr:`session_count` back to zero, never leave a phantom
    entry.
    """

    def __init__(self, db: "Database"):
        self.db = db
        self.sessions: List[Session] = []
        self._lock = threading.Lock()

    def open_session(self, name: Optional[str] = None) -> Session:
        session = self.db.session(name)
        with self._lock:
            self.sessions.append(session)
        return session

    def close_session(self, session: Session) -> None:
        """Close one session and drop it from the registry (idempotent).

        Safe against double-close and against racing
        :meth:`close_all`: whichever caller wins the list removal, the
        session's own idempotent ``close()`` makes the loser a no-op.
        """
        with self._lock:
            try:
                self.sessions.remove(session)
            except ValueError:
                pass                      # already closed/removed
        session.close()

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self.sessions)

    def close_all(self) -> None:
        with self._lock:
            sessions, self.sessions = self.sessions, []
        for s in sessions:
            s.close()
