"""Engines under test and the closed loops that drive them.

Three ways to hold an engine, one interface (``callers()``, ``db``,
``peak_rss_mb()``, ``close()``):

* :class:`Embedded` — the engine in this process behind a DB-API cursor;
* :class:`ServerProcess` — ``perf/server_main.py`` as a child process,
  reached over ``repro://`` (the untraced ``tpch_net``);
* :class:`ServerThread` — the same server on a thread of this process,
  so the tracer's wrappers see both ends (the traced ``tpch_net``).

All loops are *closed*: a caller issues its next statement only when
``fetchall`` of the previous one has returned, as PEP-249 callers do.
"""

from __future__ import annotations

import gc
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import repro
from repro.net.server import serve_in_thread

from perf.workloads import (
    NET_CLIENTS,
    REFRESH_EVERY,
    STATEMENT_SQL,
    VERIFY_EVERY,
    Sizes,
    Statement,
    Workload,
    build_engine,
    refresh_stream,
)

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space inside the checkout (spill directories, raw spans).
OUT_DIR = os.path.join(PERF_DIR, "out")

#: A lost server must fail the run well inside the driver's time limit.
NET_TIMEOUT_S = 60.0

#: ``call(statement) -> (rows, server_wall_seconds or None)``
Caller = Callable[[Statement], Tuple[list, Optional[float]]]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class Embedded:
    """The engine in this process, reached through a DB-API cursor."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes):
        self.spill_root = None
        if workload.bounded:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.spill_root = tempfile.mkdtemp(prefix="spill-", dir=OUT_DIR)
        self.db = build_engine(workload, seed, sizes, self.spill_root)
        self.conn = repro.connect(database=self.db)

    def callers(self) -> List[Caller]:
        cur = self.conn.cursor()

        def call(stmt: Statement):
            cur.execute(stmt.sql, stmt.params)
            return cur.fetchall(), None

        return [call]

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def close(self) -> None:
        self.conn.close()
        self.db.close()
        if self.spill_root is not None:
            shutil.rmtree(self.spill_root, ignore_errors=True)


def _net_callers(url: str) -> Tuple[list, List[Caller]]:
    """``NET_CLIENTS`` connections, every statement PREPAREd on each."""
    conns, callers = [], []
    for _ in range(NET_CLIENTS):
        conn = repro.connect(url=url, timeout=NET_TIMEOUT_S)
        conns.append(conn)
        for name, sql in STATEMENT_SQL.items():
            conn.prepare(name, sql)
        cur = conn.cursor()

        def call(stmt: Statement, cur=cur):
            cur.execute_named(stmt.name, stmt.params)
            return cur.fetchall(), cur.stats["wall_time"]

        callers.append(call)
    return conns, callers


class ServerThread:
    """The network server on a thread of this process (traced runs)."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes):
        self.db = build_engine(workload, seed, sizes)
        self.handle = serve_in_thread(self.db)
        self.conns, self._callers = _net_callers(self.handle.url)

    def callers(self) -> List[Caller]:
        return self._callers

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.handle.shutdown()
        self.db.close()


class ServerProcess:
    """``perf/server_main.py`` as a child process (untraced runs)."""

    db = None       # the engine lives in the child

    def __init__(self, workload: Workload, seed: int, sizes: Sizes):
        self.conns: list = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(PERF_DIR, "server_main.py"),
             "--workload", workload.name, "--seed", str(seed),
             "--sizes", sizes.name],
            stdout=subprocess.PIPE, text=True)
        try:
            port = self._await_port(timeout=120.0)
            self.conns, self._callers = _net_callers(
                f"repro://127.0.0.1:{port}")
        except BaseException:
            self.close()
            raise

    def _await_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("LISTENING "):
            raise RuntimeError(
                f"server did not start (said {line!r}, "
                f"exit code {self.proc.poll()})")
        return int(line.split()[1])

    def callers(self) -> List[Caller]:
        return self._callers

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server: the memory the recycler holds."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)   # graceful drain
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def open_engine(workload: Workload, seed: int, sizes: Sizes,
                in_process: bool):
    if not workload.network:
        return Embedded(workload, seed, sizes)
    if in_process:
        return ServerThread(workload, seed, sizes)
    return ServerProcess(workload, seed, sizes)


# ----------------------------------------------------------------------
# The timed closed loop
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    """What one closed-loop caller saw, in its own order."""

    #: (stream index, latency seconds, server wall seconds or None)
    statements: List[Tuple[int, float, Optional[float]]] = \
        field(default_factory=list)
    #: (stream index, rows) of every ``VERIFY_EVERY``-th statement played
    samples: List[Tuple[int, list]] = field(default_factory=list)
    #: (stream index it followed, latency seconds) per refresh block
    dml: List[Tuple[int, float]] = field(default_factory=list)
    #: (stream index, error text) for statements that raised
    errors: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class RunLog:
    clients: List[ClientLog]
    wall_s: float
    cpu_s: float

    @property
    def attempted(self) -> int:
        return sum(len(c.statements) + len(c.errors) for c in self.clients)


def _play(call: Caller, stream: Sequence[Statement], indices: range,
          deadline: float, log: ClientLog, refresh, tracer) -> None:
    """One caller's closed loop over its share of the stream."""
    clock = time.perf_counter
    if tracer is not None:
        tracer.mark_client_thread()
        # The root span of every statement; its self time is what no
        # layer's wrapper covered.  (A refresh block's root span is the
        # "refresh" wrapper around update_block itself.)
        call = tracer.wrap("stmt", call)
    for position, i in enumerate(indices):
        stmt = stream[i]
        if tracer is not None:
            tracer.begin_statement(i)
        t0 = clock()
        if t0 >= deadline:
            break
        try:
            rows, server_wall = call(stmt)
        except repro.Error as exc:
            log.errors.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        log.statements.append((i, clock() - t0, server_wall))
        if position % VERIFY_EVERY == 0:
            log.samples.append((i, rows))
        if refresh is not None and (i + 1) % REFRESH_EVERY == 0:
            t0 = clock()
            refresh.update_block()
            log.dml.append((i, clock() - t0))


def run_timed(engine, workload: Workload, stream: Sequence[Statement],
              seed: int, seconds: float, tracer=None) -> RunLog:
    """Play *stream* against *engine* for *seconds* seconds."""
    callers = engine.callers()
    refresh = refresh_stream(engine.db, seed) if workload.volatile else None
    logs = [ClientLog() for _ in callers]
    gc.collect()
    cpu0 = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    if len(callers) == 1:
        _play(callers[0], stream, range(len(stream)), deadline, logs[0],
              refresh, tracer)
    else:
        # Caller k plays statements k, k+n, k+2n, ... of the stream.
        failures: List[BaseException] = []

        def client(k: int) -> None:
            try:
                _play(callers[k], stream,
                      range(k, len(stream), len(callers)),
                      deadline, logs[k], None, tracer)
            except BaseException as exc:    # re-raised on the main thread
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(k,),
                                    name=f"perf-client-{k}")
                   for k in range(len(callers))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
    wall = time.perf_counter() - started
    return RunLog(logs, wall, time.process_time() - cpu0)
