"""The disk tier of the two-tier recycle pool.

A :class:`SpillStore` keeps the *image* of a demoted recycle-pool
intermediate: instead of destroying an eviction victim whose benefit
exceeds a disk round trip, the recycler writes its column bytes here and
puts the image's :class:`SpilledStub` in the pool.  A later match
*promotes* the entry: one ``mmap`` instead of a recomputation.

Layout: one image is one file, ``bat-<token>``, the raw bytes of the
BAT's materialised columns back to back.  Dtypes, offsets, dense (void)
columns and lineage stay in memory, on the stub.  The run directory
``<spill_dir>/run-<pid>-<seq>`` is private to this store and reaped by
the next start, so nothing ever reads a file this run did not finish
writing: no commit marker, temp name or rename.  Pooled BATs are
immutable, so an image is written once and stays valid while its entry
is pooled, across any number of promotions.  A failed write (the
partial file is removed) and a file gone or short at load time both
raise :class:`~repro.errors.SpillError`, which the recycler answers by
destroying the entry and recomputing.

The store measures itself: every write and load is timed through
:attr:`SpillStore.clock` (the recycler installs its injectable clock)
into an :class:`IoCost`, and :meth:`SpillStore.round_trip_cost` is what
:func:`repro.core.eviction.should_demote` weighs an entry's benefit
against.  Unmeasured I/O costs nothing, so the first victim is demoted
and pays for the first sample.

Thread safety: the store locks its own books and mutations, so it is
safe on its own; inside the engine every call already runs under the
recycle pool's lock.  A load maps its file outside the store's lock.
"""

from __future__ import annotations

import itertools
import os
import re
import shutil
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import SpillError, SpillQuotaError
from repro.storage.bat import BAT, Dense


class SpilledStub:
    """The in-pool placeholder for a demoted BAT, and the in-memory half
    of its image: the metadata the pool needs while the data is on disk —
    ``token`` (signature matching, dependency graph), ``sources`` (update
    invalidation, §6.4), the subset lineage (semijoin subsumption, §5.1)
    — plus what :meth:`SpillStore.load` rebuilds the BAT from: the
    image's ``size`` and each column's place in it (the :class:`Dense`
    object itself, or ``(dtype, offset, count)``).  Deliberately *not* a
    :class:`~repro.storage.bat.BAT`: code that needs the values must
    promote first, and its ``isinstance`` checks skip stubs safely.
    """

    __slots__ = ("token", "sources", "subset_chain", "count",
                 "persistent_name", "owned_nbytes", "tail_sorted",
                 "columns", "size")

    @classmethod
    def of(cls, bat: BAT) -> "SpilledStub":
        self = cls()
        self.token, self.sources = bat.token, bat.sources
        self.subset_chain = bat.subset_chain
        self.count, self.persistent_name = len(bat), bat.persistent_name
        self.owned_nbytes, self.tail_sorted = bat.owned_nbytes, bat.tail_sorted
        self.columns, self.size = [], 0
        for col in (bat.head, bat.tail):
            if isinstance(col, np.ndarray):
                self.size += -self.size % 16  # mapped columns stay aligned
                self.columns.append((col.dtype, self.size, len(col)))
                self.size += int(col.nbytes)
            else:
                self.columns.append(col)
        return self

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"SpilledStub(token={self.token}, n={self.count})"


class IoCost:
    """Running means of one I/O direction as the store measured it: per
    call (open, close, map) and per byte moved; zero until measured."""

    def __init__(self):
        self.calls = self.nbytes = 0
        self.call_seconds = self.byte_seconds = 0.0

    def record(self, call_seconds, byte_seconds=0.0, nbytes=0) -> None:
        self.calls += 1
        self.call_seconds += call_seconds
        self.byte_seconds += byte_seconds
        self.nbytes += nbytes

    def estimate(self, nbytes: int) -> float:
        if not self.calls:
            return 0.0
        return (self.call_seconds / self.calls
                + nbytes * self.byte_seconds / max(self.nbytes, 1))


#: Victims one write-cost estimate may price before it counts as stale.
RESAMPLE_AFTER = 256
_RUN_DIR_RE = re.compile(r"^run-(\d+)-\d+$")


class SpillStore:
    """Token-keyed on-disk store of BAT images with a byte quota."""

    #: Distinguishes stores of one process sharing a base directory.
    _run_seq = itertools.count(1)

    def __init__(self, directory: str, limit_bytes: Optional[int] = None):
        self.base_directory = directory
        self.limit_bytes = limit_bytes
        self._images: Dict[int, SpilledStub] = {}
        self.total_bytes = 0
        self.clock: Callable[[], float] = time.perf_counter
        self.write_cost = IoCost()
        self.load_cost = IoCost()
        self._priced = 0  # estimates handed out since the last write
        self._lock = threading.RLock()
        os.makedirs(directory, exist_ok=True)
        self.recovered = self._recover()
        run = f"run-{os.getpid()}-{next(self._run_seq)}"
        self.directory = os.path.join(directory, run)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, token: int) -> str:
        return os.path.join(self.directory, f"bat-{token}")

    def _recover(self) -> int:
        """Reap leftovers in the base directory, returning the count: run
        directories whose owning process is gone (live runs are left
        strictly alone) and loose ``bat-*`` files, never written there."""
        removed = 0
        for name in os.listdir(self.base_directory):
            path = os.path.join(self.base_directory, name)
            m = _RUN_DIR_RE.match(name)
            if m is not None and os.path.isdir(path):
                if not self._pid_alive(int(m.group(1))):
                    shutil.rmtree(path, ignore_errors=True)
                    removed += 1
            elif name.startswith("bat-"):
                removed += self._unlink(path)
        return removed

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OverflowError):
            pass  # exists (another user's), or unknowable: keep
        return True

    @staticmethod
    def _unlink(path: str) -> int:
        try:
            os.remove(path)
        except OSError:
            return 0
        return 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._images)

    def has(self, token: int) -> bool:
        return token in self._images

    def image(self, token: int) -> Optional[SpilledStub]:
        return self._images.get(token)

    def room_for(self, nbytes: int) -> bool:
        """Would an image of *nbytes* fit under the quota?"""
        return (self.limit_bytes is None
                or self.total_bytes + nbytes <= self.limit_bytes)

    def round_trip_cost(self, nbytes: int) -> float:
        """Measured seconds to write an image of *nbytes* and map it
        back.  An estimate that has priced ``RESAMPLE_AFTER`` victims
        since the last write is stale and, like none, prices the next at
        nothing: a pessimistic mean must not starve itself of samples."""
        self._priced += 1
        if self._priced > RESAMPLE_AFTER:
            return 0.0
        return (self.write_cost.estimate(nbytes)
                + self.load_cost.estimate(nbytes))

    # ------------------------------------------------------------------
    def write(self, bat: BAT) -> int:
        """Write *bat*'s image, returning its size in bytes.  Raises
        ``SpillQuotaError`` before writing anything when it cannot fit,
        plain ``SpillError`` for an unspillable BAT or an I/O failure."""
        if not bat.spillable:
            raise SpillError(f"BAT token {bat.token} holds object columns")
        image, clock = SpilledStub.of(bat), self.clock
        with self._lock:
            self.delete(image.token)  # a rewrite replaces the old image
            if not self.room_for(image.size):
                raise SpillQuotaError(
                    f"spilling {image.size} bytes would exceed the "
                    f"{self.limit_bytes}-byte quota"
                )
            path = self._path(image.token)
            started = clock()
            try:
                with open(path, "wb") as f:
                    opened = clock()
                    for col, place in zip((bat.head, bat.tail), image.columns):
                        if isinstance(col, np.ndarray):
                            f.write(bytes(place[1] - f.tell()))
                            f.write(np.ascontiguousarray(col).view(np.uint8))
                    moving = clock() - opened
            except OSError as exc:
                self._unlink(path)
                raise SpillError(
                    f"writing spill image for token {image.token}: {exc}"
                ) from exc
            self.write_cost.record(clock() - started - moving, moving,
                                   image.size)
            self._priced = 0
            self._images[image.token] = image
            self.total_bytes += image.size
            return image.size

    def load(self, token: int) -> BAT:
        """Map a spilled BAT back with its original token and lineage, so
        it drops into the pool exactly where the demoted one was.  A file
        missing or not the size that was written raises ``SpillError``."""
        image = self._images.get(token)
        if image is None:
            raise SpillError(f"token {token} is not in the spill store")
        started = self.clock()
        try:
            path = self._path(token)
            on_disk = os.path.getsize(path)
            if on_disk != image.size:
                raise ValueError(f"{on_disk} bytes, wrote {image.size}")
            # Dense or empty columns only: an empty file, nothing to map.
            data = (np.memmap(path, np.uint8, "r") if on_disk
                    else np.empty(0, np.uint8))
        except (OSError, ValueError) as exc:
            raise SpillError(f"loading spill image {token}: {exc}") from exc
        head, tail = (
            c if isinstance(c, Dense) else
            data[c[1]:c[1] + c[2] * c[0].itemsize].view(c[0])
            for c in image.columns
        )
        bat = BAT(head, tail, owned_nbytes=image.owned_nbytes,
                  sources=image.sources, subset_chain=image.subset_chain,
                  tail_sorted=image.tail_sorted,
                  persistent_name=image.persistent_name)
        bat.token = token
        with self._lock:
            self.load_cost.record(self.clock() - started)
        return bat

    def delete(self, token: int) -> None:
        """Remove an image and its accounting (an unknown token is fine)."""
        with self._lock:
            image = self._images.pop(token, None)
            if image is not None:
                self.total_bytes -= image.size
                self._unlink(self._path(token))

    def clear(self) -> None:
        with self._lock:
            for token in list(self._images):
                self.delete(token)

    def close(self) -> None:
        """Delete every image and this store's own run directory."""
        self.clear()
        shutil.rmtree(self.directory, ignore_errors=True)

    def check(self) -> List[str]:
        """The books against the directory: byte-accounting drift, images
        whose file is missing or the wrong size, files no image owns."""
        with self._lock:
            sizes = {f"bat-{t}": im.size for t, im in self._images.items()}
            recorded = self.total_bytes
        on_disk = {name: os.path.getsize(os.path.join(self.directory, name))
                   for name in os.listdir(self.directory)}
        problems = [
            f"image {name}: recorded {size} bytes, {on_disk.get(name)} on disk"
            for name, size in sizes.items() if on_disk.get(name) != size
        ]
        problems += [f"stray file {n}" for n in on_disk if n not in sizes]
        if sum(sizes.values()) != recorded:
            problems.append(f"spill byte accounting drift: {recorded} "
                            f"recorded, {sum(sizes.values())} in images")
        return problems
