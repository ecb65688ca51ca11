"""Exception hierarchy for the repro column-store.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The sub-classes follow the
layering of the system: storage, plan/interpreter, SQL front-end, and the
recycler itself.

The PEP 249 (DB-API 2.0) hierarchy is layered on top: :class:`Error` and
its sub-classes are what the :mod:`repro.dbapi` front-end raises, and
every engine error class is rebased onto the DB-API branch it belongs
to (SQL/catalog mistakes → :class:`ProgrammingError`, storage and
interpreter failures → :class:`OperationalError`, DML application →
:class:`DataError`, library bugs → :class:`InternalError`), so client
code written against the DB-API surface catches everything
idiomatically::

    try:
        cur.execute("select * from nosuch where x > ?", (10,))
    except repro.Error as exc:      # catches CatalogError too
        ...
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ----------------------------------------------------------------------
# PEP 249 (DB-API 2.0) hierarchy
# ----------------------------------------------------------------------
class Warning(ReproError):  # noqa: A001 - name mandated by PEP 249
    """Important warnings (PEP 249)."""


class Error(ReproError):
    """Base class of all DB-API errors (PEP 249)."""


class InterfaceError(Error):
    """Misuse of the database *interface*: closed handles, bad config."""


class DatabaseError(Error):
    """Errors related to the database itself."""


class DataError(DatabaseError):
    """Problems with the processed data (bad values, out of range)."""


class OperationalError(DatabaseError):
    """Errors outside the programmer's control (I/O, resources)."""


class IntegrityError(DatabaseError):
    """Relational integrity violations."""


class InternalError(DatabaseError):
    """The database ran into an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """SQL mistakes: syntax errors, wrong parameter counts, bad names."""


class NotSupportedError(DatabaseError):
    """A requested feature is not supported by this engine."""


class StorageError(OperationalError):
    """Errors raised by the BAT storage layer."""


class BatTypeError(StorageError):
    """An operator received a BAT of an incompatible type."""


class SpillError(StorageError):
    """A spill-store operation failed (missing, corrupt or unwritable file)."""


class SpillQuotaError(SpillError):
    """Writing a BAT would exceed the spill store's byte quota."""


class CatalogError(ProgrammingError):
    """Unknown schema objects, duplicate definitions, and the like."""


class PlanError(InternalError):
    """Malformed MAL programs: unknown opcodes, bad variable references."""


class InterpreterError(OperationalError):
    """Run-time failures during MAL plan interpretation."""


class SqlError(ProgrammingError):
    """Base class for SQL front-end errors (a DB-API ProgrammingError)."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenised or parsed."""


class SqlBindError(SqlError):
    """Name resolution failed (unknown table/column/function)."""


class RecyclerError(InternalError):
    """Internal recycler failures (policy misconfiguration etc.)."""


class UpdateError(DataError):
    """Data a table cannot take: bad DML input, or initial table data
    that does not fit its declared column types."""
