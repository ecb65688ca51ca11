"""SQL front-end: lexer, parser, and planner onto the relational builder.

Covers single-block SPJA queries: SELECT (expressions, aggregates,
DISTINCT), FROM with comma joins, WHERE conjunctions (ranges, equality,
BETWEEN, IN, LIKE, join predicates, computed comparisons), GROUP BY,
HAVING, ORDER BY, LIMIT/OFFSET, plus ``date '...'`` and
``interval 'n' month`` literals.

All literal constants — LIMIT, OFFSET and substring bounds included — are
factored out into template parameters (paper §2.2), so textually
different instances of the same query shape share one cached plan — the
property recycling feeds on.  DB-API placeholders (``?`` / ``:name``,
see :mod:`repro.sql.params`) normalise to the same template key as
inline literals, so parametrised statements bind straight into those
template parameters without re-compiling.
"""

from repro.sql.planner import CompiledQuery, compile_tokens

__all__ = ["CompiledQuery", "compile_tokens"]
