"""Lowering relational queries to the binary column algebra.

The builder reproduces the plan shapes MonetDB's SQL compiler emits
(paper §2.2, Figure 1): selection threads over base columns, oid pair
lists for joins, ``markT``/``reverse`` re-numbering to align all tables on
dense result positions, projection joins to fetch output attributes, and
group/aggregate/sort tails.

The central invariant: once an alias is part of the *row stream*, its
alignment BAT ``[pos -> oid]`` maps dense result positions to that table's
row oids.  Every row-level expression is a BAT ``[pos -> value]`` aligned
on the same dense positions.  Any operation that drops or multiplies rows
(joins, row filters) produces a *remap* ``[new_pos -> old_pos]`` and the
builder re-aligns every registered alias and expression, so user-held
:class:`Expr` handles stay valid throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PlanError
from repro.mal.program import Const, MalProgram, ProgramBuilder, VarRef
from repro.mal.optimizer import optimize
from repro.storage.catalog import Catalog

#: A filter bound / scalar operand: template parameter (VarRef), literal,
#: or None (unbounded).
Bound = Union[VarRef, int, float, str, None]


@dataclass(frozen=True, eq=False)
class Expr:
    """Handle to a column expression; resolves to a live plan variable.

    ``level`` is ``"row"`` (aligned on stream positions) or ``"group"``
    (aligned on group ids).  ``owner`` is the builder whose registry keeps
    the expression current — expressions from a finished *subplan* may be
    consumed by a parent plan (keysets, lookups).
    """

    id: int
    level: str
    owner: "QueryBuilder"


class QueryBuilder:
    """Builds one query template against a catalogue.

    Typical use::

        q = QueryBuilder(catalog, "q6")
        d1 = q.param("date1")
        q.scan("lineitem")
        q.filter_range("lineitem", "l_shipdate", lo=d1, hi=...)
        rev = q.mul(q.col("lineitem", "l_extendedprice"),
                    q.col("lineitem", "l_discount"))
        q.select_scalar("revenue", q.agg_sum_scalar(rev))
        template = q.build()
    """

    def __init__(self, catalog: Catalog, name: str,
                 program: Optional[ProgramBuilder] = None):
        self.catalog = catalog
        self.b = program if program is not None else ProgramBuilder(name)
        self._tables: Dict[str, str] = {}          # alias -> table name
        self._cand: Dict[str, Optional[VarRef]] = {}   # selection phase
        self._align: Dict[str, VarRef] = {}        # alias -> [pos -> oid]
        self._stream: List[str] = []
        self._exprs: Dict[int, VarRef] = {}        # live expression vars
        self._expr_level: Dict[int, str] = {}
        self._next_expr = 0
        self._grouped = False
        self._group_var: Optional[VarRef] = None   # [pos -> gid]
        self._output: Optional[VarRef] = None

    # ------------------------------------------------------------------
    # Template parameters and scans
    # ------------------------------------------------------------------
    def param(self, name: str) -> VarRef:
        """Declare a template parameter (a factored-out literal)."""
        return self.b.param(name)

    def subplan(self, suffix: str) -> "QueryBuilder":
        """A child builder emitting into the same template.

        Sub-queries build their own row stream (their own scans, filters,
        joins, grouping); the parent consumes their expressions through
        :meth:`filter_in_keys`, :meth:`filter_not_in_keys` or
        :meth:`lookup`.  This mirrors how MonetDB's SQL compiler flattens
        nested blocks into one MAL function — and it is what creates the
        paper's *intra-query* commonalities (§7, Q11): a sub-query
        duplicating the outer block's scans produces identical instructions
        the recycler reuses within one invocation.
        """
        return QueryBuilder(self.catalog, f"{self.b.name}:{suffix}",
                            program=self.b)

    def scan(self, table: str, alias: Optional[str] = None) -> str:
        """Register a base table under *alias* (defaults to the name)."""
        alias = alias or table
        if alias in self._tables:
            raise PlanError(f"duplicate alias {alias!r}")
        self.catalog.table(table)  # existence check
        self._tables[alias] = table
        self._cand[alias] = None
        return alias

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _table_of(self, alias: str) -> str:
        try:
            return self._tables[alias]
        except KeyError:
            raise PlanError(f"unknown alias {alias!r}")

    def _bind(self, alias: str, column: str) -> VarRef:
        table = self._table_of(alias)
        if not self.catalog.table(table).has_column(column):
            raise PlanError(f"no column {column!r} in {table}")
        return self.b.emit("sql.bind", Const(table), Const(column))

    def _restricted(self, alias: str, column: str) -> VarRef:
        """``[oid -> value]`` of *column* limited to current candidates."""
        col = self._bind(alias, column)
        cand = self._cand[alias]
        if cand is None:
            return col
        return self.b.emit("algebra.semijoin", col, cand)

    def _new_expr(self, var: VarRef, level: str) -> Expr:
        expr = Expr(self._next_expr, level, self)
        self._next_expr += 1
        self._exprs[expr.id] = var
        self._expr_level[expr.id] = level
        return expr

    def var_of(self, expr: Expr) -> VarRef:
        """The current plan variable of *expr* (advanced use/tests)."""
        return expr.owner._exprs[expr.id]

    def _row_var(self, operand: Union[Expr, Bound]):
        if isinstance(operand, Expr):
            if operand.level != "row":
                raise PlanError("expected a row-level expression")
            if operand.owner is not self:
                raise PlanError(
                    "row expression belongs to a different (sub)plan"
                )
            return self._exprs[operand.id]
        return operand if isinstance(operand, VarRef) else Const(operand)

    # ------------------------------------------------------------------
    # Selection phase: filters on single base columns (pre-join)
    # ------------------------------------------------------------------
    def _apply_base_filter(self, alias: str, opname: str, column: str,
                           *extra) -> None:
        if alias in self._align:
            raise PlanError(
                f"{alias} already joined; use row-level filters instead"
            )
        operand = self._restricted(alias, column)
        filtered = self.b.emit(opname, operand, *extra)
        self._cand[alias] = filtered

    def filter_range(self, alias: str, column: str, lo: Bound = None,
                     hi: Bound = None, lo_incl: bool = True,
                     hi_incl: bool = True) -> None:
        """Range predicate on a base column (selection push-down)."""
        self._apply_base_filter(
            alias, "algebra.select", column,
            self._as_arg(lo), self._as_arg(hi),
            Const(lo_incl), Const(hi_incl),
        )

    def filter_eq(self, alias: str, column: str, value: Bound) -> None:
        self._apply_base_filter(alias, "algebra.uselect", column,
                                self._as_arg(value))

    def filter_in(self, alias: str, column: str,
                  values: Union[VarRef, Sequence]) -> None:
        arg = values if isinstance(values, VarRef) else Const(tuple(values))
        self._apply_base_filter(alias, "algebra.inselect", column, arg)

    def filter_like(self, alias: str, column: str,
                    pattern: Bound) -> None:
        self._apply_base_filter(alias, "algebra.likeselect", column,
                                self._as_arg(pattern))

    def filter_not_like(self, alias: str, column: str,
                        pattern: Bound) -> None:
        self._apply_base_filter(alias, "algebra.notlikeselect", column,
                                self._as_arg(pattern))

    @staticmethod
    def _as_arg(value: Bound):
        return value if isinstance(value, VarRef) else Const(value)

    # ------------------------------------------------------------------
    # Stream construction: joins
    # ------------------------------------------------------------------
    def _ensure_stream(self, alias: str) -> None:
        if alias in self._align:
            return
        if self._stream:
            raise PlanError(
                f"{alias} is not connected to the join stream; "
                "join it before projecting its columns"
            )
        cand = self._cand[alias]
        if cand is None:
            table = self.catalog.table(self._table_of(alias))
            first_col = table.column_names[0]
            base = self._bind(alias, first_col)
            cand = self.b.emit("bat.mirror", base)
            self._cand[alias] = cand
        mark = self.b.emit("algebra.markT", cand, Const(0))
        self._align[alias] = self.b.emit("bat.reverse", mark)
        self._stream.append(alias)

    def _realign(self, remap: VarRef) -> None:
        """Re-align every alias and row expression through
        ``remap = [new_pos -> old_pos]``."""
        for alias in self._stream:
            self._align[alias] = self.b.emit(
                "algebra.leftfetchjoin", remap, self._align[alias]
            )
        for eid, var in list(self._exprs.items()):
            if self._expr_level[eid] == "row":
                self._exprs[eid] = self.b.emit(
                    "algebra.leftfetchjoin", remap, var
                )

    def _remap_from_pairs(self, pairs: VarRef, new_alias: str) -> None:
        """Install alignments from a pair list ``[old_pos -> new_oid]``."""
        mark = self.b.emit("algebra.markT", pairs, Const(0))
        remap = self.b.emit("bat.reverse", mark)           # new -> old
        self._realign(remap)
        pairs_rev = self.b.emit("bat.reverse", pairs)      # oid -> old_pos
        mark2 = self.b.emit("algebra.markT", pairs_rev, Const(0))
        self._align[new_alias] = self.b.emit("bat.reverse", mark2)
        self._stream.append(new_alias)

    def join(self, left_alias: str, left_col: str, right_alias: str,
             right_col: str) -> None:
        """Equi-join two tables; uses a declared FK join index if present.

        At most one side may be outside the current row stream (join order
        must keep the stream connected, as MonetDB's plans do).
        """
        in_l = left_alias in self._align
        in_r = right_alias in self._align
        if not in_l and not in_r:
            if self._stream:
                raise PlanError(
                    "join would create a disconnected stream; reorder joins"
                )
            self._join_seed(left_alias, left_col, right_alias, right_col)
        elif in_l and in_r:
            self._join_filter(left_alias, left_col, right_alias, right_col)
        elif in_l:
            self._join_extend(left_alias, left_col, right_alias, right_col)
        else:
            self._join_extend(right_alias, right_col, left_alias, left_col)

    def _fk_index(self, fk_alias: str, fk_col: str, pk_alias: str,
                  pk_col: str) -> Optional[VarRef]:
        fk = self.catalog.foreign_key_for(self._table_of(fk_alias), fk_col)
        if (fk is not None and fk.pk_table == self._table_of(pk_alias)
                and fk.pk_column == pk_col):
            return self.b.emit("sql.bindidx",
                               Const(self._table_of(fk_alias)),
                               Const(fk_col))
        return None

    def _join_seed(self, la: str, lc: str, ra: str, rc: str) -> None:
        """First join: neither side in the stream yet."""
        idx = self._fk_index(la, lc, ra, rc)
        if idx is not None:
            pairs = self._seed_pairs_fk(la, idx, ra)
        else:
            idx = self._fk_index(ra, rc, la, lc)
            if idx is not None:
                pairs = self._seed_pairs_fk(ra, idx, la)
                la, ra = ra, la  # pairs are [oid_ra_orig ... ] swapped
            else:
                lv = self._restricted(la, lc)      # [oidL -> val]
                rv = self._restricted(ra, rc)      # [oidR -> val]
                rv_rev = self.b.emit("bat.reverse", rv)
                pairs = self.b.emit("algebra.join", lv, rv_rev)
        # pairs = [oidL -> oidR]
        mark = self.b.emit("algebra.markT", pairs, Const(0))
        self._align[la] = self.b.emit("bat.reverse", mark)
        pairs_rev = self.b.emit("bat.reverse", pairs)
        mark2 = self.b.emit("algebra.markT", pairs_rev, Const(0))
        self._align[ra] = self.b.emit("bat.reverse", mark2)
        self._stream.extend([la, ra])

    def _seed_pairs_fk(self, fk_alias: str, idx: VarRef,
                       pk_alias: str) -> VarRef:
        """Pairs ``[oid_fk -> oid_pk]`` through a join index, candidates
        applied on both sides."""
        cand_fk = self._cand[fk_alias]
        pairs = idx
        if cand_fk is not None:
            pairs = self.b.emit("algebra.semijoin", pairs, cand_fk)
        cand_pk = self._cand[pk_alias]
        if cand_pk is not None:
            mirror = self.b.emit("bat.mirror", cand_pk)
            pairs = self.b.emit("algebra.join", pairs, mirror)
        return pairs

    def _join_extend(self, in_alias: str, in_col: str, new_alias: str,
                     new_col: str) -> None:
        """Extend the stream with *new_alias* through an equi-join."""
        idx = self._fk_index(in_alias, in_col, new_alias, new_col)
        if idx is not None:
            keys = self.b.emit("algebra.leftfetchjoin",
                               self._align[in_alias], idx)  # [pos -> oidN]
            cand = self._cand[new_alias]
            if cand is not None:
                mirror = self.b.emit("bat.mirror", cand)
                pairs = self.b.emit("algebra.join", keys, mirror)
            else:
                pairs = keys
        else:
            vals = self.b.emit("algebra.leftfetchjoin",
                               self._align[in_alias],
                               self._bind(in_alias, in_col))  # [pos -> val]
            nv = self._restricted(new_alias, new_col)          # [oidN -> val]
            nv_rev = self.b.emit("bat.reverse", nv)
            pairs = self.b.emit("algebra.join", vals, nv_rev)  # [pos -> oidN]
        self._remap_from_pairs(pairs, new_alias)

    def _join_filter(self, la: str, lc: str, ra: str, rc: str) -> None:
        """Both sides already aligned: the join is a row filter."""
        lv = self.col(la, lc)
        rv = self.col(ra, rc)
        self.filter_expr(self.cmp("eq", lv, rv))

    # ------------------------------------------------------------------
    # Row-level expressions
    # ------------------------------------------------------------------
    def col(self, alias: str, column: str) -> Expr:
        """Project a base column into the row stream: ``[pos -> value]``."""
        self._ensure_stream(alias)
        var = self.b.emit("algebra.leftfetchjoin", self._align[alias],
                          self._bind(alias, column))
        return self._new_expr(var, "row")

    def _calc(self, opname: str, *operands) -> Expr:
        args = [self._row_var(o) for o in operands]
        level = "row" if any(isinstance(o, Expr) for o in operands) else "row"
        return self._new_expr(self.b.emit(opname, *args), level)

    def add(self, a, b) -> Expr:
        return self._calc("batcalc.add", a, b)

    def sub(self, a, b) -> Expr:
        return self._calc("batcalc.sub", a, b)

    def mul(self, a, b) -> Expr:
        return self._calc("batcalc.mul", a, b)

    def div(self, a, b) -> Expr:
        return self._calc("batcalc.div", a, b)

    def cmp(self, op: str, a, b) -> Expr:
        """Comparison mask expression; *op* in eq/ne/lt/le/gt/ge."""
        if op not in ("eq", "ne", "lt", "le", "gt", "ge"):
            raise PlanError(f"unknown comparison {op!r}")
        return self._calc(f"batcalc.{op}", a, b)

    def and_(self, a: Expr, b: Expr) -> Expr:
        return self._calc("batcalc.and", a, b)

    def or_(self, a: Expr, b: Expr) -> Expr:
        return self._calc("batcalc.or", a, b)

    def not_(self, a: Expr) -> Expr:
        return self._calc("batcalc.not", a)

    def case(self, mask: Expr, then_val, else_val) -> Expr:
        return self._calc("batcalc.ifthenelse", mask, then_val, else_val)

    def year(self, a: Expr) -> Expr:
        return self._calc("batmtime.year", a)

    def substr(self, a: Expr, start: Bound, length: Bound) -> Expr:
        return self._calc("batstr.substr", a, start, length)

    def like(self, a: Expr, pattern: Bound, negated: bool = False) -> Expr:
        """Boolean LIKE mask over a row-level string expression."""
        mask = self._calc("batcalc.like", a, pattern)
        return self.not_(mask) if negated else mask

    def in_values(self, a: Expr, values: Sequence) -> Expr:
        """Membership mask built from OR-ed equality comparisons."""
        mask = self.cmp("eq", a, values[0])
        for v in values[1:]:
            mask = self.or_(mask, self.cmp("eq", a, v))
        return mask

    # ------------------------------------------------------------------
    # Row-level filters (post-join)
    # ------------------------------------------------------------------
    def filter_expr(self, mask: Expr) -> None:
        """Keep stream rows where the boolean *mask* expression is true."""
        sel = self.b.emit("algebra.selecttrue", self._row_var(mask))
        mark = self.b.emit("algebra.markT", sel, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        self._realign(remap)

    def filter_range_expr(self, expr: Expr, lo: Bound = None,
                          hi: Bound = None, lo_incl: bool = True,
                          hi_incl: bool = True) -> None:
        """Range filter on a computed row expression."""
        sel = self.b.emit("algebra.select", self._row_var(expr),
                          self._as_arg(lo), self._as_arg(hi),
                          Const(lo_incl), Const(hi_incl))
        mark = self.b.emit("algebra.markT", sel, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        self._realign(remap)

    def filter_in_expr(self, expr: Expr, values: Union[VarRef, Sequence]
                       ) -> None:
        """IN-list filter on a computed row expression."""
        arg = values if isinstance(values, VarRef) else Const(tuple(values))
        sel = self.b.emit("algebra.inselect", self._row_var(expr), arg)
        mark = self.b.emit("algebra.markT", sel, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        self._realign(remap)

    def filter_in_keys(self, key: Expr, keyset: Expr) -> None:
        """Keep rows whose key appears in *keyset* (IN / EXISTS).

        *keyset* must be a row- or group-level expression from a sub-plan;
        its values form the membership set.
        """
        pairs = self._match_pairs(key, keyset)
        uniq = self.b.emit("algebra.kunique", pairs)  # [pos -> _] unique
        mark = self.b.emit("algebra.markT", uniq, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        self._realign(remap)

    def filter_not_in_keys(self, key: Expr, keyset: Expr) -> None:
        """Keep rows whose key does NOT appear in *keyset* (NOT IN)."""
        pairs = self._match_pairs(key, keyset)
        anti = self.b.emit("algebra.kdifference",
                           self._row_var(key), pairs)
        mark = self.b.emit("algebra.markT", anti, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        self._realign(remap)

    def _match_pairs(self, key: Expr, keyset: Expr) -> VarRef:
        kv = self._row_var(key)                        # [pos -> key]
        sv = keyset.owner._exprs[keyset.id]            # [x -> key]
        sv_rev = self.b.emit("bat.reverse", sv)        # [key -> x]
        return self.b.emit("algebra.join", kv, sv_rev)  # [pos -> x]

    def lookup(self, key: Expr, lookup_keys: Expr,
               lookup_vals: Expr) -> Expr:
        """Join a row key against a sub-plan result ``keys -> vals``.

        Rows without a match are dropped (inner-join semantics) and the
        whole stream is re-aligned; returns ``[pos -> val]``.
        """
        kk = lookup_keys.owner._exprs[lookup_keys.id]  # [g -> key]
        vv = lookup_vals.owner._exprs[lookup_vals.id]  # [g -> val]
        kk_rev = self.b.emit("bat.reverse", kk)        # [key -> g]
        mapping = self.b.emit("algebra.join", kk_rev, vv)  # [key -> val]
        kv = self._row_var(key)                        # [pos -> key]
        pairs = self.b.emit("algebra.join", kv, mapping)   # [pos -> val]
        mark = self.b.emit("algebra.markT", pairs, Const(0))
        remap = self.b.emit("bat.reverse", mark)
        # Result values aligned to the *new* positions: reverse the pair
        # list, renumber, and flip back -> [new_pos -> val].
        pairs_rev = self.b.emit("bat.reverse", pairs)
        mark2 = self.b.emit("algebra.markT", pairs_rev, Const(0))
        val_aligned = self.b.emit("bat.reverse", mark2)
        self._realign(remap)
        return self._new_expr(val_aligned, "row")

    # ------------------------------------------------------------------
    # Grouping and aggregation
    # ------------------------------------------------------------------
    def groupby(self, keys: Sequence[Expr]) -> List[Expr]:
        """Group the stream by *keys*; returns group-level key expressions."""
        if self._grouped:
            raise PlanError("groupby may only be applied once")
        if not keys:
            raise PlanError("groupby requires at least one key")
        grp = self.b.emit("group.new", self._row_var(keys[0]))
        for key in keys[1:]:
            grp = self.b.emit("group.derive", grp, self._row_var(key))
        self._group_var = grp
        self._grouped = True
        extents = self.b.emit("group.extents", grp)    # [gid -> pos]
        out = []
        for key in keys:
            var = self.b.emit("algebra.leftfetchjoin", extents,
                              self._exprs[key.id])
            out.append(self._new_expr(var, "group"))
        return out

    def _require_grouped(self) -> VarRef:
        if not self._grouped or self._group_var is None:
            raise PlanError("aggregate requires a preceding groupby")
        return self._group_var

    def agg_sum(self, expr: Expr) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(
            self.b.emit("aggr.sum", self._row_var(expr), grp), "group"
        )

    def agg_avg(self, expr: Expr) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(
            self.b.emit("aggr.avg", self._row_var(expr), grp), "group"
        )

    def agg_min(self, expr: Expr) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(
            self.b.emit("aggr.min", self._row_var(expr), grp), "group"
        )

    def agg_max(self, expr: Expr) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(
            self.b.emit("aggr.max", self._row_var(expr), grp), "group"
        )

    def agg_count(self) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(self.b.emit("aggr.count", grp), "group")

    def agg_count_distinct(self, expr: Expr) -> Expr:
        grp = self._require_grouped()
        return self._new_expr(
            self.b.emit("aggr.countdistinct", self._row_var(expr), grp),
            "group",
        )

    def group_calc(self, opname_suffix: str, *operands) -> Expr:
        """Arithmetic over group-level expressions (e.g. sum/count)."""
        args = [
            self._exprs[o.id] if isinstance(o, Expr) else self._as_arg(o)
            for o in operands
        ]
        return self._new_expr(
            self.b.emit(f"batcalc.{opname_suffix}", *args), "group"
        )

    def having_range(self, expr: Expr, lo: Bound = None, hi: Bound = None,
                     lo_incl: bool = True, hi_incl: bool = True) -> None:
        """Filter groups on a group-level expression's range."""
        if expr.level != "group":
            raise PlanError("having requires a group-level expression")
        sel = self.b.emit("algebra.select", self._exprs[expr.id],
                          self._as_arg(lo), self._as_arg(hi),
                          Const(lo_incl), Const(hi_incl))
        for eid, var in list(self._exprs.items()):
            if self._expr_level[eid] == "group":
                if eid == expr.id:
                    self._exprs[eid] = sel
                else:
                    self._exprs[eid] = self.b.emit(
                        "algebra.semijoin", var, sel
                    )

    # ------------------------------------------------------------------
    # Scalar aggregates (no GROUP BY)
    # ------------------------------------------------------------------
    def agg_scalar(self, fn: str, expr: Optional[Expr] = None) -> VarRef:
        """Ungrouped aggregate; *fn* in count/sum/avg/min/max/countdistinct.

        ``count`` with no expression counts stream rows.
        """
        if fn == "count" and expr is None:
            alias = self._stream[0] if self._stream else None
            if alias is None:
                # Force stream materialisation of the sole scanned table.
                alias = next(iter(self._tables))
                self._ensure_stream(alias)
                alias = self._stream[0]
            return self.b.emit("aggr.count1", self._align[alias])
        if expr is None:
            raise PlanError(f"aggregate {fn} requires an expression")
        var = self._exprs[expr.id]
        return self.b.emit(f"aggr.{fn}1", var)

    # ------------------------------------------------------------------
    # Ordering, limiting, output
    # ------------------------------------------------------------------
    def _project_through(self, perm: VarRef, exprs: List[Expr]
                         ) -> List[VarRef]:
        return [
            self.b.emit("algebra.leftfetchjoin", perm, self._exprs[e.id])
            for e in exprs
        ]

    def _window(self, limit: Bound, offset: Bound):
        """``algebra.slice``'s ``(offset, count)`` arguments for a
        LIMIT/OFFSET, or None when there is no window (no limit and a
        missing or zero constant offset)."""
        if limit is None and (offset is None or offset == 0):
            return None
        return self._as_arg(0 if offset is None else offset), \
            self._as_arg(limit)

    def select(self, outputs: Sequence[Tuple[str, Expr]],
               order_by: Sequence[Tuple[Expr, bool]] = (),
               limit: Bound = None,
               offset: Bound = 0) -> None:
        """Finalise the template with named output columns.

        All outputs (and sort keys) must be on the same level — all row or
        all group expressions.  *limit* and *offset* are constants or
        template parameters.
        """
        levels = {e.level for _n, e in outputs}
        levels |= {e.level for e, _a in order_by}
        if len(levels) > 1:
            raise PlanError(f"mixed output levels {levels}")
        names = tuple(n for n, _e in outputs)
        exprs = [e for _n, e in outputs]
        window = self._window(limit, offset)
        if order_by:
            asc = tuple(bool(a) for _e, a in order_by)
            keys = [self._exprs[e.id] for e, _a in order_by]
            perm = self.b.emit("algebra.lexsort", Const(asc), *keys)
            if window is not None:
                perm = self.b.emit("algebra.slice", perm, *window)
            cols = self._project_through(perm, exprs)
        else:
            cols = [self._exprs[e.id] for e in exprs]
            if window is not None:
                cols = [self.b.emit("algebra.slice", c, *window)
                        for c in cols]
        out = self.b.emit("sql.resultset", Const(names), *cols)
        self.b.set_result(out)
        self._output = out

    def select_scalar(self, name: str, value_var: VarRef,
                      limit: Bound = None, offset: Bound = 0) -> None:
        """Finalise with a single scalar output (e.g. a global aggregate)."""
        self._finish_row(self.b.emit("sql.exportValue", Const(name),
                                     value_var), limit, offset)

    def select_scalar_row(self, names: Sequence[str],
                          value_vars: Sequence[VarRef],
                          limit: Bound = None, offset: Bound = 0) -> None:
        """Finalise with one row of scalar outputs (global aggregates)."""
        self._finish_row(self.b.emit("sql.scalarrow", Const(tuple(names)),
                                     *value_vars), limit, offset)

    def _finish_row(self, out: VarRef, limit: Bound, offset: Bound) -> None:
        """Make the one-row result the output, windowed by LIMIT/OFFSET."""
        window = self._window(limit, offset)
        if window is not None:
            out = self.b.emit("sql.slice", out, *window)
        self.b.set_result(out)
        self._output = out

    def scalar_op(self, opname: str, *args) -> VarRef:
        """Emit a scalar helper instruction (``calc.*`` / ``mtime.*``)."""
        return self.b.emit(opname, *[self._as_arg(a) for a in args])

    def set_output_var(self, var: VarRef) -> None:
        """Designate a hand-emitted result variable as the template output
        (escape hatch for plans the high-level API cannot express)."""
        self.b.set_result(var)
        self._output = var

    # ------------------------------------------------------------------
    def build(self, *, recycle: bool = True) -> MalProgram:
        """Compile the template through the optimiser pipeline."""
        if self._output is None:
            raise PlanError("query has no output; call select()")
        return optimize(self.b.build(), recycle=recycle)
