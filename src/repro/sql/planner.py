"""SQL planner: lower a parsed SELECT onto the relational builder.

The planner follows the classic single-block recipe the paper's plans
exhibit (Figure 1): selection push-down onto base columns, connected join
ordering (FK join indices when declared), row-level expression evaluation,
group-by/aggregation, HAVING, ORDER BY and LIMIT.

Every literal — LIMIT, OFFSET and substring bounds included — becomes a
template parameter named ``p<i>`` (reading order; an IN-list is one
parameter named after its first literal), and the compiled program is
cached by the literal-blanked token stream plus the literals' kinds, so
query instances differing only in constants share a template — the
inter-query reuse substrate of the recycler (§2.2, §7).
:meth:`CompiledQuery.bind` is the one place that maps an instance's
literal values onto those names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ProgrammingError, SqlBindError, SqlError
from repro.mal.program import MalProgram, VarRef
from repro.rel.builder import Expr as RelExpr
from repro.rel.builder import QueryBuilder
from repro.sql import ast
from repro.sql.lexer import normalized_key
from repro.sql.params import coerce_value
from repro.sql.parser import Parser

AGGREGATES = {"count", "sum", "avg", "min", "max"}

#: Literal kind (see :func:`repro.sql.params.coerce_value`) -> numpy
#: dtype kinds it can compare against.
_KIND_TO_DTYPE_KINDS = {"num": "iufb", "str": "USO", "date": "M"}

_CMP_TO_RANGE = {
    "=": ("eq", None),
    "<": ("hi", False),
    "<=": ("hi", True),
    ">": ("lo", False),
    ">=": ("lo", True),
}


@dataclass
class CompiledQuery:
    """A compiled SQL template plus the literal bindings of its source."""

    key: str
    program: MalProgram
    default_params: Dict[str, Any]
    #: The catalogue's schema version when planning started: a plan from
    #: an older version may name a dropped table or foreign key.
    schema_version: int = 0
    #: Kind (num/str/date) of every literal of the compiling instance: a
    #: plan compiled around one kind of values must not serve binds of
    #: another (set by the template cache, which keys on it).
    kind_sig: Optional[Tuple] = None

    def bind(self, literals: Sequence[Any]) -> Dict[str, Any]:
        """Bind one instance's literal values (reading order) to the
        template's parameters: ``p<i>`` takes literal #i, and an IN-list
        parameter the tuple of its literals from #i on.

        Arity mismatches raise :class:`~repro.errors.ProgrammingError`:
        a template compiled from ``k`` literals must be bound with
        exactly the literals its parameters reference — IN-lists
        included — never a silent partial slice.
        """
        bound = {}
        for name in self.program.params:
            idx = int(name[1:])
            if idx >= len(literals):
                raise ProgrammingError(
                    f"template parameter {name} needs literal "
                    f"#{idx} but only {len(literals)} literal(s) "
                    "were supplied"
                )
            default = self.default_params[name]
            if isinstance(default, tuple):
                values = tuple(literals[idx:idx + len(default)])
                if len(values) != len(default):
                    raise ProgrammingError(
                        f"IN-list parameter {name} expects "
                        f"{len(default)} value(s), got {len(values)}: "
                        "the template's IN-list arity is fixed"
                    )
                bound[name] = values
            else:
                bound[name] = literals[idx]
        return bound


def compile_tokens(catalog, tokens, key: Optional[str] = None
                   ) -> CompiledQuery:
    """Plan and optimise an already-tokenised statement into a template.

    The token stream must be fully literal (DB-API placeholders already
    substituted — see :mod:`repro.sql.params`); *key* defaults to the
    stream's normalised text.
    """
    if key is None:
        key = normalized_key(tokens)
    # Stamped before planning reads the catalogue: a plan that raced a
    # DROP TABLE carries the old version and is never served again.
    version = catalog.schema_version
    select = Parser(list(tokens)).parse_select()
    planner = _Planner(catalog, select, name=f"sql:{key}")
    program, defaults = planner.plan()
    return CompiledQuery(key, program, defaults, version)


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Func):
        if expr.name in AGGREGATES:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinOp):
        return _contains_aggregate(expr.left) or \
            _contains_aggregate(expr.right)
    if isinstance(expr, ast.Case):
        return _contains_aggregate(expr.then) or \
            _contains_aggregate(expr.otherwise)
    return False


def _expr_shape(expr: ast.Expr) -> Tuple:
    """Structural identity of an expression, literal values ignored."""
    if isinstance(expr, ast.Literal):
        return ("lit",)
    if isinstance(expr, ast.IntervalLit):
        return ("interval", expr.unit)
    if isinstance(expr, ast.Column):
        return ("col", expr.alias, expr.name.lower())
    if isinstance(expr, ast.BinOp):
        return ("bin", expr.op, _expr_shape(expr.left),
                _expr_shape(expr.right))
    if isinstance(expr, ast.Func):
        return ("fn", expr.name, expr.distinct, expr.star,
                tuple(_expr_shape(a) for a in expr.args))
    if isinstance(expr, ast.Case):
        return ("case", _expr_shape(expr.then), _expr_shape(expr.otherwise))
    raise SqlError(f"unsupported expression {expr!r}")


def _only_constants(expr: ast.Expr) -> bool:
    """True when the expression references no columns (parameter-derivable)."""
    if isinstance(expr, (ast.Literal, ast.IntervalLit)):
        return True
    if isinstance(expr, ast.BinOp):
        return _only_constants(expr.left) and _only_constants(expr.right)
    return False


class _Planner:
    def __init__(self, catalog, select: ast.Select, name: str):
        self.catalog = catalog
        self.select = select
        self.q = QueryBuilder(catalog, name)
        self.defaults: Dict[str, Any] = {}
        self._col_cache: Dict[Tuple[str, str], RelExpr] = {}
        self._alias_tables: Dict[str, str] = {}
        self._grouped = False
        self._group_keys: Dict[Tuple, RelExpr] = {}
        self._agg_cache: Dict[Tuple, RelExpr] = {}

    # ------------------------------------------------------------------
    def _expand_stars(self) -> None:
        items: List[ast.SelectItem] = []
        for item in self.select.items:
            if isinstance(item.expr, ast.Star):
                for _table, alias in self.select.tables:
                    table = self._alias_tables[alias]
                    for col in self.catalog.table(table).column_names:
                        items.append(
                            ast.SelectItem(ast.Column(alias, col), None)
                        )
            else:
                items.append(item)
        self.select.items = items

    def plan(self) -> Tuple[MalProgram, Dict[str, Any]]:
        self._register_tables()
        self._expand_stars()
        base_preds, join_preds, row_preds = self._partition_where()
        for alias, pred in base_preds:
            self._apply_base_filter(alias, pred)
        self._apply_joins(join_preds)
        for pred in row_preds:
            self.q.filter_expr(self._row_mask(pred))
        if self.select.group_by or any(
            _contains_aggregate(i.expr) for i in self.select.items
        ):
            self._plan_aggregation()
        elif self.select.distinct:
            self._plan_distinct()
        else:
            self._plan_projection()
        return self.q.build(), self.defaults

    # ------------------------------------------------------------------
    # FROM / name resolution
    # ------------------------------------------------------------------
    def _register_tables(self) -> None:
        for table, alias in self.select.tables:
            self.q.scan(table, alias)
            self._alias_tables[alias] = table

    def _resolve(self, col: ast.Column) -> Tuple[str, str]:
        if col.alias is not None:
            if col.alias not in self._alias_tables:
                raise SqlBindError(f"unknown alias {col.alias!r}")
            table = self._alias_tables[col.alias]
            if not self.catalog.table(table).has_column(col.name):
                raise SqlBindError(f"no column {col.name!r} in {table}")
            return col.alias, col.name
        owners = [
            a for a, t in self._alias_tables.items()
            if self.catalog.table(t).has_column(col.name)
        ]
        if not owners:
            raise SqlBindError(f"unknown column {col.name!r}")
        if len(owners) > 1:
            raise SqlBindError(f"ambiguous column {col.name!r}: {owners}")
        return owners[0], col.name

    # ------------------------------------------------------------------
    # Literal/column type compatibility
    # ------------------------------------------------------------------
    def _check_cmp_kind(self, col: ast.Column, lit: ast.Expr) -> None:
        """Reject comparing a column with a kind-incompatible literal.

        A string bound on an int64 column (inline or placeholder) would
        otherwise compile into the plan, cache a mis-kinded template,
        and admit pool entries no later query can subsume against —
        fail at plan time instead, where the catalogue knows the
        column's dtype.
        """
        if not isinstance(lit, ast.Literal):
            return
        kind = coerce_value(lit.value)[0]
        alias, name = self._resolve(col)
        table = self._alias_tables[alias]
        dtype = self.catalog.table(table).column_array(name).dtype
        if dtype.kind not in _KIND_TO_DTYPE_KINDS.get(kind, ""):
            raise SqlBindError(
                f"cannot compare column {name!r} (dtype {dtype}) with "
                f"a {kind} literal"
            )

    def _check_pred_kinds(self, pred: ast.Predicate) -> None:
        """Column-vs-literal kind checks for one predicate."""
        if isinstance(pred, ast.Cmp):
            if isinstance(pred.left, ast.Column):
                self._check_cmp_kind(pred.left, pred.right)
            if isinstance(pred.right, ast.Column):
                self._check_cmp_kind(pred.right, pred.left)
        elif isinstance(pred, ast.Between):
            if isinstance(pred.expr, ast.Column):
                self._check_cmp_kind(pred.expr, pred.lo)
                self._check_cmp_kind(pred.expr, pred.hi)
        elif isinstance(pred, ast.InList):
            if isinstance(pred.expr, ast.Column):
                for value in pred.values:
                    self._check_cmp_kind(pred.expr, value)
        elif isinstance(pred, ast.Like):
            if isinstance(pred.expr, ast.Column):
                alias, name = self._resolve(pred.expr)
                table = self._alias_tables[alias]
                dtype = self.catalog.table(table).column_array(name).dtype
                if dtype.kind not in "USO":
                    raise SqlBindError(
                        f"LIKE needs a string column, {name!r} has "
                        f"dtype {dtype}"
                    )

    # ------------------------------------------------------------------
    # Literals -> template parameters
    # ------------------------------------------------------------------
    def _param(self, lit: Union[ast.Literal, ast.IntervalLit]) -> VarRef:
        name = f"p{lit.index}"
        var = self.q.param(name)
        if isinstance(lit, ast.IntervalLit):
            self.defaults[name] = lit.n
        else:
            self.defaults[name] = lit.value
        return var

    def _scalar(self, expr: ast.Expr) -> VarRef:
        """Lower a constants-only expression to scalar instructions."""
        if isinstance(expr, ast.Literal):
            return self._param(expr)
        if isinstance(expr, ast.BinOp):
            left, right = expr.left, expr.right
            if isinstance(right, ast.IntervalLit):
                base = self._scalar(left)
                amount = self._param(right)
                op = {
                    "day": "mtime.adddays",
                    "month": "mtime.addmonths",
                    "year": "mtime.addyears",
                }[right.unit]
                if expr.op == "-":
                    amount = self.q.scalar_op("calc.mul", amount, -1)
                elif expr.op != "+":
                    raise SqlError("intervals support only + and -")
                return self.q.scalar_op(op, base, amount)
            opname = {"+": "calc.add", "-": "calc.sub",
                      "*": "calc.mul", "/": "calc.div"}[expr.op]
            return self.q.scalar_op(opname, self._scalar(left),
                                    self._scalar(right))
        raise SqlError(f"expression is not constant: {expr!r}")

    # ------------------------------------------------------------------
    # WHERE partitioning
    # ------------------------------------------------------------------
    def _partition_where(self):
        base: List[Tuple[str, ast.Predicate]] = []
        joins: List[Tuple[str, str, str, str]] = []
        rows: List[ast.Predicate] = []
        for pred in self.select.where:
            if isinstance(pred, ast.Cmp) and pred.op == "=" \
                    and isinstance(pred.left, ast.Column) \
                    and isinstance(pred.right, ast.Column):
                la, lc = self._resolve(pred.left)
                ra, rc = self._resolve(pred.right)
                if la != ra:
                    joins.append((la, lc, ra, rc))
                    continue
            alias = self._base_pred_alias(pred)
            if alias is not None:
                base.append((alias, pred))
            else:
                rows.append(pred)
        return base, joins, rows

    def _base_pred_alias(self, pred: ast.Predicate) -> Optional[str]:
        """The alias a predicate can be pushed down to, if any."""
        target = getattr(pred, "expr", None) or getattr(pred, "left", None)
        if not isinstance(target, ast.Column):
            return None
        if isinstance(pred, ast.Cmp):
            if pred.op == "<>" or not _only_constants(pred.right):
                return None
        elif isinstance(pred, ast.Between):
            if not (_only_constants(pred.lo) and _only_constants(pred.hi)):
                return None
        alias, _col = self._resolve(target)
        return alias

    def _apply_base_filter(self, alias: str, pred: ast.Predicate) -> None:
        self._check_pred_kinds(pred)
        if isinstance(pred, ast.Cmp):
            column = pred.left.name
            bound = self._scalar(pred.right)
            kind, incl = _CMP_TO_RANGE[pred.op]
            if kind == "eq":
                self.q.filter_eq(alias, column, bound)
            elif kind == "lo":
                self.q.filter_range(alias, column, lo=bound, lo_incl=incl)
            else:
                self.q.filter_range(alias, column, hi=bound, hi_incl=incl)
        elif isinstance(pred, ast.Between):
            self.q.filter_range(
                alias, pred.expr.name,
                lo=self._scalar(pred.lo), hi=self._scalar(pred.hi),
            )
        elif isinstance(pred, ast.InList):
            values = tuple(v.value for v in pred.values)
            name = f"p{pred.values[0].index}"
            var = self.q.param(name)
            self.defaults[name] = values
            if pred.negated:
                raise SqlError("NOT IN is not supported as a base filter")
            self.q.filter_in(alias, pred.expr.name, var)
        elif isinstance(pred, ast.Like):
            pattern = self._param(pred.pattern)
            if pred.negated:
                self.q.filter_not_like(alias, pred.expr.name, pattern)
            else:
                self.q.filter_like(alias, pred.expr.name, pattern)
        else:
            raise SqlError(f"unsupported base predicate {pred!r}")

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _apply_joins(self, joins) -> None:
        if not joins:
            if len(self.select.tables) > 1:
                raise SqlError("cartesian products are not supported")
            return
        pending = list(joins)
        connected = set()
        first = pending.pop(0)
        self.q.join(*first)
        connected.update([first[0], first[2]])
        while pending:
            for i, (la, lc, ra, rc) in enumerate(pending):
                if la in connected or ra in connected:
                    self.q.join(la, lc, ra, rc)
                    connected.update([la, ra])
                    pending.pop(i)
                    break
            else:
                raise SqlError("join graph is disconnected")
        missing = set(self._alias_tables) - connected
        if missing:
            raise SqlError(f"tables not joined: {sorted(missing)}")

    # ------------------------------------------------------------------
    # Row-level expressions
    # ------------------------------------------------------------------
    def _col(self, col: ast.Column) -> RelExpr:
        alias, name = self._resolve(col)
        key = (alias, name)
        if key not in self._col_cache:
            self._col_cache[key] = self.q.col(alias, name)
        return self._col_cache[key]

    def _row_expr(self, expr: ast.Expr) -> RelExpr:
        if isinstance(expr, ast.Column):
            return self._col(expr)
        if isinstance(expr, ast.BinOp):
            if _only_constants(expr):
                raise SqlError("constant expression used as a column")
            fn = {"+": self.q.add, "-": self.q.sub,
                  "*": self.q.mul, "/": self.q.div}[expr.op]
            return fn(self._operand(expr.left), self._operand(expr.right))
        if isinstance(expr, ast.Func):
            if expr.name == "year":
                return self.q.year(self._row_expr(expr.args[0]))
            if expr.name == "substring":
                base = self._row_expr(expr.args[0])
                start, length = expr.args[1:3]
                if not isinstance(start, ast.Literal) or \
                        not isinstance(length, ast.Literal):
                    raise SqlError("substring bounds must be literals")
                return self.q.substr(base, self._param(start),
                                     self._param(length))
            raise SqlError(f"unsupported function {expr.name!r}")
        if isinstance(expr, ast.Case):
            mask = self._row_mask(expr.when)
            return self.q.case(mask, self._operand(expr.then),
                               self._operand(expr.otherwise))
        raise SqlError(f"unsupported row expression {expr!r}")

    def _operand(self, expr: ast.Expr):
        """Row expression or scalar parameter/constant-expression operand."""
        if _only_constants(expr):
            return self._scalar(expr)
        return self._row_expr(expr)

    def _row_mask(self, pred: ast.Predicate) -> RelExpr:
        self._check_pred_kinds(pred)
        if isinstance(pred, ast.Cmp):
            op = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le",
                  ">": "gt", ">=": "ge"}[pred.op]
            return self.q.cmp(op, self._operand(pred.left),
                              self._operand(pred.right))
        if isinstance(pred, ast.Between):
            lo = self.q.cmp("ge", self._operand(pred.expr),
                            self._operand(pred.lo))
            hi = self.q.cmp("le", self._operand(pred.expr),
                            self._operand(pred.hi))
            return self.q.and_(lo, hi)
        if isinstance(pred, ast.InList):
            base = self._row_expr(pred.expr)
            mask = self.q.in_values(
                base, [self._param(v) for v in pred.values]
            )
            return self.q.not_(mask) if pred.negated else mask
        if isinstance(pred, ast.Like):
            base = self._row_expr(pred.expr)
            return self.q.like(base, self._param(pred.pattern),
                               negated=pred.negated)
        raise SqlError(f"unsupported predicate {pred!r}")

    # ------------------------------------------------------------------
    # Output planning
    # ------------------------------------------------------------------
    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Column):
            return item.expr.name
        return f"col{index}"

    def _plan_projection(self) -> None:
        outputs = []
        for i, item in enumerate(self.select.items):
            outputs.append((self._item_name(item, i),
                            self._row_expr(item.expr)))
        order = self._order_exprs(dict_outputs=dict(outputs), grouped=False)
        self.q.select(outputs, order_by=order, **self._window())

    def _plan_distinct(self) -> None:
        row_exprs = [
            (self._item_name(item, i), self._row_expr(item.expr))
            for i, item in enumerate(self.select.items)
        ]
        keys = self.q.groupby([e for _n, e in row_exprs])
        self._grouped = True
        outputs = [(n, k) for (n, _e), k in zip(row_exprs, keys)]
        for (n, _e), k, item in zip(row_exprs, keys, self.select.items):
            self._group_keys[_expr_shape(item.expr)] = k
        order = self._order_exprs(dict_outputs=dict(outputs), grouped=True)
        self.q.select(outputs, order_by=order, **self._window())

    def _plan_aggregation(self) -> None:
        if not self.select.group_by:
            self._plan_scalar_aggregates()
            return
        key_row_exprs = [self._row_expr(e) for e in self.select.group_by]
        keys = self.q.groupby(key_row_exprs)
        self._grouped = True
        for gb_expr, key in zip(self.select.group_by, keys):
            self._group_keys[_expr_shape(gb_expr)] = key

        outputs = []
        for i, item in enumerate(self.select.items):
            outputs.append((self._item_name(item, i),
                            self._group_expr(item.expr)))
        for pred in self.select.having:
            self._apply_having(pred)
        order = self._order_exprs(dict_outputs=dict(outputs), grouped=True)
        self.q.select(outputs, order_by=order, **self._window())

    def _window(self) -> Dict[str, Any]:
        """LIMIT/OFFSET as parameters, for the builder's output steps."""
        limit, offset = self.select.limit, self.select.offset
        return {"limit": None if limit is None else self._param(limit),
                "offset": None if offset is None else self._param(offset)}

    def _plan_scalar_aggregates(self) -> None:
        names, values = [], []
        for i, item in enumerate(self.select.items):
            names.append(self._item_name(item, i))
            values.append(self._scalar_agg(item.expr))
        if len(values) == 1:
            self.q.select_scalar(names[0], values[0], **self._window())
        else:
            self.q.select_scalar_row(names, values, **self._window())

    def _aggregate(self, fn: ast.Func) -> RelExpr:
        shape = _expr_shape(fn)
        if shape in self._agg_cache:
            return self._agg_cache[shape]
        if fn.name == "count" and fn.distinct and not fn.star:
            out = self.q.agg_count_distinct(self._row_expr(fn.args[0]))
        elif fn.name == "count":
            out = self.q.agg_count()
        else:
            arg = self._row_expr(fn.args[0])
            out = {
                "sum": self.q.agg_sum,
                "avg": self.q.agg_avg,
                "min": self.q.agg_min,
                "max": self.q.agg_max,
            }[fn.name](arg)
        self._agg_cache[shape] = out
        return out

    def _group_expr(self, expr: ast.Expr) -> RelExpr:
        """Lower a select-list expression in a grouped query."""
        shape = _expr_shape(expr)
        if shape in self._group_keys:
            return self._group_keys[shape]
        if isinstance(expr, ast.Func) and expr.name in AGGREGATES:
            return self._aggregate(expr)
        if isinstance(expr, ast.BinOp):
            ops = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
            left = (self._scalar(expr.left) if _only_constants(expr.left)
                    else self._group_expr(expr.left))
            right = (self._scalar(expr.right) if _only_constants(expr.right)
                     else self._group_expr(expr.right))
            return self.q.group_calc(ops[expr.op], left, right)
        raise SqlError(
            "select item must be a GROUP BY key or an aggregate: "
            f"{expr!r}"
        )

    def _scalar_agg(self, expr: ast.Expr) -> VarRef:
        if isinstance(expr, ast.Func) and expr.name in AGGREGATES:
            if expr.name == "count" and expr.distinct and not expr.star:
                return self.q.agg_scalar("countdistinct",
                                         self._row_expr(expr.args[0]))
            if expr.name == "count":
                return self.q.agg_scalar("count")
            return self.q.agg_scalar(expr.name, self._row_expr(expr.args[0]))
        if isinstance(expr, ast.BinOp):
            ops = {"+": "calc.add", "-": "calc.sub",
                   "*": "calc.mul", "/": "calc.div"}
            return self.q.scalar_op(ops[expr.op],
                                    self._scalar_agg_operand(expr.left),
                                    self._scalar_agg_operand(expr.right))
        raise SqlError(f"unsupported global aggregate expression {expr!r}")

    def _scalar_agg_operand(self, expr: ast.Expr):
        if _only_constants(expr):
            return self._scalar(expr)
        return self._scalar_agg(expr)

    def _apply_having(self, pred: ast.Predicate) -> None:
        if isinstance(pred, ast.Cmp) and _only_constants(pred.right):
            agg = self._group_expr(pred.left)
            bound = self._scalar(pred.right)
            kind, incl = _CMP_TO_RANGE.get(pred.op, (None, None))
            if kind == "eq":
                self.q.having_range(agg, lo=bound, hi=bound)
            elif kind == "lo":
                self.q.having_range(agg, lo=bound, lo_incl=incl)
            elif kind == "hi":
                self.q.having_range(agg, hi=bound, hi_incl=incl)
            else:
                raise SqlError("HAVING supports =, <, <=, >, >=")
            return
        if isinstance(pred, ast.Between):
            agg = self._group_expr(pred.expr)
            self.q.having_range(agg, lo=self._scalar(pred.lo),
                                hi=self._scalar(pred.hi))
            return
        raise SqlError(f"unsupported HAVING predicate {pred!r}")

    def _order_exprs(self, dict_outputs: Dict[str, RelExpr],
                     grouped: bool) -> List[Tuple[RelExpr, bool]]:
        out = []
        for item in self.select.order_by:
            expr = item.expr
            # An unqualified name may refer to an output alias.
            if isinstance(expr, ast.Column) and expr.alias is None \
                    and expr.name in dict_outputs:
                out.append((dict_outputs[expr.name], item.ascending))
                continue
            if grouped:
                out.append((self._group_expr(expr), item.ascending))
            else:
                out.append((self._row_expr(expr), item.ascending))
        return out
