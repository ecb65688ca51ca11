"""Abstract syntax for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union


@dataclass
class Literal:
    """A constant; ``index`` is assigned by the parser in reading order so
    the planner can bind it to a template parameter."""

    value: Any
    index: int


@dataclass
class IntervalLit:
    """``interval 'n' unit`` — only valid in date arithmetic."""

    n: int
    unit: str
    index: int


@dataclass
class Column:
    alias: Optional[str]
    name: str


@dataclass
class BinOp:
    """Arithmetic: ``+ - * /``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class Func:
    """Function call: aggregates and scalar helpers."""

    name: str
    args: List["Expr"]
    distinct: bool = False
    star: bool = False


@dataclass
class Case:
    """``CASE WHEN pred THEN a ELSE b END`` (single branch)."""

    when: "Predicate"
    then: "Expr"
    otherwise: "Expr"


@dataclass
class Star:
    """``SELECT *`` — expanded by the planner to all FROM columns."""


Expr = Union[Literal, IntervalLit, Column, BinOp, Func, Case, Star]


@dataclass
class Cmp:
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: Expr
    right: Expr


@dataclass
class Between:
    expr: Expr
    lo: Expr
    hi: Expr


@dataclass
class InList:
    expr: Expr
    values: List[Literal]
    negated: bool = False


@dataclass
class Like:
    expr: Expr
    pattern: Literal
    negated: bool = False


Predicate = Union[Cmp, Between, InList, Like]


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str]


@dataclass
class OrderItem:
    expr: Expr          # Column referencing an output alias, or any expr
    ascending: bool


@dataclass
class Select:
    items: List[SelectItem]
    tables: List[Tuple[str, str]]        # (table, alias)
    where: List[Predicate] = field(default_factory=list)
    group_by: List[Expr] = field(default_factory=list)
    having: List[Predicate] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Literal] = None
    offset: Optional[Literal] = None
    distinct: bool = False
