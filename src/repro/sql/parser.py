"""Recursive-descent parser for the SQL subset.

Literals are numbered in reading order; the numbering must be stable for a
given *normalised* query text so that instances of the same template bind
their constants to the same parameters.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self._literal_seq = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of SQL")
        self.pos += 1
        return tok

    def _at_kw(self, *words: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "kw" and tok.text in words

    def _eat_kw(self, word: str) -> None:
        if not self._at_kw(word):
            raise SqlSyntaxError(f"expected {word.upper()} near {self._peek()}")
        self.pos += 1

    def _try_kw(self, word: str) -> bool:
        if self._at_kw(word):
            self.pos += 1
            return True
        return False

    def _at_punct(self, ch: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "punct" and tok.text == ch

    def _eat_punct(self, ch: str) -> None:
        if not self._at_punct(ch):
            raise SqlSyntaxError(f"expected {ch!r} near {self._peek()}")
        self.pos += 1

    def _try_punct(self, ch: str) -> bool:
        if self._at_punct(ch):
            self.pos += 1
            return True
        return False

    def _literal(self, tok: Token):
        idx = self._literal_seq
        self._literal_seq += 1
        if tok.kind == "interval":
            return ast.IntervalLit(tok.value[0], tok.value[1], idx)
        return ast.Literal(tok.value, idx)

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_select(self) -> ast.Select:
        self._eat_kw("select")
        distinct = self._try_kw("distinct")
        items = self._select_list()
        self._eat_kw("from")
        tables = self._from_list()
        where: List[ast.Predicate] = []
        if self._try_kw("where"):
            where = self._conjunction()
        group_by: List[ast.Expr] = []
        if self._try_kw("group"):
            self._eat_kw("by")
            group_by = self._expr_list()
        having: List[ast.Predicate] = []
        if self._try_kw("having"):
            having = self._conjunction()
        order_by: List[ast.OrderItem] = []
        if self._try_kw("order"):
            self._eat_kw("by")
            order_by = self._order_list()
        limit = offset = None
        if self._try_kw("limit"):
            limit = self._window_literal()
        if self._try_kw("offset"):
            offset = self._window_literal()
        if self._peek() is not None:
            raise SqlSyntaxError(f"trailing tokens at {self._peek()}")
        return ast.Select(
            items=items, tables=tables, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, offset=offset,
            distinct=distinct,
        )

    def _window_literal(self) -> ast.Literal:
        """A LIMIT or OFFSET bound: a literal like any other, so it is a
        template parameter; ``algebra.slice`` checks its value."""
        tok = self._next()
        if not tok.is_literal or tok.kind == "interval":
            raise SqlSyntaxError(f"expected a literal, got {tok}")
        return self._literal(tok)

    def _select_list(self) -> List[ast.SelectItem]:
        items = []
        while True:
            if self._try_punct("*"):
                items.append(ast.SelectItem(ast.Star(), None))
                if not self._try_punct(","):
                    return items
                continue
            expr = self.expr()
            alias = None
            if self._try_kw("as"):
                tok = self._next()
                if tok.kind != "ident":
                    raise SqlSyntaxError(f"expected alias, got {tok}")
                alias = tok.text
            elif self._peek() is not None and self._peek().kind == "ident":
                alias = self._next().text
            items.append(ast.SelectItem(expr, alias))
            if not self._try_punct(","):
                return items

    def _from_list(self):
        tables = []
        while True:
            tok = self._next()
            if tok.kind != "ident":
                raise SqlSyntaxError(f"expected table name, got {tok}")
            alias = tok.text
            nxt = self._peek()
            if nxt is not None and nxt.kind == "ident":
                alias = self._next().text
            tables.append((tok.text, alias))
            if not self._try_punct(","):
                return tables

    def _conjunction(self) -> List[ast.Predicate]:
        preds = [self.predicate()]
        while self._try_kw("and"):
            preds.append(self.predicate())
        return preds

    def predicate(self) -> ast.Predicate:
        left = self.expr()
        if self._try_kw("between"):
            lo = self.expr()
            self._eat_kw("and")
            hi = self.expr()
            return ast.Between(left, lo, hi)
        negated = self._try_kw("not")
        if self._try_kw("in"):
            self._eat_punct("(")
            values = []
            while True:
                tok = self._next()
                if not tok.is_literal:
                    raise SqlSyntaxError("IN list supports literals only")
                values.append(self._literal(tok))
                if not self._try_punct(","):
                    break
            self._eat_punct(")")
            return ast.InList(left, values, negated=negated)
        if self._try_kw("like"):
            tok = self._next()
            if tok.kind != "str":
                raise SqlSyntaxError("LIKE requires a string literal")
            return ast.Like(left, self._literal(tok), negated=negated)
        if negated:
            raise SqlSyntaxError("expected IN or LIKE after NOT")
        tok = self._next()
        if tok.kind != "cmp":
            raise SqlSyntaxError(f"expected comparison, got {tok}")
        right = self.expr()
        op = "<>" if tok.text == "!=" else tok.text
        return ast.Cmp(op, left, right)

    def _expr_list(self) -> List[ast.Expr]:
        out = [self.expr()]
        while self._try_punct(","):
            out.append(self.expr())
        return out

    def _order_list(self) -> List[ast.OrderItem]:
        out = []
        while True:
            expr = self.expr()
            asc = True
            if self._try_kw("desc"):
                asc = False
            else:
                self._try_kw("asc")
            out.append(ast.OrderItem(expr, asc))
            if not self._try_punct(","):
                return out

    # -- expressions -----------------------------------------------------
    def expr(self) -> ast.Expr:
        node = self.term()
        while self._at_punct("+") or self._at_punct("-"):
            op = self._next().text
            node = ast.BinOp(op, node, self.term())
        return node

    def term(self) -> ast.Expr:
        node = self.factor()
        while self._at_punct("*") or self._at_punct("/"):
            op = self._next().text
            node = ast.BinOp(op, node, self.factor())
        return node

    def factor(self) -> ast.Expr:
        tok = self._peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of expression")
        if tok.is_literal:
            return self._literal(self._next())
        if tok.kind == "punct" and tok.text == "(":
            self._next()
            node = self.expr()
            self._eat_punct(")")
            return node
        if tok.kind == "kw" and tok.text == "case":
            return self._case()
        if tok.kind == "ident":
            return self._identifier_factor()
        raise SqlSyntaxError(f"unexpected token {tok} in expression")

    def _case(self) -> ast.Case:
        self._eat_kw("case")
        self._eat_kw("when")
        when = self.predicate()
        self._eat_kw("then")
        then = self.expr()
        self._eat_kw("else")
        otherwise = self.expr()
        self._eat_kw("end")
        return ast.Case(when, then, otherwise)

    def _identifier_factor(self) -> ast.Expr:
        name_tok = self._next()
        name = name_tok.text
        # Function call?
        if self._at_punct("("):
            self._next()
            lowered = name.lower()
            distinct = self._try_kw("distinct")
            if self._try_punct("*"):
                self._eat_punct(")")
                return ast.Func(lowered, [], star=True)
            args = [self.expr()]
            while self._try_punct(","):
                args.append(self.expr())
            self._eat_punct(")")
            return ast.Func(lowered, args, distinct=distinct)
        # Qualified column?
        if self._at_punct("."):
            self._next()
            col_tok = self._next()
            if col_tok.kind != "ident":
                raise SqlSyntaxError(f"expected column after '.', got {col_tok}")
            return ast.Column(name, col_tok.text)
        return ast.Column(None, name)


def parse(sql: str) -> ast.Select:
    """Parse a SELECT statement into its AST."""
    return Parser(tokenize(sql)).parse_select()
