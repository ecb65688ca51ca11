"""SQL tokenizer.

Produces a flat token list; literal tokens carry their parsed Python value
so the planner can factor them into template parameters.  ``date '...'``
and ``interval 'n' unit`` are recognised as single literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List

import numpy as np

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "not", "group",
    "by", "having", "order", "limit", "offset", "as", "between", "in",
    "like", "asc", "desc", "case", "when", "then", "else", "end", "date",
    "interval", "exists", "is", "null",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<str>'(?:[^']|'')*')
  | (?P<qmark>\?)
  | (?P<named>:[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*+\-/%])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    """One lexical token.

    kind: ``kw`` (keyword), ``ident``, ``num``, ``str``, ``date``,
    ``interval``, ``cmp``, ``punct`` — plus the DB-API placeholder kinds
    ``qmark`` (``?``) and ``named`` (``:name``, ``value`` holds the bare
    name).  ``value`` holds the parsed literal for literal kinds.
    """

    kind: str
    text: str
    value: Any = None

    @property
    def is_literal(self) -> bool:
        return self.kind in ("num", "str", "date", "interval")

    @property
    def is_placeholder(self) -> bool:
        """A DB-API parameter marker awaiting a bound value."""
        return self.kind in ("qmark", "named")


def _unquote(raw: str) -> str:
    return raw[1:-1].replace("''", "'")


def tokenize(sql: str) -> List[Token]:
    """Tokenise *sql*, folding ``date``/``interval`` literal forms."""
    raw: List[Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise SqlSyntaxError(
                f"cannot tokenise SQL at position {pos}: {sql[pos:pos+20]!r}"
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        text = m.group()
        if m.lastgroup == "num":
            value = float(text) if ("." in text or "e" in text.lower()) \
                else int(text)
            raw.append(Token("num", text, value))
        elif m.lastgroup == "str":
            raw.append(Token("str", text, _unquote(text)))
        elif m.lastgroup == "qmark":
            raw.append(Token("qmark", text))
        elif m.lastgroup == "named":
            raw.append(Token("named", text, text[1:]))
        elif m.lastgroup == "cmp":
            raw.append(Token("cmp", text))
        elif m.lastgroup == "punct":
            raw.append(Token("punct", text))
        else:
            lowered = text.lower()
            kind = "kw" if lowered in KEYWORDS else "ident"
            raw.append(Token(kind, lowered if kind == "kw" else text))

    return _fold_literals(raw)


def _fold_literals(tokens: List[Token]) -> List[Token]:
    """Fold ``date '...'`` and ``interval 'n' unit`` into single tokens."""
    out: List[Token] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "kw" and tok.text == "date" and i + 1 < len(tokens) \
                and tokens[i + 1].kind == "str":
            date_str = tokens[i + 1].value
            try:
                value = np.datetime64(date_str, "D")
            except ValueError:
                raise SqlSyntaxError(f"bad date literal {date_str!r}")
            out.append(Token("date", f"date '{date_str}'", value))
            i += 2
            continue
        if tok.kind == "kw" and tok.text == "interval" \
                and i + 2 < len(tokens) and tokens[i + 1].kind == "str" \
                and tokens[i + 2].kind == "ident":
            n = int(tokens[i + 1].value)
            unit = tokens[i + 2].text.lower().rstrip("s")
            if unit not in ("day", "month", "year"):
                raise SqlSyntaxError(f"unsupported interval unit {unit!r}")
            out.append(Token("interval", tok.text, (n, unit)))
            i += 3
            continue
        out.append(tok)
        i += 1
    return out


def normalized_key(tokens: List[Token]) -> str:
    """Template-cache key: the token stream with literals blanked out.

    Two queries differing only in literal constants share one key — the
    paper's query-template factoring (§2.2).  DB-API placeholders blank
    to the same ``?``, so ``where x > ?``, ``where x > :lo`` and
    ``where x > 5`` are all instances of one template.  An interval keeps
    its unit (``interval ? month``): only its magnitude is a parameter.
    """
    parts = []
    for tok in tokens:
        if tok.kind == "interval":
            parts.append(f"interval ? {tok.value[1]}")
        elif tok.is_literal or tok.is_placeholder:
            parts.append("?")
        elif tok.kind == "ident":
            parts.append(tok.text.lower())
        else:
            parts.append(tok.text)
    return " ".join(parts)
