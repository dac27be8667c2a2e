"""Token definitions for the MiniC lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokKind(enum.Enum):
    # literals / names
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    IDENT = "ident"
    # keywords
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_LIBRARY = "library"
    KW_STRUCT = "struct"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_DEFAULT = "default"
    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    SHL = "<<"
    SHR = ">>"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    BANG = "!"
    ANDAND = "&&"
    OROR = "||"
    EQEQ = "=="
    BANGEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    ASSIGN = "="
    EOF = "eof"


KEYWORDS: dict[str, TokKind] = {
    "int": TokKind.KW_INT,
    "float": TokKind.KW_FLOAT,
    "void": TokKind.KW_VOID,
    "if": TokKind.KW_IF,
    "else": TokKind.KW_ELSE,
    "while": TokKind.KW_WHILE,
    "for": TokKind.KW_FOR,
    "return": TokKind.KW_RETURN,
    "break": TokKind.KW_BREAK,
    "continue": TokKind.KW_CONTINUE,
    "library": TokKind.KW_LIBRARY,
    "struct": TokKind.KW_STRUCT,
    "switch": TokKind.KW_SWITCH,
    "case": TokKind.KW_CASE,
    "default": TokKind.KW_DEFAULT,
}


class Token(NamedTuple):
    kind: TokKind
    text: str
    line: int
    column: int
    value: int | float | None = None

    @property
    def end_column(self) -> int:
        """One past the last column of the token (EOF is 1 wide)."""
        return self.column + (len(self.text) or 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
