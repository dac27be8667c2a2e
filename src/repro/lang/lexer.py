"""Regular-expression lexer for MiniC.

One master pattern holds a named group per token class (trivia,
numbers, names, operators, and a catch-all for any other character).
Some group matches at every position, so ``finditer`` never skips text
and walks it one token per match; a token's line and column come from
its match position.

Lex errors carry a :class:`~repro.lang.diagnostics.Diagnostic`: the
rendered message always includes line/column and a caret-underlined
source excerpt (the worst offenders historically — an unterminated
``/* ... `` block comment and a stray character — used to point at
nothing useful).
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.diagnostics import Diagnostic, Span
from repro.lang.tokens import KEYWORDS, TokKind, Token

#: operator and punctuation text -> kind (each such kind's value is its
#: text)
_PUNCT = {kind.value: kind for kind in TokKind if not kind.value[0].isalnum()}

# ``\d`` is a decimal digit, the set ``int()`` and ``float()`` accept;
# ``\w`` is ``str.isalnum()`` or ``_``. A name may not start with a
# digit-like character that is not a decimal digit (``²``): ``tokenize``
# rejects it.
_MASTER = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<hex>0[xX][^\W_]*)
    | (?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
    | (?P<int>\d+)
    | (?P<name>\w+)
    | (?P<punct><<|>>|&&|\|\||==|!=|<=|>=|[(){}\[\];,.:+\-*/%&|^!<>=])
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _error(
    source: str,
    message: str,
    line: int,
    col: int,
    width: int = 1,
    hint: str | None = None,
    notes: tuple[str, ...] = (),
) -> LexError:
    return LexError(
        message,
        diagnostic=Diagnostic(
            message,
            Span(line, col, col + width),
            source=source,
            hint=hint,
            notes=notes,
        ),
    )


def tokenize(source: str) -> list[Token]:
    """Convert MiniC *source* into a token list ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the current line's first character
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        text = m.group()
        start = m.start()
        if group == "space" or group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if group == "punct":
            append(Token(_PUNCT[text], text, line, col))
        elif group == "name":
            if text[0] != "_" and not text[0].isalpha():
                raise _error(
                    source, f"unexpected character {text[0]!r}", line, col
                )
            append(Token(KEYWORDS.get(text, TokKind.IDENT), text, line, col))
        elif group == "int":
            append(Token(TokKind.INT_LIT, text, line, col, int(text)))
        elif group == "float":
            append(Token(TokKind.FLOAT_LIT, text, line, col, float(text)))
        elif group == "hex":
            try:
                value = int(text, 16)
            except ValueError:
                raise _error(
                    source, f"invalid hex literal {text!r}",
                    line, col, width=len(text),
                )
            append(Token(TokKind.INT_LIT, text, line, col, value))
        elif group == "open_comment":
            raise _error(
                source, "unterminated block comment", line, col, width=2,
                hint="add the closing '*/'",
                notes=(
                    f"the comment opened here (line {line}) is still "
                    "open at end of input",
                ),
            )
        else:
            raise _error(source, f"unexpected character {text!r}", line, col)
    append(Token(TokKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
