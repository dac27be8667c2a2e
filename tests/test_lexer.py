"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_source_yields_eof():
    assert kinds("") == [TokKind.EOF]


def test_keywords_and_identifiers():
    toks = tokenize("int foo float bar void while iffy")
    assert [t.kind for t in toks[:-1]] == [
        TokKind.KW_INT,
        TokKind.IDENT,
        TokKind.KW_FLOAT,
        TokKind.IDENT,
        TokKind.KW_VOID,
        TokKind.KW_WHILE,
        TokKind.IDENT,  # 'iffy' is not 'if'
    ]
    assert toks[1].text == "foo"
    assert toks[6].text == "iffy"


def test_int_literals_decimal_and_hex():
    toks = tokenize("0 42 123456789 0x10 0xFF")
    values = [t.value for t in toks[:-1]]
    assert values == [0, 42, 123456789, 16, 255]
    assert all(t.kind is TokKind.INT_LIT for t in toks[:-1])


def test_float_literals():
    toks = tokenize("1.5 0.25 2e3 1.5e-2")
    assert [t.kind for t in toks[:-1]] == [TokKind.FLOAT_LIT] * 4
    assert [t.value for t in toks[:-1]] == [1.5, 0.25, 2000.0, 0.015]


def test_integer_followed_by_dot_without_digits_is_int():
    # "3." with no following digit: the dot is a member-access token, not
    # part of a float literal
    toks = tokenize("3.x")
    assert [t.kind for t in toks[:-1]] == [
        TokKind.INT_LIT, TokKind.DOT, TokKind.IDENT,
    ]


def test_two_char_operators_win_over_one_char():
    src = "<< >> <= >= == != && ||"
    expected = [
        TokKind.SHL, TokKind.SHR, TokKind.LE, TokKind.GE,
        TokKind.EQEQ, TokKind.BANGEQ, TokKind.ANDAND, TokKind.OROR,
    ]
    assert kinds(src)[:-1] == expected


def test_adjacent_operators():
    assert kinds("a<=b")[:-1] == [TokKind.IDENT, TokKind.LE, TokKind.IDENT]
    assert kinds("a<b")[:-1] == [TokKind.IDENT, TokKind.LT, TokKind.IDENT]


def test_line_comments_are_skipped():
    toks = tokenize("a // comment with * and / chars\n b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_block_comments_are_skipped():
    toks = tokenize("a /* multi\nline\ncomment */ b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]
    assert toks[1].line == 3


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_unexpected_character_raises_with_location():
    with pytest.raises(LexError) as exc:
        tokenize("a\n  $")
    assert exc.value.line == 2


def test_line_and_column_tracking():
    toks = tokenize("a\n  b\n    c")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)
    assert (toks[2].line, toks[2].column) == (3, 5)


def test_punctuation():
    src = "( ) { } [ ] ; ,"
    expected = [
        TokKind.LPAREN, TokKind.RPAREN, TokKind.LBRACE, TokKind.RBRACE,
        TokKind.LBRACKET, TokKind.RBRACKET, TokKind.SEMI, TokKind.COMMA,
    ]
    assert kinds(src)[:-1] == expected


def test_invalid_hex_literal_raises():
    with pytest.raises(LexError):
        tokenize("0xZZ")


def test_all_keywords_recognized():
    from repro.lang.tokens import KEYWORDS

    for word, kind in KEYWORDS.items():
        toks = tokenize(word)
        assert toks[0].kind is kind, word


@pytest.mark.parametrize(
    "source, line, column",
    [("x = 2²;", 1, 6), ("x = ²;", 1, 5), ("a\n  1.5²", 2, 6)],
)
def test_non_decimal_digit_is_a_lex_error(source, line, column):
    # str.isdigit accepts '²' but int() does not: it must fail as a
    # named LexError at its own position, not as a bare ValueError
    with pytest.raises(LexError) as exc:
        tokenize(source)
    err = exc.value
    assert err.diagnostic.message == "unexpected character '²'"
    assert (err.line, err.column) == (line, column)


def test_non_decimal_digit_inside_identifier_is_accepted():
    toks = tokenize("x² = 1;")
    assert (toks[0].kind, toks[0].text) == (TokKind.IDENT, "x²")


def test_toolchain_reports_non_decimal_digit_as_lex_error():
    from repro.core.toolchain import Toolchain

    with pytest.raises(LexError, match="unexpected character '²'"):
        Toolchain().compile("void main() { print_int(2²); }")


def test_lex_error_diagnostics_keep_span_hint_and_notes():
    with pytest.raises(LexError) as exc:
        tokenize("int a;\n  /* open")
    diag = exc.value.diagnostic
    assert diag.message == "unterminated block comment"
    assert (diag.span.line, diag.span.column, diag.span.end_column) == (2, 3, 5)
    assert diag.hint == "add the closing '*/'"
    assert diag.notes == (
        "the comment opened here (line 2) is still open at end of input",
    )
    with pytest.raises(LexError) as exc:
        tokenize("x = 0x1g;")
    span = exc.value.diagnostic.span
    assert (span.line, span.column, span.end_column) == (1, 5, 9)


def test_tokens_compare_by_value_and_know_their_end():
    from repro.lang.tokens import Token

    a, eof = tokenize("abc")
    assert a == Token(TokKind.IDENT, "abc", 1, 1)
    assert a != Token(TokKind.IDENT, "abc", 1, 2)
    assert hash(a) == hash(Token(TokKind.IDENT, "abc", 1, 1))
    assert a.end_column == 4
    assert (eof.column, eof.end_column) == (4, 5)
    with pytest.raises(AttributeError):
        a.text = "x"
