"""Expression grammar: precedence-climbing binary/unary/postfix/primary."""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.parser.core import ParserBase, TYPE_KEYWORDS
from repro.lang.tokens import TokKind

#: binary operator token -> (precedence, operator), loosest first
_BINARY = {
    kind: (prec, kind.value)
    for prec, kinds in enumerate((
        (TokKind.OROR,),
        (TokKind.ANDAND,),
        (TokKind.PIPE,),
        (TokKind.CARET,),
        (TokKind.AMP,),
        (TokKind.EQEQ, TokKind.BANGEQ),
        (TokKind.LT, TokKind.LE, TokKind.GT, TokKind.GE),
        (TokKind.SHL, TokKind.SHR),
        (TokKind.PLUS, TokKind.MINUS),
        (TokKind.STAR, TokKind.SLASH, TokKind.PERCENT),
    ))
    for kind in kinds
}


class ExpressionParserMixin(ParserBase):
    def parse_expr(self) -> ast.Expr:
        return self._binary(0)

    def _binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing: every operator binds left to right, so
        the right operand takes only operators that bind tighter.
        Operators are peeked, never probed, so they stay out of the
        expected-token set of a later error."""
        left = self._unary()
        while True:
            tok = self.peek()
            entry = _BINARY.get(tok.kind)
            if entry is None or entry[0] < min_prec:
                return left
            self.next()
            right = self._binary(entry[0] + 1)
            left = ast.BinOp(op=entry[1], left=left, right=right, line=tok.line)

    def _unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokKind.MINUS:
            self.next()
            operand = self._unary()
            return ast.UnOp(op="-", operand=operand, line=tok.line)
        if tok.kind is TokKind.BANG:
            self.next()
            operand = self._unary()
            return ast.UnOp(op="!", operand=operand, line=tok.line)
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokKind.INT_LIT:
            self.next()
            return ast.IntLit(value=int(tok.value), line=tok.line)  # type: ignore[arg-type]
        if tok.kind is TokKind.FLOAT_LIT:
            self.next()
            return ast.FloatLit(value=float(tok.value), line=tok.line)  # type: ignore[arg-type]
        if tok.kind in (TokKind.KW_INT, TokKind.KW_FLOAT):
            self.next()
            self.expect(TokKind.LPAREN)
            operand = self.parse_expr()
            self.expect(TokKind.RPAREN)
            target = ast.INT if tok.kind is TokKind.KW_INT else ast.FLOAT
            return ast.Cast(target=target, operand=operand, line=tok.line)
        if tok.kind is TokKind.LPAREN:
            self.next()
            expr = self.parse_expr()
            self.expect(TokKind.RPAREN)
            return expr
        if tok.kind is TokKind.IDENT:
            self.next()
            if self.check(TokKind.LPAREN):
                self.next()
                args: list[ast.Expr] = []
                if not self.check(TokKind.RPAREN):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(TokKind.COMMA):
                            break
                self.expect(TokKind.RPAREN)
                return ast.Call(func=tok.text, args=args, line=tok.line)
            return self._postfix(ast.Name(ident=tok.text, line=tok.line), tok)
        raise self.error(
            f"expected an expression, found {self._describe(tok)}",
            tok,
            expected=self.expected_texts(),
            hint=self.keyword_hint(tok)
            if tok.kind in TYPE_KEYWORDS or tok.kind is TokKind.IDENT
            else None,
        )

    def _postfix(self, expr: ast.Expr, tok) -> ast.Expr:
        """``a[i]`` / ``a.f`` chains after an identifier, in any mix."""
        while True:
            if self.check(TokKind.LBRACKET):
                self.next()
                index = self.parse_expr()
                self.expect(TokKind.RBRACKET)
                expr = ast.Index(base=expr, index=index, line=tok.line)
            elif self.check(TokKind.DOT):
                self.next()
                fld = self.expect(TokKind.IDENT)
                expr = ast.Member(
                    base=expr, field_name=fld.text, line=tok.line
                )
            else:
                return expr
