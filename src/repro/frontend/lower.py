"""Lower a type-checked MiniC AST to IR.

Design notes:

* Scalar parameters and locals live in virtual registers; local arrays
  live in frame slots; globals live in the data segment and are accessed
  through ``GlobalAddr`` + ``Load``/``Store``.
* Array-typed parameters are passed as addresses (an int vreg).
* ``&&``/``||``/``!`` in branch position lower to control flow
  (short-circuit); in value position the control flow materializes a 0/1
  register. This matters for the paper: short-circuit evaluation is one
  of the reasons integer code has 4–5 instruction basic blocks.
* Word size is 8 bytes; array indexing scales by ``<< 3``.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import BaseType, Type
from repro.lang.semantic import AnalyzedProgram, StructField, StructInfo, Symbol, analyze
from repro.lang.parser import parse
from repro.ir.instructions import (
    Bin,
    CallInstr,
    CondBr,
    Const,
    Copy,
    FrameAddr,
    GlobalAddr,
    IrOp,
    Jump,
    Load,
    Print,
    Ret,
    Store,
    Un,
    VReg,
)
from repro.ir.structure import BasicBlock, Function, GlobalVar, Module

WORD = 8

_INT_BIN = {
    "+": IrOp.ADD,
    "-": IrOp.SUB,
    "*": IrOp.MUL,
    "/": IrOp.DIV,
    "%": IrOp.REM,
    "&": IrOp.AND,
    "|": IrOp.OR,
    "^": IrOp.XOR,
    "<<": IrOp.SHL,
    ">>": IrOp.SRA,
    "==": IrOp.SEQ,
    "!=": IrOp.SNE,
    "<": IrOp.SLT,
    "<=": IrOp.SLE,
}

_FLOAT_BIN = {
    "+": IrOp.FADD,
    "-": IrOp.FSUB,
    "*": IrOp.FMUL,
    "/": IrOp.FDIV,
    "==": IrOp.FSEQ,
    "!=": IrOp.FSNE,
    "<": IrOp.FSLT,
    "<=": IrOp.FSLE,
}

_BUILTIN_PRINTS = {"print_int": "int", "print_float": "float", "print_char": "char"}


def lower_program(analyzed: AnalyzedProgram, name: str = "module") -> Module:
    """Lower an analyzed program to an IR module."""
    module = Module(name=name)
    for g in analyzed.program.globals:
        elem_words = (
            analyzed.structs[g.ty.struct_name].words if g.ty.is_struct else 1
        )
        count = g.array_size if g.array_size is not None else 1
        module.globals.append(
            GlobalVar(
                g.name,
                is_float=g.ty.base is BaseType.FLOAT,
                words=elem_words * count,
                init=g.init,
            )
        )
    for f in analyzed.program.functions:
        module.add_function(_FunctionLowerer(f, module, analyzed.structs).run())
    return module


def compile_to_ir(source: str, name: str = "module", telemetry=None) -> Module:
    """Parse, type-check and lower MiniC *source*.

    Each front-end phase gets its own telemetry span (``frontend.lex``,
    ``frontend.parse``, ``frontend.semantic``, ``frontend.lower``).
    """
    from repro.lang.lexer import tokenize
    from repro.lang.parser import parse_tokens
    from repro.obs.telemetry import get_telemetry

    tel = telemetry if telemetry is not None else get_telemetry()
    with tel.span("frontend.lex", module=name):
        tokens = tokenize(source)
    with tel.span("frontend.parse", module=name):
        program = parse_tokens(tokens, source)
    with tel.span("frontend.semantic", module=name):
        analyzed = analyze(program)
    with tel.span("frontend.lower", module=name):
        return lower_program(analyzed, name=name)


class _FunctionLowerer:
    def __init__(
        self,
        decl: ast.FuncDecl,
        module: Module,
        structs: dict[str, StructInfo] | None = None,
    ):
        self.decl = decl
        self.module = module
        self.structs = structs or {}
        params: list[VReg] = []
        self.fn = Function(
            decl.name,
            params,
            ret_is_float=decl.ret.base is BaseType.FLOAT,
            returns_value=decl.ret.base is not BaseType.VOID,
            is_library=decl.is_library,
        )
        #: symbol uid -> vreg (scalars) / frame-slot name (arrays, structs)
        self.scalar_regs: dict[int, VReg] = {}
        self.array_slots: dict[int, str] = {}
        self.array_param_regs: dict[int, VReg] = {}
        for p in decl.params:
            sym: Symbol = getattr(p, "binding")
            if p.ty.is_array:
                reg = self.fn.new_vreg("i")
                self.array_param_regs[sym.uid] = reg
            else:
                reg = self.fn.new_vreg("f" if p.ty.base is BaseType.FLOAT else "i")
                self.scalar_regs[sym.uid] = reg
            params.append(reg)
        self.block: BasicBlock = self.fn.new_block("entry")
        #: jump targets for break (loops and switches) / continue (loops only)
        self.break_targets: list[str] = []
        self.continue_targets: list[str] = []

    # ---- plumbing ---------------------------------------------------------

    def emit(self, instr) -> None:
        self.block.append(instr)

    def new_temp(self, ty: str = "i") -> VReg:
        return self.fn.new_vreg(ty)

    def start_block(self, block: BasicBlock) -> None:
        self.block = block

    def const(self, value: int | float, is_float: bool = False) -> VReg:
        dest = self.new_temp("f" if is_float else "i")
        self.emit(Const(dest, value))
        return dest

    # ---- top level ----------------------------------------------------------

    def run(self) -> Function:
        self.lower_block(self.decl.body)
        if not self.block.terminated:
            if self.fn.returns_value:
                zero = self.const(
                    0.0 if self.fn.ret_is_float else 0, self.fn.ret_is_float
                )
                self.block.terminate(Ret(zero))
            else:
                self.block.terminate(Ret(None))
        # Terminate any unreachable leftovers so the verifier is happy.
        for block in self.fn.blocks:
            if not block.terminated:
                if self.fn.returns_value:
                    zero = self.fn.new_vreg("f" if self.fn.ret_is_float else "i")
                    block.append(Const(zero, 0.0 if self.fn.ret_is_float else 0))
                    block.terminate(Ret(zero))
                else:
                    block.terminate(Ret(None))
        return self.fn

    # ---- statements -----------------------------------------------------------

    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_targets:
                raise CompileError(
                    "break outside loop or switch (semantic pass missed it)"
                )
            self.block.terminate(Jump(self.break_targets[-1]))
            self.start_block(self.fn.new_block("afterbrk"))
        elif isinstance(stmt, ast.Continue):
            if not self.continue_targets:
                raise CompileError("continue outside loop")
            self.block.terminate(Jump(self.continue_targets[-1]))
            self.start_block(self.fn.new_block("aftercont"))
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {type(stmt).__name__}")

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        sym: Symbol = getattr(stmt, "binding")
        if stmt.ty.is_struct:
            elem_words = self.structs[stmt.ty.struct_name].words
            count = stmt.array_size if stmt.array_size is not None else 1
            slot = self.fn.add_frame_slot(
                f"{stmt.name}.{sym.uid}", elem_words * count * WORD
            )
            self.array_slots[sym.uid] = slot
            return
        if stmt.array_size is not None:
            slot = self.fn.add_frame_slot(
                f"{stmt.name}.{sym.uid}", stmt.array_size * WORD
            )
            self.array_slots[sym.uid] = slot
            return
        reg = self.fn.new_vreg("f" if stmt.ty.base is BaseType.FLOAT else "i")
        self.scalar_regs[sym.uid] = reg
        if stmt.init is not None:
            value = self.lower_expr(stmt.init)
            self.emit(Copy(reg, value))
        else:
            self.emit(Const(reg, 0.0 if reg.is_float else 0))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        value = self.lower_expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            sym: Symbol = getattr(target, "binding")
            if sym.kind == "global":
                addr = self.new_temp("i")
                self.emit(GlobalAddr(addr, sym.name))
                self.emit(Store(value, addr, 0))
            else:
                self.emit(Copy(self.scalar_regs[sym.uid], value))
        elif isinstance(target, (ast.Index, ast.Member)):
            base, offset = self._addr(target)
            self.emit(Store(value, base, offset))
        else:  # pragma: no cover
            raise CompileError("bad assignment target")

    def _lower_if(self, stmt: ast.If) -> None:
        then_block = self.fn.new_block("then")
        merge_block = self.fn.new_block("endif")
        else_block = self.fn.new_block("else") if stmt.orelse else merge_block
        self.lower_cond(stmt.cond, then_block.label, else_block.label)
        self.start_block(then_block)
        self.lower_block(stmt.then)
        if not self.block.terminated:
            self.block.terminate(Jump(merge_block.label))
        if stmt.orelse:
            self.start_block(else_block)
            self.lower_block(stmt.orelse)
            if not self.block.terminated:
                self.block.terminate(Jump(merge_block.label))
        self.start_block(merge_block)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.fn.new_block("loop")
        body = self.fn.new_block("body")
        done = self.fn.new_block("done")
        self.block.terminate(Jump(head.label))
        self.start_block(head)
        self.lower_cond(stmt.cond, body.label, done.label)
        self.break_targets.append(done.label)
        self.continue_targets.append(head.label)
        self.start_block(body)
        self.lower_block(stmt.body)
        if not self.block.terminated:
            self.block.terminate(Jump(head.label))
        self.break_targets.pop()
        self.continue_targets.pop()
        self.start_block(done)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.fn.new_block("forhead")
        body = self.fn.new_block("forbody")
        step = self.fn.new_block("forstep")
        done = self.fn.new_block("fordone")
        self.block.terminate(Jump(head.label))
        self.start_block(head)
        if stmt.cond is not None:
            self.lower_cond(stmt.cond, body.label, done.label)
        else:
            self.block.terminate(Jump(body.label))
        self.break_targets.append(done.label)
        self.continue_targets.append(step.label)
        self.start_block(body)
        self.lower_block(stmt.body)
        if not self.block.terminated:
            self.block.terminate(Jump(step.label))
        self.break_targets.pop()
        self.continue_targets.pop()
        self.start_block(step)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        if not self.block.terminated:
            self.block.terminate(Jump(head.label))
        self.start_block(done)

    def _lower_switch(self, stmt: ast.Switch) -> None:
        """Lower ``switch`` to a binary-search branch tree.

        The dispatch compares the scrutinee against the median case value
        (``SEQ`` hit-test, then ``SLT`` to pick a half), so each dispatch
        block is a short compare+branch — the dense-branch shape whose
        fetch behaviour the block-structured ISA is designed around.
        Clause bodies keep C fallthrough semantics: a body that does not
        ``break`` (or otherwise terminate) jumps to the next clause.
        """
        scrut = self.lower_expr(stmt.scrutinee)
        bodies = [self.fn.new_block("swcase") for _ in stmt.cases]
        end = self.fn.new_block("swend")
        default_label = end.label
        for case, blk in zip(stmt.cases, bodies):
            if case.value is None:
                default_label = blk.label
        valued = sorted(
            (case.value, blk.label)
            for case, blk in zip(stmt.cases, bodies)
            if case.value is not None
        )
        self._emit_dispatch(scrut, valued, default_label)
        self.break_targets.append(end.label)
        for i, case in enumerate(stmt.cases):
            self.start_block(bodies[i])
            for s in case.body:
                self.lower_stmt(s)
            if not self.block.terminated:
                nxt = bodies[i + 1].label if i + 1 < len(bodies) else end.label
                self.block.terminate(Jump(nxt))
        self.break_targets.pop()
        self.start_block(end)

    def _emit_dispatch(
        self,
        scrut: VReg,
        cases: list[tuple[int, str]],
        default_label: str,
    ) -> None:
        """Emit the branch tree over the sorted (value, label) cases."""
        if not cases:
            self.block.terminate(Jump(default_label))
            return
        mid = len(cases) // 2
        value, label = cases[mid]
        pivot = self.const(value)
        eq = self.new_temp("i")
        self.emit(Bin(IrOp.SEQ, eq, scrut, pivot))
        lo, hi = cases[:mid], cases[mid + 1 :]
        if not lo and not hi:
            self.block.terminate(CondBr(eq, label, default_label))
            return
        miss = self.fn.new_block("swcmp")
        self.block.terminate(CondBr(eq, label, miss.label))
        self.start_block(miss)
        if not lo:
            self._emit_dispatch(scrut, hi, default_label)
            return
        if not hi:
            self._emit_dispatch(scrut, lo, default_label)
            return
        lt = self.new_temp("i")
        self.emit(Bin(IrOp.SLT, lt, scrut, pivot))
        left = self.fn.new_block("swlt")
        right = self.fn.new_block("swge")
        self.block.terminate(CondBr(lt, left.label, right.label))
        self.start_block(left)
        self._emit_dispatch(scrut, lo, default_label)
        self.start_block(right)
        self._emit_dispatch(scrut, hi, default_label)

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.block.terminate(Ret(None))
        else:
            value = self.lower_expr(stmt.value)
            self.block.terminate(Ret(value))
        self.start_block(self.fn.new_block("afterret"))

    # ---- conditions (branch position) ----------------------------------------

    def lower_cond(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """Lower *expr* in branch position with short-circuiting."""
        if isinstance(expr, ast.BinOp) and expr.op == "&&":
            mid = self.fn.new_block("and")
            self.lower_cond(expr.left, mid.label, false_label)
            self.start_block(mid)
            self.lower_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.BinOp) and expr.op == "||":
            mid = self.fn.new_block("or")
            self.lower_cond(expr.left, true_label, mid.label)
            self.start_block(mid)
            self.lower_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.UnOp) and expr.op == "!":
            self.lower_cond(expr.operand, false_label, true_label)
            return
        cond = self.lower_expr(expr)
        self.block.terminate(CondBr(cond, true_label, false_label))

    # ---- expressions ------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr, want_value: bool = True) -> VReg:
        if isinstance(expr, ast.IntLit):
            return self.const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return self.const(expr.value, is_float=True)
        if isinstance(expr, ast.Name):
            return self._lower_name(expr)
        if isinstance(expr, ast.Index):
            if expr.ty.is_struct:
                return self._materialize_addr(expr)
            base, offset = self._array_element_addr(expr)
            is_float = expr.ty.base is BaseType.FLOAT
            dest = self.new_temp("f" if is_float else "i")
            self.emit(Load(dest, base, offset))
            return dest
        if isinstance(expr, ast.Member):
            if expr.ty.is_struct or expr.ty.is_array:
                return self._materialize_addr(expr)
            base, offset = self._addr(expr)
            is_float = expr.ty.base is BaseType.FLOAT
            dest = self.new_temp("f" if is_float else "i")
            self.emit(Load(dest, base, offset))
            return dest
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self._lower_unop(expr)
        if isinstance(expr, ast.Cast):
            return self._lower_cast(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, want_value)
        raise CompileError(f"unknown expression {type(expr).__name__}")

    def _lower_name(self, expr: ast.Name) -> VReg:
        sym: Symbol = getattr(expr, "binding")
        if sym.ty.is_array or sym.ty.is_struct:
            return self._array_base_addr(sym)
        if sym.kind == "global":
            addr = self.new_temp("i")
            self.emit(GlobalAddr(addr, sym.name))
            dest = self.new_temp("f" if sym.ty.base is BaseType.FLOAT else "i")
            self.emit(Load(dest, addr, 0))
            return dest
        return self.scalar_regs[sym.uid]

    def _array_base_addr(self, sym: Symbol) -> VReg:
        if sym.kind == "global":
            addr = self.new_temp("i")
            self.emit(GlobalAddr(addr, sym.name))
            return addr
        if sym.kind == "param":
            return self.array_param_regs[sym.uid]
        addr = self.new_temp("i")
        self.emit(FrameAddr(addr, self.array_slots[sym.uid]))
        return addr

    def _addr(self, expr: ast.Expr) -> tuple[VReg, int]:
        """Return (base register, byte offset) for any addressable expr.

        Handles names of aggregates, ``a[i]`` indexing (scalar and struct
        elements), and ``s.f`` member chains, in any combination. Member
        offsets are static, so chains fold into the byte offset for free.
        """
        if isinstance(expr, ast.Name):
            sym: Symbol = getattr(expr, "binding")
            return self._array_base_addr(sym), 0
        if isinstance(expr, ast.Member):
            fld: StructField = getattr(expr, "field")
            base, offset = self._addr(expr.base)
            return base, offset + fld.offset * WORD
        if isinstance(expr, ast.Index):
            return self._array_element_addr(expr)
        raise CompileError(f"expression {type(expr).__name__} is not addressable")

    def _materialize_addr(self, expr: ast.Expr) -> VReg:
        """Fold an (base, offset) address pair into a single register."""
        base, offset = self._addr(expr)
        if offset == 0:
            return base
        off = self.const(offset)
        dest = self.new_temp("i")
        self.emit(Bin(IrOp.ADD, dest, base, off))
        return dest

    def _elem_words(self, ty: Type) -> int:
        """Element size in words for an array of *ty*'s element type."""
        if ty.is_struct:
            return self.structs[ty.struct_name].words
        return 1

    def _array_element_addr(self, expr: ast.Index) -> tuple[VReg, int]:
        """Return (base register, byte offset) for an array element."""
        base, offset = self._addr(expr.base)
        elem_words = self._elem_words(expr.base.ty)
        if isinstance(expr.index, ast.IntLit):
            return base, offset + expr.index.value * elem_words * WORD
        index = self.lower_expr(expr.index)
        if elem_words == 1:
            shift = self.const(3)
            scaled = self.new_temp("i")
            self.emit(Bin(IrOp.SHL, scaled, index, shift))
        else:
            size = self.const(elem_words * WORD)
            scaled = self.new_temp("i")
            self.emit(Bin(IrOp.MUL, scaled, index, size))
        addr = self.new_temp("i")
        self.emit(Bin(IrOp.ADD, addr, base, scaled))
        return addr, offset

    def _lower_binop(self, expr: ast.BinOp) -> VReg:
        if expr.op in ("&&", "||"):
            return self._materialize_cond(expr)
        is_float = expr.left.ty.base is BaseType.FLOAT
        op_map = _FLOAT_BIN if is_float else _INT_BIN
        swap = False
        op_name = expr.op
        if op_name == ">":
            op_name, swap = "<", True
        elif op_name == ">=":
            op_name, swap = "<=", True
        ir_op = op_map.get(op_name)
        if ir_op is None:
            raise CompileError(f"cannot lower operator {expr.op!r}")
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        if swap:
            left, right = right, left
        result_float = is_float and op_name in ("+", "-", "*", "/")
        dest = self.new_temp("f" if result_float else "i")
        self.emit(Bin(ir_op, dest, left, right))
        return dest

    def _materialize_cond(self, expr: ast.Expr) -> VReg:
        """Lower a short-circuit expression in value position to 0/1."""
        result = self.new_temp("i")
        true_block = self.fn.new_block("cc1")
        false_block = self.fn.new_block("cc0")
        merge = self.fn.new_block("ccend")
        self.lower_cond(expr, true_block.label, false_block.label)
        self.start_block(true_block)
        self.emit(Const(result, 1))
        self.block.terminate(Jump(merge.label))
        self.start_block(false_block)
        self.emit(Const(result, 0))
        self.block.terminate(Jump(merge.label))
        self.start_block(merge)
        return result

    def _lower_unop(self, expr: ast.UnOp) -> VReg:
        operand = self.lower_expr(expr.operand)
        if expr.op == "-":
            is_float = expr.ty.base is BaseType.FLOAT
            dest = self.new_temp("f" if is_float else "i")
            self.emit(Un(IrOp.FNEG if is_float else IrOp.NEG, dest, operand))
            return dest
        if expr.op == "!":
            dest = self.new_temp("i")
            self.emit(Un(IrOp.NOT, dest, operand))
            return dest
        raise CompileError(f"cannot lower unary {expr.op!r}")

    def _lower_cast(self, expr: ast.Cast) -> VReg:
        operand = self.lower_expr(expr.operand)
        src_float = expr.operand.ty.base is BaseType.FLOAT
        dst_float = expr.target.base is BaseType.FLOAT
        if src_float == dst_float:
            return operand
        dest = self.new_temp("f" if dst_float else "i")
        self.emit(Un(IrOp.ITOF if dst_float else IrOp.FTOI, dest, operand))
        return dest

    def _lower_call(self, expr: ast.Call, want_value: bool) -> VReg:
        if expr.func in _BUILTIN_PRINTS:
            arg = self.lower_expr(expr.args[0])
            self.emit(Print(_BUILTIN_PRINTS[expr.func], arg))
            return self.const(0)
        args = [self.lower_expr(a) for a in expr.args]
        returns_value = expr.ty.base is not BaseType.VOID
        dest = None
        if returns_value:
            dest = self.new_temp("f" if expr.ty.base is BaseType.FLOAT else "i")
        self.emit(CallInstr(dest, expr.func, args))
        if dest is None:
            if want_value:
                raise CompileError(f"void call {expr.func!r} used as a value")
            return self.const(0)
        return dest
