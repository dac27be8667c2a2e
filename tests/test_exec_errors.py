"""Executor failure modes: each malformed program fails with its named
error, whether or not the trace is recorded."""

from __future__ import annotations

import pytest

from repro.errors import CompileError, ExecutionError
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.isa.asm import assemble_block_structured, assemble_conventional
from repro.isa.opcodes import Opcode

LOOP_CONVENTIONAL = """
_start:
  movi r3, 1
loop:
  add r4, r4, 1
  br r3, 1, loop
"""

LOOP_BLOCK = """
_start:
  movi r3, 1
  jmp loop
loop:
  add r4, r4, 1
  jmp loop
"""

CONVENTIONAL_CASES = {
    "op_limit": (LOOP_CONVENTIONAL, ExecutionError, "op limit"),
    "illegal_control": (
        "_start:\n  trap r3, _start, _start\n",
        ExecutionError,
        "illegal control op",
    ),
    "falls_off_code": (
        "_start:\n  movi r3, 1\n", CompileError, "out of range"
    ),
    "returns_off_code": (
        "_start:\n  movi r31, 4\n  ret r31\n", CompileError, "out of range"
    ),
}

BLOCK_CASES = {
    "op_limit": (LOOP_BLOCK, ExecutionError, "op limit"),
    "illegal_control": (
        "_start:\n  movi r3, 1\n  br r3, 1, _start\n",
        ExecutionError,
        "illegal control op",
    ),
    "no_successor": (
        "_start:\n  movi r3, 0\n  fault r3, 0, _start\n",
        ExecutionError,
        "no successor",
    ),
    "returns_off_code": (
        "_start:\n  movi r31, 4\n  ret r31\n",
        CompileError,
        "not an atomic block address",
    ),
}


@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("case", CONVENTIONAL_CASES)
def test_conventional_errors(case, trace):
    text, error, message = CONVENTIONAL_CASES[case]
    prog = assemble_conventional(text)
    executor = ConventionalExecutor(prog, trace=trace, op_limit=1000)
    with pytest.raises(error, match=message):
        executor.run()


@pytest.mark.parametrize("trace", [True, False])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_errors(case, trace):
    text, error, message = BLOCK_CASES[case]
    prog = assemble_block_structured(text)
    executor = BlockExecutor(prog, trace=trace, op_limit=1000)
    with pytest.raises(error, match=message):
        executor.run()


@pytest.mark.parametrize("trace", [True, False])
def test_unevaluable_op(trace):
    """A back-end pseudo-op left in an image (the assembler refuses to
    write one) is reported, not executed."""
    conventional = assemble_conventional("_start:\n  movi r3, 16\n  halt\n")
    conventional.ops[0].opcode = Opcode.FRAMEADDR
    block = assemble_block_structured("_start:\n  movi r3, 16\n  halt\n")
    block.blocks[0].ops[0].opcode = Opcode.FRAMEADDR
    for executor in (
        ConventionalExecutor(conventional, trace=trace),
        BlockExecutor(block, trace=trace),
    ):
        with pytest.raises(ExecutionError, match="cannot evaluate"):
            executor.run()


def test_op_limit_allows_a_run_of_exactly_the_limit():
    prog = assemble_conventional("_start:\n  movi r3, 1\n  halt\n")
    stats = ConventionalExecutor(prog, op_limit=2).run()
    assert stats.dyn_ops == 2
    with pytest.raises(ExecutionError, match="op limit"):
        ConventionalExecutor(prog, op_limit=1).run()
