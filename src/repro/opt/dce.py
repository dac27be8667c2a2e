"""Global dead-code elimination.

A pure instruction whose destination register is used nowhere in the
function (including terminators) is dead; removing it may kill further
uses, so the pass iterates to a fixpoint. Correct on non-SSA IR: a
register with zero uses makes *every* pure definition of it dead.
"""

from __future__ import annotations

from repro.ir.structure import Function


def eliminate_dead_code(fn: Function) -> bool:
    changed = False
    while True:
        used = set()
        for block in fn.blocks:
            for instr in block.instrs:
                used.update(instr.uses())
            if block.term is not None:
                used.update(block.term.uses())

        removed = False
        for block in fn.blocks:
            kept = []
            for instr in block.instrs:
                dest = instr.defines()
                dead = (
                    dest is not None
                    and not instr.has_side_effects
                    and dest not in used
                )
                if dead:
                    removed = True
                else:
                    kept.append(instr)
            block.instrs = kept
        if not removed:
            return changed
        changed = True
