"""Back ends: IR → machine code for both ISAs.

Pipeline (shared until the last step, guaranteeing the paper's "same
compiler, only block structuring differs" comparison):

1. :mod:`repro.backend.machine_ir` lowers IR functions to machine basic
   blocks over virtual registers;
2. :mod:`repro.regalloc` assigns physical registers, inserts spill code,
   lays out the stack frame and adds prologue/epilogue;
3. from those same allocated functions (steps 1-2 run once, in
   :func:`~repro.backend.conventional.lower_and_allocate`),
   :mod:`repro.backend.conventional` linearizes the blocks into a
   conventional executable (``BR``/``JMP`` branches), and
   :mod:`repro.backend.blockstructured` runs the **block enlargement**
   pass (:mod:`repro.backend.enlarge`) and emits atomic blocks with
   ``TRAP``/``FAULT`` terminators.
"""

from repro.backend.machine_ir import MachineBlock, MachineFunction, MTerm, lower_module
from repro.backend.conventional import generate_conventional
from repro.backend.blockstructured import generate_block_structured
from repro.backend.enlarge import EnlargeConfig

__all__ = [
    "MachineBlock",
    "MachineFunction",
    "MTerm",
    "lower_module",
    "generate_conventional",
    "generate_block_structured",
    "EnlargeConfig",
]
