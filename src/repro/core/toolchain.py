"""High-level toolchain: MiniC source → both executables.

Both executables come from one optimized IR module — the paper's
controlled comparison (§5: "this eliminated any unfair compiler
advantages one ISA may have had over the other"). The timed
:class:`Comparison` of the pair comes from
:meth:`repro.engine.ExperimentEngine.compare`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import EnlargeConfig, blockstructured, conventional
from repro.backend.conventional import lower_and_allocate
from repro.frontend import compile_to_ir
from repro.ir.structure import Module
from repro.ir.verify import verify_module
from repro.isa.program import BlockProgram, ConventionalProgram
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.opt import (
    IfConvertConfig,
    InlineConfig,
    if_convert_module,
    inline_module,
    optimize_module,
    remove_uncalled_functions,
)
from repro.sim.run import SimResult


@dataclass
class CompiledPair:
    """The same program compiled for both ISAs."""

    name: str
    module: Module
    conventional: ConventionalProgram
    block: BlockProgram

    @property
    def code_expansion(self) -> float:
        """Static BS-ISA code size relative to the conventional image."""
        conv = self.conventional.code_bytes
        return self.block.code_bytes / conv if conv else 0.0


@dataclass
class Comparison:
    """Timed results for both ISAs on one program + machine config."""

    conventional: SimResult
    block: SimResult

    @property
    def speedup(self) -> float:
        """Conventional cycles / BS cycles (>1 means the BS-ISA wins);
        0.0 for a zero-cycle BS run, matching the other ratio guards."""
        block = self.block.cycles
        return self.conventional.cycles / block if block else 0.0

    @property
    def reduction_pct(self) -> float:
        """Percent reduction in execution time (the paper's metric)."""
        conv = self.conventional.cycles
        return 100.0 * (conv - self.block.cycles) / conv if conv else 0.0

    @property
    def outputs_match(self) -> bool:
        return self.conventional.outputs == self.block.outputs


@dataclass(frozen=True)
class Toolchain:
    """Compiles MiniC for both ISAs.

    Frozen and hashable: its four fields are every compile option that
    affects generated code, so a toolchain is run data. It rides on a
    :class:`~repro.engine.spec.RunSpec`, keys the engine's memos, and
    ``asdict`` of it is the option part of a compile key.
    """

    opt_level: int = 2
    enlarge: EnlargeConfig = EnlargeConfig()
    #: paper §6 future work; both off by default to match the paper
    inline: InlineConfig = InlineConfig(enabled=False)
    if_convert: IfConvertConfig = IfConvertConfig(enabled=False)

    def compile_ir(
        self, source: str, name: str = "program",
        telemetry: Telemetry | None = None,
    ) -> Module:
        """Front end + optimizer (+ optional inlining) only. Spans and
        metrics go to *telemetry*, the process-wide session when None
        (:func:`repro.obs.get_telemetry`)."""
        tel = telemetry if telemetry is not None else get_telemetry()
        with tel.span("compile.frontend", module=name):
            module = compile_to_ir(source, name=name, telemetry=tel)
        with tel.span("compile.verify", module=name):
            verify_module(module)
        optimize_module(module, self.opt_level, telemetry=tel)
        if self.inline.enabled:
            with tel.span("compile.inline", module=name):
                inlined = inline_module(module, self.inline)
                removed = remove_uncalled_functions(module)
            if tel.enabled:
                tel.metrics.inc("opt.inline_decisions", inlined, module=name)
                tel.metrics.inc(
                    "opt.uncalled_functions_removed", removed, module=name
                )
            optimize_module(module, self.opt_level, telemetry=tel)
        if self.if_convert.enabled:
            with tel.span("compile.if_convert", module=name):
                if_convert_module(module, self.if_convert)
            optimize_module(module, self.opt_level, telemetry=tel)
        with tel.span("compile.verify", module=name):
            verify_module(module)
        return module

    def compile(
        self, source: str, name: str = "program",
        telemetry: Telemetry | None = None,
    ) -> CompiledPair:
        """Compile *source* for both ISAs, publishing to *telemetry* as
        :meth:`compile_ir` does.

        Machine lowering and register allocation run once; both emitters
        read the same allocated functions, and the block image gets its
        own copy of the data segment. A profile-guided compile (paper
        §6: ``enlarge.min_bias`` set) runs the conventional image once
        as a training run between the two emitters, and enlargement
        refuses to fork at traps whose measured bias is below
        ``min_bias``; the conventional image is the plain one.
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        with tel.span("compile", module=name):
            module = self.compile_ir(source, name, tel)
            with tel.span("compile.backend", module=name):
                functions, data = lower_and_allocate(module, tel)
                conv = conventional.emit_conventional(
                    functions, data, name, tel
                )
                profile = None
                if self.enlarge.min_bias is not None:
                    from repro.profile import collect_branch_profile

                    with tel.span("compile.profile", module=name):
                        profile = collect_branch_profile(conv)
                block = blockstructured.emit_block_structured(
                    functions, data.copy(), name, self.enlarge, tel, profile
                )
        if tel.enabled:
            tel.metrics.gauge(
                "compile.code_bytes", conv.code_bytes,
                module=name, isa="conventional",
            )
            tel.metrics.gauge(
                "compile.code_bytes", block.code_bytes,
                module=name, isa="block",
            )
            tel.metrics.gauge(
                "compile.code_expansion",
                block.code_bytes / conv.code_bytes if conv.code_bytes else 0.0,
                module=name,
            )
        return CompiledPair(name, module, conv, block)


def compile_conventional(
    source: str, name: str = "program", opt_level: int = 2
) -> ConventionalProgram:
    """One-shot: MiniC source → conventional executable."""
    return Toolchain(opt_level).compile(source, name).conventional


def compile_block_structured(
    source: str,
    name: str = "program",
    opt_level: int = 2,
    enlarge: EnlargeConfig | None = None,
) -> BlockProgram:
    """One-shot: MiniC source → BS-ISA executable."""
    return compile_pair(source, name, opt_level, enlarge).block


def compile_pair(
    source: str,
    name: str = "program",
    opt_level: int = 2,
    enlarge: EnlargeConfig | None = None,
) -> CompiledPair:
    """One-shot: MiniC source → both executables."""
    return Toolchain(opt_level, enlarge or EnlargeConfig()).compile(
        source, name
    )
