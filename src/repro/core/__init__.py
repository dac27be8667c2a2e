"""Public high-level API.

:class:`Toolchain` compiles MiniC for both ISAs; the experiment engine
runs the timed :class:`Comparison` of a program::

    from repro.engine import ExperimentEngine

    engine = ExperimentEngine()
    pair = engine.compiled("demo", source)
    result = engine.compare("demo", source=source)
    print(result.speedup)
"""

from repro.core.toolchain import (
    CompiledPair,
    Comparison,
    Toolchain,
    compile_block_structured,
    compile_conventional,
    compile_pair,
)

__all__ = [
    "Toolchain",
    "CompiledPair",
    "Comparison",
    "compile_conventional",
    "compile_block_structured",
    "compile_pair",
]
