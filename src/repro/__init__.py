"""Block-structured ISA reproduction.

A from-scratch reproduction of "Increasing the Instruction Fetch Rate
via Block-Structured Instruction Set Architectures" (Hao, Chang, Evers,
Patt; MICRO-29, 1996): MiniC compiler, conventional and block-structured
ISAs, the block enlargement optimization, the modified two-level block
predictor, a cycle-level timing simulator, the SPECint95 stand-in
workload suite, and the harness regenerating every table and figure of
the paper's evaluation.

Start at :mod:`repro.core` and :mod:`repro.engine`::

    from repro.engine import ExperimentEngine

    engine = ExperimentEngine()
    pair = engine.compiled("demo", source)
    result = engine.compare("demo", source=source)
    print(result.reduction_pct)

See README.md for the map, DESIGN.md for the system inventory and
modelling decisions, and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
