"""Per-layer timing recorded from outside the program.

:class:`LayerTracer` replaces the entry point of each layer — a module
function, a class method, or an optimizer pass in the pass table — with
a wrapper that records the call's CPU time. Wrappers nest, so every
layer gets its *self* time: its own duration minus the part its callees
in other traced layers cover. The functional executor is timed by
wrapping the generator of fetch units the trace packer consumes, which
splits capture into execution and packing.

Only calls made while :attr:`LayerTracer.recording` is set are counted,
so the benchmark's own checks (the reference interpreter and the
reference runs of compiled programs) never leak into a layer's
numbers. An entry point that no longer exists is skipped and listed in
:attr:`missing`; its layer then reads 0.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from itertools import chain, islice
from time import process_time

#: (module, attribute path, layer) — the boundary of each layer.
#: The same layer may own several entry points (both back ends call
#: the machine-IR lowering and the register allocator).
ENTRY_POINTS = (
    ("repro.core.toolchain", "Toolchain.compile", "compile"),
    ("repro.lang.lexer", "tokenize", "lex"),
    ("repro.lang.parser", "parse_tokens", "parse"),
    ("repro.frontend.lower", "analyze", "semantic"),
    ("repro.frontend.lower", "lower_program", "irlower"),
    ("repro.core.toolchain", "verify_module", "irverify"),
    ("repro.backend.conventional", "lower_module", "mlower"),
    ("repro.backend.blockstructured", "lower_module", "mlower"),
    ("repro.backend.conventional", "allocate_function", "regalloc"),
    ("repro.backend.blockstructured", "allocate_function", "regalloc"),
    ("repro.backend.conventional", "emit_conventional", "conv_encode"),
    ("repro.backend.blockstructured", "emit_block_structured", "block_encode"),
    ("repro.backend.blockstructured", "build_preblocks", "enlarge"),
    ("repro.backend.blockstructured", "enlarge_function", "enlarge"),
    ("repro.sim.run", "capture_conventional", "capture"),
    ("repro.sim.run", "capture_block_structured", "capture"),
    ("repro.sim.vector", "prepare_sweep", "replay_prep"),
    ("repro.sim.vector", "_base_prep", "replay_prep"),
    ("repro.sim.vector", "_geom_distances", "replay_prep"),
    ("repro.sim.vector", "_icache_prep", "replay_prep"),
    ("repro.sim.vector", "_dcache_prep", "replay_prep"),
    ("repro.sim.vector", "_fetch_prep", "replay_prep"),
    ("repro.sim.vector", "_lat_prep", "replay_prep"),
    ("repro.sim.vector", "_conv_replay", "replay_spine"),
    ("repro.sim.vector", "_block_replay", "replay_spine"),
    ("repro.sim.vector", "replay_packed_vector", "replay_kernel"),
    ("repro.sim.engine", "TimingEngine.run_packed", "replay_scalar"),
)

#: the optimizer's pass table: (name, function) pairs, each traced as
#: layer ``opt_<name>``.
PASS_TABLE = ("repro.opt.pipeline", "PIPELINE")

#: the trace packer; its input generator is the functional executor.
PACKER = ("repro.sim.packed", "PackedTrace.capture")

#: executor fetch units drawn per clock reading. Larger batches keep
#: more units alive at once, which made traced suite jobs 8% slower at
#: 256.
UNIT_BATCH = 16


class LayerTracer:
    """Self time and call count per layer, for the jobs it records."""

    def __init__(self):
        self.recording = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        #: one child-time accumulator per open traced call
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _timed_batches(self, units):
        """Yield *units* in lists of :data:`UNIT_BATCH`, charging the
        time spent producing them to layer ``exec``.

        One clock reading per batch, and no Python frame per unit, keep
        the split from inflating the packer's time. Iterated inside the
        packer's traced call, whose frame is then on top of the stack.
        """
        frame = self._stack[-1]
        spent = 0.0
        count = 0
        it = iter(units)
        try:
            while True:
                start = process_time()
                batch = list(islice(it, UNIT_BATCH))
                spent += process_time() - start
                if not batch:
                    return
                count += len(batch)
                yield batch
        finally:
            self.self_s["exec"] += spent
            self.calls["exec"] += count
            frame[0] += spent

    # -- installation --------------------------------------------------

    def _resolve(self, module: str, path: str):
        """(owner, attribute name, static attribute) or None."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            return None
        return owner, attr, static

    def _replace(self, owner, attr: str, static, new) -> None:
        if isinstance(static, classmethod):
            new = staticmethod(new)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, static))

    def install(self) -> "LayerTracer":
        for module, path, layer in ENTRY_POINTS:
            found = self._resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, static = found
            traced = self._wrap(layer, getattr(owner, attr))
            self._replace(owner, attr, static, traced)

        found = self._resolve(*PASS_TABLE)
        if found is None:
            self.missing.append(".".join(PASS_TABLE))
        else:
            owner, attr, static = found
            table = tuple(
                (name, self._wrap(f"opt_{name}", fn)) for name, fn in static
            )
            self._replace(owner, attr, static, table)

        found = self._resolve(*PACKER)
        if found is None:
            self.missing.append(".".join(PACKER))
        else:
            owner, attr, static = found
            original = getattr(owner, attr)
            traced = self._wrap("pack", original)

            def pack(units):
                if not self.recording:
                    return original(units)
                return traced(
                    chain.from_iterable(self._timed_batches(units))
                )

            self._replace(owner, attr, static, pack)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, static = self._undo.pop()
            setattr(owner, attr, static)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
