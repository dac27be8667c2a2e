"""Cache keys pinned as literal digests.

A compile key digests the workload name, the source text, the schema
version and the four compile options (``opt_level``, ``enlarge``,
``inline``, ``if_convert``) rendered as plain dicts; run, insight and
trace keys build on it. Every artifact an
:class:`~repro.engine.ArtifactCache` holds is named by one of them, so
a key that moves orphans every cached artifact without changing any
result. The digests below were computed once and change only with an
intentional :data:`~repro.engine.spec.SCHEMA_VERSION` bump.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.backend import EnlargeConfig
from repro.engine import SCHEMA_VERSION, RunSpec, compile_key, run_key
from repro.engine.spec import trace_key
from repro.opt import IfConvertConfig, InlineConfig
from repro.sim.config import MachineConfig

SOURCE = "int main() {}"
DEFAULT_COMPILE_KEY = (
    "4ce071699364fce43c446bdd28639cfd5aa8e27da506d52e9ac676dfb8365259"
)
GUIDED_COMPILE_KEY = (
    "3c9a83edb71af8087f030138f3e9acfbf67ce18320d89641b3af5698dd201b4a"
)


@dataclass(frozen=True)
class _Options:
    """The paper's four compile options as plain data, apart from the
    class the engine carries them in. ``asdict`` of it is the dict a
    compile key digests; ``canonical()`` returns the same dict."""

    opt_level: int = 2
    enlarge: EnlargeConfig = field(default_factory=EnlargeConfig)
    inline: InlineConfig = field(
        default_factory=lambda: InlineConfig(enabled=False)
    )
    if_convert: IfConvertConfig = field(
        default_factory=lambda: IfConvertConfig(enabled=False)
    )

    def canonical(self) -> dict:
        return asdict(self)


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == 3


def test_compile_keys_are_pinned():
    assert compile_key("compress", SOURCE, _Options()) == DEFAULT_COMPILE_KEY
    guided = _Options(enlarge=EnlargeConfig(min_bias=0.75))
    assert compile_key("compress", SOURCE, guided) == GUIDED_COMPILE_KEY


def test_run_and_trace_keys_are_pinned():
    assert run_key(DEFAULT_COMPILE_KEY, RunSpec("compress", "block")) == (
        "9b30705306ada429322f51a9c622bf828177991eaf249c2c428aabb771ba3423"
    )
    assert run_key(
        DEFAULT_COMPILE_KEY,
        RunSpec(
            "compress", "conventional", MachineConfig().with_icache_kb(16)
        ),
    ) == "8d425632313087cbdc9daabb8d0deb5797650cc8dde533cd6c3745a1f42b0d2e"
    assert trace_key(DEFAULT_COMPILE_KEY, "block", MachineConfig()) == (
        "05898c6ab1383413b665b621b9cee0b276837aa34b7dfafa7bcf0a9a5702a11b"
    )
    assert trace_key(
        DEFAULT_COMPILE_KEY, "conventional", MachineConfig(bp_history_bits=4)
    ) == "8acb0552600cde9c47280646574487993cedcae7c84375496410c824bcb5d514"
