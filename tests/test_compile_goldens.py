"""Compile goldens: every registered program image pinned exactly.

``tests/goldens/programs.json`` holds, for both ISAs, the sha256 of a
canonical rendering of each program image (:func:`render_image`): the
disassembly, every op's resolved fields, the sorted label addresses,
the data segment and the sorted library functions. Pickles are not
used: ``library_functions`` is a set, so pickle bytes can vary with
the hash seed. It covers

* every registered workload (the suite, the extras and the scenario
  families) at each scale in :data:`SCALES`;
* one digest over :data:`GENERATED` seeded ``generate_program``
  programs;
* a lexer corpus: the token stream of every source above, and of
  :data:`RANDOM_STRINGS` seeded random strings over the MiniC
  alphabet, or the full text and span of the ``LexError`` each raises.

A change to any compiler layer that moves one op, label, data word or
token fails here. After an *intentional* change, regenerate with

    pytest tests/test_compile_goldens.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from repro.check.genprog import generate_program
from repro.core.toolchain import Toolchain
from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.workloads import get_workload, workload_names

GOLDEN_PATH = Path(__file__).parent / "goldens" / "programs.json"
SCALES = (0.025, 0.35)
GENERATED = 150
RANDOM_STRINGS = 20000

#: single characters of the random lexer corpus: MiniC's own alphabet,
#: tab, carriage return, newline and one non-ASCII letter. No digit-like
#: character that is not a decimal digit (``²``): the lexer the golden
#: was pinned from raised a bare ValueError on those; test_lexer.py
#: covers them.
ALPHABET = (
    "abefixzEX_0123456789 \t\r\n" "(){}[];,.:+-*/%&|^!<>=" "é"
)
#: multi-character pieces, so keywords, hex and float literals and
#: comment delimiters occur often enough to matter
FRAGMENTS = (
    "int", "float", "while", "return", "0x", "0X1f", "1e", "e+", "e-",
    ".5", "/*", "*/", "//", "\r\n", "__",
)
#: characters that cannot start any token, drawn rarely so most strings
#: lex to the end
STRAYS = "#$@?~`'\"\\"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render_image(program) -> str:
    """Canonical text of a program image of either ISA."""
    ops = (
        program.ops
        if hasattr(program, "ops")
        else [op for block in program.blocks for op in block.ops]
    )
    data = program.data
    return "\n".join(
        [
            program.disassemble(),
            *(f"{op.addr} {op.nbits} {op.taddr} {op.taddr2}" for op in ops),
            f"entry {program.entry_label} {program.name}",
            repr(sorted(program.label_addrs.items())),
            repr(sorted(data.symbols.items())),
            repr(sorted(data.init.items())),
            repr(data.next_addr),
            repr(sorted(program.library_functions)),
        ]
    )


def image_digests(pair) -> dict[str, str]:
    return {
        "conventional": _sha256(render_image(pair.conventional)),
        "block": _sha256(render_image(pair.block)),
    }


@lru_cache(maxsize=None)
def workload_sources() -> dict[str, str]:
    """``"name@scale"`` -> MiniC source, for every registered workload."""
    return {
        f"{name}@{scale}": get_workload(name).source(scale)
        for name in workload_names()
        for scale in SCALES
    }


@lru_cache(maxsize=None)
def generated_sources() -> tuple[str, ...]:
    return tuple(
        generate_program(random.Random(f"compile-golden:{seed}"))
        for seed in range(GENERATED)
    )


def random_strings() -> list[str]:
    rng = random.Random("lexer-golden")
    pieces = list(ALPHABET) + list(FRAGMENTS)
    out = []
    for _ in range(RANDOM_STRINGS):
        parts = []
        for _ in range(rng.randint(0, 24)):
            if rng.random() < 0.02:
                parts.append(rng.choice(STRAYS))
            else:
                parts.append(rng.choice(pieces))
        out.append("".join(parts))
    return out


def lex_record(source: str) -> tuple[str, str | None]:
    """Every token of *source* as a tuple, or the ``LexError`` raised;
    and the error's kind (its message up to the quoted part), if any."""
    try:
        tokens = tokenize(source)
    except LexError as err:
        diag = err.diagnostic
        span = diag.span
        record = ("LexError", str(err), span.line, span.column, span.end_column)
        return repr(record), re.split(" ['\"]", diag.message, maxsplit=1)[0]
    return repr(
        [
            (t.kind.name, t.text, t.line, t.column, t.end_column, t.value)
            for t in tokens
        ]
    ), None


def measure_images() -> dict[str, dict[str, str]]:
    return {
        key: image_digests(Toolchain().compile(source, key.split("@")[0]))
        for key, source in workload_sources().items()
    }


def measure_generated() -> str:
    digest = hashlib.sha256()
    for i, source in enumerate(generated_sources()):
        pair = Toolchain().compile(source, f"gen{i}")
        for isa, sha in image_digests(pair).items():
            digest.update(f"{i} {isa} {sha}\n".encode())
    return digest.hexdigest()


def measure_lexer() -> dict:
    sources = [*workload_sources().values(), *generated_sources()]
    strings = random_strings()
    lexed = [lex_record(s) for s in strings]
    errors = Counter(kind for _, kind in lexed if kind is not None)
    return {
        "sources": len(sources),
        "sources_sha256": _sha256(
            "\n".join(lex_record(s)[0] for s in sources)
        ),
        "strings": len(strings),
        "strings_lexed": len(strings) - sum(errors.values()),
        "string_errors": dict(sorted(errors.items())),
        "strings_sha256": _sha256("\n".join(r for r, _ in lexed)),
    }


def _check(request, section: str, measured) -> None:
    """Compare *measured* with the golden's *section*, or rewrite it."""
    if request.config.getoption("--update-goldens"):
        doc = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        doc["scales"] = list(SCALES)
        doc[section] = measured
        GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"updated {GOLDEN_PATH.name} [{section}]")
    assert GOLDEN_PATH.is_file(), (
        f"golden {GOLDEN_PATH} is missing — create it with "
        "`pytest tests/test_compile_goldens.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scales"] == list(SCALES)
    want = golden[section]
    if isinstance(want, dict):
        stale = [
            key
            for key in sorted(set(want) | set(measured))
            if want.get(key) != measured.get(key)
        ]
    else:
        stale = [] if want == measured else [section]
    assert not stale, (
        f"{GOLDEN_PATH.name} [{section}] is stale:\n  "
        + "\n  ".join(stale)
        + "\nIf intentional, regenerate with --update-goldens and review."
    )


def test_golden_covers_every_registered_workload():
    assert len(workload_names()) == 14
    assert len(workload_sources()) == 14 * len(SCALES)


def test_workload_images_match_golden(request):
    _check(request, "images", measure_images())


def test_generated_images_match_golden(request):
    _check(request, "generated", {"programs": GENERATED,
                                  "sha256": measure_generated()})


def test_lexer_corpus_matches_golden(request):
    _check(request, "lexer", measure_lexer())
