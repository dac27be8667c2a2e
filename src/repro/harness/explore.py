"""``bsisa explore``: walk one MiniC file through the whole pipeline.

Renders, for a single source file:

1. the numbered source,
2. the optimized IR of each function,
3. the conventional machine code, sliced per function,
4. the block-structured encoding — atomic blocks grouped into
   enlargement families, with a per-block diff of every enlarged
   variant against its canonical block (the ops the enlarger added,
   the embedded branch directions, fault/trap annotations).

The CLI front end (:func:`repro.harness.cli._cmd_explore`) adds file
handling and the exit-code contract on top of
:func:`render_exploration`.
"""

from __future__ import annotations

import difflib
from collections import defaultdict

from repro.core.toolchain import Toolchain
from repro.ir import print_function

_RULE = "=" * 70


def _heading(title: str) -> list[str]:
    return [_RULE, title, _RULE]


def _numbered_source(source: str) -> list[str]:
    lines = source.rstrip("\n").splitlines()
    width = len(str(len(lines))) if lines else 1
    return [f"  {i:>{width}} | {line}" for i, line in enumerate(lines, 1)]


def _op_notes(op) -> str:
    if op.opcode.value == "fault":
        return "   <- suppresses the whole block if mispredicted"
    if op.opcode.value == "trap":
        return f"   <- {op.nbits} history bit(s) for the predictor"
    return ""


def _conventional_listing(
    module, conventional, function: str | None = None
) -> list[str]:
    """The conventional image, sliced at function-entry labels."""
    entries = sorted(
        (conventional.label_addrs[f.name], f.name)
        for f in module.functions.values()
        if f.name in conventional.label_addrs
    )
    wanted = sorted(
        (addr, name) for addr, name in entries
        if function is None or name == function
    )
    bounds = {
        name: (addr, entries[i + 1][0] if i + 1 < len(entries) else None)
        for i, (addr, name) in enumerate(entries)
    }
    out: list[str] = []
    for _, name in wanted:
        start, stop = bounds[name]
        out.append(f"{name}:")
        for op in conventional.ops:
            if op.addr < start or (stop is not None and op.addr >= stop):
                continue
            out.append(f"  {op.addr:#08x}  {op.asm()}")
    return out


def _families(block_prog) -> dict[str, list]:
    families: dict[str, list] = defaultdict(list)
    for block in block_prog.blocks:
        families[block.path[0]].append(block)
    return families


def _canonical_of(blocks):
    for block in blocks:
        if not any(block.path_dirs):
            return block
    return blocks[0]


def _block_listing(block) -> list[str]:
    out = [f"{block.label}:  ({block.num_ops} ops, "
           f"{block.num_faults} fault op(s), path {' + '.join(block.path)})"]
    for op in block.ops:
        out.append(f"   {op.asm()}{_op_notes(op)}")
    return out


def _enlargement_diff(canonical, variant) -> list[str]:
    """Unified diff of a variant's ops against its canonical block."""
    out = [
        f"variant {variant.label}: merged {' + '.join(variant.path)}, "
        f"directions {list(variant.path_dirs)}, "
        f"{variant.num_faults} fault op(s), "
        f"{variant.num_ops - canonical.num_ops:+d} ops vs canonical"
    ]
    diff = difflib.unified_diff(
        [op.asm() for op in canonical.ops],
        [op.asm() for op in variant.ops],
        fromfile=canonical.label,
        tofile=variant.label,
        lineterm="",
    )
    out.extend(f"    {line}" for line in diff)
    return out


def _function_matches(label: str, function: str | None) -> bool:
    if function is None:
        return True
    return label == function or label.startswith(f"{function}.")


def render_exploration(
    source: str,
    name: str = "explore",
    opt_level: int = 2,
    function: str | None = None,
) -> str:
    """Compile *source* for both ISAs and render the full walk-through.

    Raises :class:`repro.errors.SourceError` subclasses (with their
    rich diagnostics attached) on a malformed program, and ``KeyError``
    if *function* names no function in the module.
    """
    pair = Toolchain(opt_level=opt_level).compile(source, name)
    module = pair.module
    functions = [
        f for f in module.functions.values()
        if _function_matches(f.name, function)
    ]
    if function is not None and not functions:
        known = ", ".join(module.functions)
        raise KeyError(f"no function {function!r} (known: {known})")

    out: list[str] = []
    out += _heading(f"SOURCE ({name})")
    out += _numbered_source(source)

    out.append("")
    out += _heading(f"OPTIMIZED IR (opt level {opt_level})")
    for f in functions:
        out.append(print_function(f).rstrip())
        out.append("")

    out += _heading(
        f"CONVENTIONAL ISA ({len(pair.conventional.ops)} ops, "
        f"{pair.conventional.code_bytes} bytes)"
    )
    out += _conventional_listing(module, pair.conventional, function)

    out.append("")
    out += _heading(
        f"BLOCK-STRUCTURED ISA ({pair.block.num_blocks} atomic blocks, "
        f"{pair.block.code_bytes} bytes, expansion "
        f"{pair.code_expansion:.2f}x, static avg block "
        f"{pair.block.static_block_size_avg():.1f} ops)"
    )
    families = _families(pair.block)
    for root in sorted(families, key=lambda r: families[r][0].label):
        if not _function_matches(root, function):
            continue
        blocks = families[root]
        canonical = _canonical_of(blocks)
        out.append("")
        out.append(
            f"family rooted at {root}: {len(blocks)} variant(s)"
        )
        out += [f"  {line}" for line in _block_listing(canonical)]
        for variant in blocks:
            if variant is canonical:
                continue
            out += [f"  {line}" for line in _enlargement_diff(canonical, variant)]
    return "\n".join(out)


def explore_file(
    path: str,
    opt_level: int = 2,
    function: str | None = None,
) -> str:
    """Read *path* and render its exploration (see
    :func:`render_exploration`)."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    name = path.rsplit("/", 1)[-1]
    return render_exploration(
        source, name=name, opt_level=opt_level, function=function
    )
