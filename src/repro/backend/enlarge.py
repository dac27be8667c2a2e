"""The block enlargement optimization (paper §2, §4.2).

Operates on a per-function graph of *pre-blocks* (machine basic blocks
already register-allocated, split at calls and at the 16-op issue-width
limit). From every reachable *root* pre-block it grows **enlarged block
variants**: paths of pre-blocks connected by jump or trap edges. At each
trap edge the expansion forks — the variant that follows the true edge
and the variant that follows the false edge are *both* created (this is
the paper's key difference from superblock scheduling: the dynamic
predictor later picks between them, Fig. 2) — and the interior trap
becomes a **fault** operation whose target is the sibling variant that
encodes the complementary direction.

The five termination conditions of §4.2:

1. an enlarged block never exceeds ``max_ops`` (the 16-wide issue width);
2. at most ``max_faults`` (2) fault ops → at most 8 successors;
3. call/return(/indirect) edges are never crossed (they terminate
   pre-blocks by construction);
4. loop back edges are never crossed (no combining of loop iterations);
5. library functions are not enlarged at all.

A trap edge is expanded only if *both* merged children satisfy the
constraints; otherwise the variant ends at the trap. The *canonical*
variant of a root family follows the false (fall-through) edge at every
fork — it is the variant the trap operation's explicit targets and fault
operations' targets name; the predictor's BTB learns the rest (paper
§4.3 modification 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.ir.cfg import generic_back_edges


@dataclass
class PreTerm:
    """Terminator of a pre-block.

    kind: ``"trap"`` (cond, if_true, if_false), ``"jmp"`` (if_true),
    ``"call"`` (callee, if_true=continuation), ``"ret"``, ``"halt"``.
    """

    kind: str
    cond: int | None = None
    if_true: str | None = None
    if_false: str | None = None
    callee: str | None = None

    def targets(self) -> tuple[str, ...]:
        if self.kind == "trap":
            return (self.if_true, self.if_false)  # type: ignore[return-value]
        if self.kind in ("jmp", "call"):
            return (self.if_true,)  # type: ignore[return-value]
        return ()


@dataclass
class PreBlock:
    """A machine basic block ready for enlargement.

    ``ops`` excludes the terminator; ``count`` (body + 1 terminator op)
    is the block's contribution to an enlarged block's size.
    """

    label: str
    ops: list = field(default_factory=list)
    term: PreTerm = None  # type: ignore[assignment]

    @property
    def count(self) -> int:
        return len(self.ops) + 1


@dataclass
class Variant:
    """One enlarged atomic block: a path of pre-blocks plus fork dirs."""

    root: str
    blocks: list[PreBlock]
    dirs: tuple[int, ...]  # direction taken at each interior trap (1=true edge)
    #: labels of sibling variants targeted by each fault op, parallel to dirs
    fault_targets: list[str] = field(default_factory=list)
    #: set after family closure: ceil(log2(successor count)) for the trap
    nbits: int = 1

    @property
    def label(self) -> str:
        if not self.dirs:
            return self.root
        return self.root + "@" + "".join(map(str, self.dirs))

    @property
    def count(self) -> int:
        return sum(b.count for b in self.blocks) - self._dropped_jumps

    @property
    def _dropped_jumps(self) -> int:
        dropped = 0
        for block in self.blocks[:-1]:
            if block.term.kind == "jmp":
                dropped += 1
        return dropped

    @property
    def term(self) -> PreTerm:
        return self.blocks[-1].term


@dataclass(frozen=True)
class EnlargeConfig:
    """Knobs for the enlargement pass (defaults = the paper's §4.2)."""

    max_ops: int = 16
    max_faults: int = 2
    enabled: bool = True
    #: condition 4: refuse to merge across loop back edges
    respect_loops: bool = True
    #: condition 5: refuse to enlarge library functions
    respect_libraries: bool = True
    #: profile-guided duplication control (paper §6 future work): when
    #: set, :meth:`repro.core.toolchain.Toolchain.compile` profiles a
    #: training run of the conventional image, and traps whose branch
    #: bias is below this do not fork (unbiased branches duplicate code
    #: for little prediction benefit).
    min_bias: float | None = None


@dataclass
class FamilyResult:
    """Enlargement result for one function."""

    #: variant label -> Variant
    variants: dict[str, Variant]
    #: root label -> canonical variant label
    canonical: dict[str, str]
    #: root label -> all variant labels of the family
    families: dict[str, list[str]]


def enlarge_function(
    blocks: dict[str, PreBlock],
    entry: str,
    config: EnlargeConfig,
    is_library: bool = False,
    restricted: frozenset[str] | set[str] = frozenset(),
    profile=None,
) -> FamilyResult:
    """Run block enlargement over one function's pre-block graph.

    *restricted* roots (function entries and call continuations — the
    targets of call/return edges) grow single-variant families only:
    they may still absorb unconditional-jump successors, but never fork
    at a trap, because "mechanisms to support multiple successor
    candidates for such operations have not yet been developed" (paper
    §4.2 condition 3).

    With a :class:`repro.profile.BranchProfile` as *profile*, a trap
    whose branch bias is below ``config.min_bias`` does not fork either;
    a profile without ``min_bias``, or ``min_bias`` without a profile,
    raises :class:`CompileError`.
    """
    if (profile is None) != (config.min_bias is None):
        raise CompileError(
            "profile-guided enlargement takes both EnlargeConfig.min_bias "
            "and the training run's branch profile (Toolchain.compile "
            "collects it)"
        )
    grow = config.enabled and not (is_library and config.respect_libraries)
    back = _back_edges(blocks, entry) if (grow and config.respect_loops) else set()

    variants: dict[str, Variant] = {}
    canonical: dict[str, str] = {}
    families: dict[str, list[str]] = {}

    pending = [entry]
    seen_roots: set[str] = set()
    while pending:
        root = pending.pop()
        if root in seen_roots:
            continue
        seen_roots.add(root)
        family = (
            _grow_family(
                blocks, root, back, config, profile,
                allow_fork=root not in restricted,
            )
            if grow
            else [Variant(root, [blocks[root]], ())]
        )
        families[root] = [v.label for v in family]
        # Canonical = all-false dirs; _grow_family yields it first.
        canonical[root] = family[0].label
        for variant in family:
            variants[variant.label] = variant
            for target in variant.term.targets():
                if target not in seen_roots:
                    pending.append(target)

    _resolve_fault_targets(variants, canonical)
    _assign_nbits(variants, families)
    return FamilyResult(variants, canonical, families)


def _back_edges(blocks: dict[str, PreBlock], entry: str) -> set[tuple[str, str]]:
    def succs(label: str):
        return blocks[label].term.targets()

    return generic_back_edges(entry, succs)


def _grow_family(
    blocks: dict[str, PreBlock],
    root: str,
    back: set[tuple[str, str]],
    config: EnlargeConfig,
    profile,
    allow_fork: bool = True,
) -> list[Variant]:
    """All maximal variants rooted at *root*, canonical (all-false) first."""
    results: list[Variant] = []

    def extend(path: list[PreBlock], dirs: tuple[int, ...], count: int) -> None:
        last = path[-1]
        term = last.term
        if term.kind == "jmp":
            target = term.if_true
            if (
                (last.label, target) not in back
                and target in blocks
                and target != root  # a self-referencing family is a loop
                and all(b.label != target for b in path)
                and count - 1 + blocks[target].count <= config.max_ops
            ):
                extend(path + [blocks[target]], dirs, count - 1 + blocks[target].count)
                return
            results.append(Variant(root, list(path), dirs))
            return
        if term.kind == "trap" and allow_fork and len(dirs) < config.max_faults:
            if profile is not None:
                bias = profile.bias(last.label)
                if bias is None or bias < config.min_bias:
                    results.append(Variant(root, list(path), dirs))
                    return
            t, f = term.if_true, term.if_false
            expandable = (
                t in blocks
                and f in blocks
                and (last.label, t) not in back
                and (last.label, f) not in back
                and all(b.label != t and b.label != f for b in path)
                and t != f
                and count + blocks[t].count <= config.max_ops
                and count + blocks[f].count <= config.max_ops
            )
            if expandable:
                # False (fall-through) side first: canonical ordering.
                extend(path + [blocks[f]], dirs + (0,), count + blocks[f].count)
                extend(path + [blocks[t]], dirs + (1,), count + blocks[t].count)
                return
        results.append(Variant(root, list(path), dirs))

    start = blocks[root]
    extend([start], (), start.count)
    if not results:  # pragma: no cover - extend always appends
        raise CompileError(f"no variants generated for root {root}")
    return results


def _resolve_fault_targets(
    variants: dict[str, Variant], canonical: dict[str, str]
) -> None:
    """Point each fault op at the sibling variant with the complementary
    direction and the canonical completion after the fork."""
    # Group variant labels by (root, dirs) for prefix lookup.
    by_key: dict[tuple[str, tuple[int, ...]], Variant] = {
        (v.root, v.dirs): v for v in variants.values()
    }

    def sibling(root: str, dirs: tuple[int, ...], i: int) -> str:
        prefix = dirs[:i] + (1 - dirs[i],)
        # Canonical completion: extend with 0s until a variant exists.
        want = prefix
        while True:
            v = by_key.get((root, want))
            if v is not None:
                return v.label
            # Try extending; families are finite and closed under
            # complement, so a 0-extension must eventually exist.
            if len(want) > 8:
                raise CompileError(
                    f"no sibling variant for root {root} dirs {prefix}"
                )
            want = want + (0,)

    for variant in variants.values():
        variant.fault_targets = [
            sibling(variant.root, variant.dirs, i)
            for i in range(len(variant.dirs))
        ]


def _assign_nbits(
    variants: dict[str, Variant], families: dict[str, list[str]]
) -> None:
    """Set each block's history-bit count = ceil(log2(total successors)).

    Trap blocks have at least two successors (nbits >= 1). A jump block
    whose target family has multiple variants also needs predictor bits
    to select the variant; a single-variant target needs none (nbits 0,
    statically determined successor).
    """
    for variant in variants.values():
        term = variant.term
        if term.kind == "trap":
            t, f = term.if_true, term.if_false
            total = len(families.get(t, [t])) + len(families.get(f, [f]))
            variant.nbits = max(1, math.ceil(math.log2(max(2, total))))
        elif term.kind == "jmp":
            total = len(families.get(term.if_true, [term.if_true]))
            variant.nbits = math.ceil(math.log2(total)) if total > 1 else 0
        else:
            variant.nbits = 0
