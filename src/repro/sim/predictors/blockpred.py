"""The block-structured ISA's successor predictor (paper §4.3).

A Two-Level Adaptive predictor modified in the paper's three ways:

1. **BTB entries hold up to eight successors.** Each entry maps a 3-bit
   *successor signature* — (trap direction, first internal direction of
   the successor variant, second internal direction) — to the successor
   block's address. When a block is first encountered, its trap's two
   explicitly specified targets are stored; the remaining slots fill in
   as successors are actually encountered (our executors drive
   ``notify_actual`` for every committed successor, which subsumes the
   paper's "filled in due to fault mispredictions").
2. **PHT entries produce a 3-bit prediction.** Each entry holds a 2-bit
   counter for the trap direction plus two more for the fault (internal
   direction) bits of the to-be-fetched successor.
3. **Variable-length history insertion.** On update, the history register
   shifts in only ``nbits`` bits — the trap operation's stored
   ``ceil(log2(successor count))`` — so blocks with few successors don't
   waste history (the trap-direction bit first, then internal-direction
   bits as needed).

Like the conventional predictor, history is updated with actual outcomes
in program order (ideal repair), and BTB capacity is not modelled.
"""

from __future__ import annotations

from repro.isa.program import AtomicBlock, BlockProgram


def _pad_dirs(dirs: tuple[int, ...]) -> tuple[int, int]:
    d1 = dirs[0] if len(dirs) > 0 else 0
    d2 = dirs[1] if len(dirs) > 1 else 0
    return d1, d2


class _BTBEntry:
    __slots__ = ("slots", "nbits")

    def __init__(self, nbits: int):
        #: (trap_dir, d1, d2) -> successor block address; at most 8 keys.
        self.slots: dict[tuple[int, int, int], int] = {}
        self.nbits = nbits


class BlockPredictor:
    """Successor predictor for atomic blocks ending in a trap."""

    __slots__ = ("prog", "history_bits", "table_bits", "_hist", "_hist_mask",
                 "_index_mask", "pht", "btb", "predictions", "hits")

    def __init__(
        self,
        prog: BlockProgram,
        history_bits: int = 12,
        table_bits: int = 14,
    ):
        self.prog = prog
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._hist = 0
        self._hist_mask = (1 << history_bits) - 1
        self._index_mask = (1 << table_bits) - 1
        #: 2-bit counters per entry: [trap, f1|trap-true, f2|trap-true,
        #: f1|trap-false, f2|trap-false] — the fault-bit counters are kept
        #: per trap direction because the two families' internal branches
        #: are different static branches (see class docstring). All
        #: counters initialize weakly-taken (2), matching the conventional
        #: predictor: a cold entry then predicts the taken/true-direction
        #: variant, which is the loop-continue path (the enlargement pass's
        #: canonical variant follows fall-through edges, which for loop
        #: headers is the *exit* — without this bias, cold entries
        #: systematically predict loop exits).
        self.pht = [bytearray([2, 2, 2, 2, 2]) for _ in range(1 << table_bits)]
        self.btb: dict[int, _BTBEntry] = {}
        self.predictions = 0
        self.hits = 0

    # ------------------------------------------------------------------

    def _index(self, addr: int) -> int:
        return ((addr >> 2) ^ self._hist) & self._index_mask

    def _entry(self, block: AtomicBlock) -> _BTBEntry:
        entry = self.btb.get(block.addr)
        if entry is None:
            term = block.terminator
            entry = _BTBEntry(term.nbits)
            # First encounter: store the explicitly specified targets
            # under their signatures (paper §4.3 modification 1). A jump
            # block has one explicit target (treated as direction 1).
            t_blk = self.prog.block_at(term.taddr)
            entry.slots[(1, *_pad_dirs(t_blk.path_dirs))] = t_blk.addr
            if term.target2 is not None:
                f_blk = self.prog.block_at(term.taddr2)
                entry.slots[(0, *_pad_dirs(f_blk.path_dirs))] = f_blk.addr
            self.btb[block.addr] = entry
        return entry

    # ------------------------------------------------------------------

    def predict(self, block: AtomicBlock) -> int | None:
        """Predicted successor address for *block*.

        Covers trap-terminated blocks (8-way) and jump-terminated blocks
        whose target family has multiple variants (direction fixed, only
        the internal-direction bits are predicted).
        """
        self.predictions += 1
        entry = self._entry(block)
        counters = self.pht[self._index(block.addr)]
        is_trap = block.terminator.target2 is not None
        sig = self._predicted_sig(counters, is_trap)
        target = entry.slots.get(sig)
        if target is not None:
            return target
        # No learned successor under this signature yet: fall back to the
        # explicit target for the predicted direction.
        term = block.terminator
        if is_trap and not sig[0]:
            return term.taddr2
        return term.taddr

    def predict_with_outcome(self, block: AtomicBlock, outcome: bool) -> int:
        """Re-predict the successor variant given the now-resolved trap
        direction (used for the redirect after a trap misprediction: the
        front end re-accesses the predictor with the corrected direction,
        so only the internal-direction bits remain speculative)."""
        entry = self._entry(block)
        counters = self.pht[self._index(block.addr)]
        base = 1 if outcome else 3
        sig = (int(outcome), int(counters[base] >= 2), int(counters[base + 1] >= 2))
        target = entry.slots.get(sig)
        if target is not None:
            return target
        term = block.terminator
        if term.target2 is not None and not outcome:
            return term.taddr2
        return term.taddr

    def notify_actual(
        self, block: AtomicBlock, outcome: bool, successor: AtomicBlock
    ) -> None:
        """Train with the committed successor of *block*."""
        entry = self._entry(block)
        is_trap = block.terminator.target2 is not None
        d1, d2 = _pad_dirs(successor.path_dirs)
        sig = (int(outcome), d1, d2)
        if entry.slots.get(sig) != successor.addr:
            if len(entry.slots) < 8 or sig in entry.slots:
                entry.slots[sig] = successor.addr

        index = self._index(block.addr)
        counters = self.pht[index]
        predicted_addr = entry.slots.get(self._predicted_sig(counters, is_trap))
        if predicted_addr == successor.addr:
            self.hits += 1
        # Train the trap counter (trap blocks only), then the fault
        # counters of the side the trap actually took. Direction bits are
        # zero-padded to match the signature encoding, and the padded
        # bits train too — a family with no second fork must pull its d2
        # counter to 0 so the signature resolves to a real variant.
        if is_trap:
            self._bump(counters, 0, outcome)
        base = 1 if outcome else 3
        self._bump(counters, base, bool(d1))
        self._bump(counters, base + 1, bool(d2))

        # Variable-length history update (modification 3): shift in only
        # the nbits needed to identify this block's successor. For traps
        # the trap-direction bit comes first; jump blocks insert only
        # internal-direction bits.
        actual_bits = (int(outcome), d1, d2) if is_trap else (d1, d2)
        nbits = max(1, min(3, entry.nbits))
        value = 0
        for bit in actual_bits[:nbits]:
            value = (value << 1) | bit
        self._hist = ((self._hist << nbits) | value) & self._hist_mask

    @staticmethod
    def _predicted_sig(counters, is_trap: bool) -> tuple[int, int, int]:
        t = int(counters[0] >= 2) if is_trap else 1
        base = 1 if t else 3
        return (t, int(counters[base] >= 2), int(counters[base + 1] >= 2))

    @staticmethod
    def _bump(counters, index: int, bit: bool) -> None:
        c = counters[index]
        if bit:
            if c < 3:
                counters[index] = c + 1
        elif c > 0:
            counters[index] = c - 1

    @property
    def accuracy(self) -> float:
        return self.hits / self.predictions if self.predictions else 0.0
