"""Two-Level Adaptive branch prediction for the conventional ISA.

A gshare-style GAs scheme (Yeh & Patt [25] with global history and a
shared pattern-history table of 2-bit saturating counters): the PHT index
is the branch PC xor'd with the global branch-history register. History
is updated with the actual outcome at resolution (the executor drives the
predictor in program order, modelling ideal speculative-history repair —
see DESIGN.md §6).

The BTB and return-address stack are modelled as ideal for *both* ISAs:
the experiments isolate direction/successor prediction, which is where
the two ISAs differ.
"""

from __future__ import annotations


class GsharePredictor:
    """gshare direction predictor with 2-bit saturating counters."""

    __slots__ = ("history_bits", "table_bits", "_hist", "_hist_mask",
                 "_index_mask", "pht", "predictions", "hits")

    def __init__(self, history_bits: int = 12, table_bits: int = 14):
        if history_bits > table_bits:
            raise ValueError("history must not exceed table index width")
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._hist = 0
        self._hist_mask = (1 << history_bits) - 1
        self._index_mask = (1 << table_bits) - 1
        # Weakly taken: most loop branches start biased taken.
        self.pht = bytearray([2] * (1 << table_bits))
        self.predictions = 0
        self.hits = 0

    def _index(self, addr: int) -> int:
        return ((addr >> 2) ^ self._hist) & self._index_mask

    def predict_branch(self, addr: int) -> bool:
        """Predicted direction for the branch at *addr*."""
        self.predictions += 1
        return self.pht[self._index(addr)] >= 2

    def update_branch(self, addr: int, taken: bool) -> None:
        """Train with the actual direction and shift global history."""
        index = self._index(addr)
        counter = self.pht[index]
        if taken:
            if self.pht[index] >= 2:
                self.hits += 1
            if counter < 3:
                self.pht[index] = counter + 1
        else:
            if self.pht[index] < 2:
                self.hits += 1
            if counter > 0:
                self.pht[index] = counter - 1
        self._hist = ((self._hist << 1) | int(taken)) & self._hist_mask

    @property
    def accuracy(self) -> float:
        return self.hits / self.predictions if self.predictions else 0.0


class StaticTakenPredictor:
    """Static always-taken baseline (for ablation benchmarks)."""

    __slots__ = ("predictions",)

    def __init__(self):
        self.predictions = 0

    def predict_branch(self, addr: int) -> bool:
        self.predictions += 1
        return True

    def update_branch(self, addr: int, taken: bool) -> None:
        pass
