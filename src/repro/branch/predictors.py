"""Branch predictors and the composite branch unit.

Direction predictors implement ``predict(pc) -> bool`` and
``resolve(pc, taken) -> bool``, which returns the prediction the
predictor held before this outcome and then trains on it, from one
index computation.  ``resolve`` is each predictor's only training path:
both :meth:`BranchUnit.resolve_cond` and the deferred-branch path
(:meth:`BranchUnit.resolve_deferred_cond`) call it once.  The
:class:`BranchUnit` adds a branch target
buffer for indirect jumps and a return-address stack, and keeps the
statistics the cores report (the SST core additionally distinguishes
mispredictions of *deferred* branches, which cost a speculation
rollback rather than a refetch — that accounting lives in the core).

PCs are instruction indices, so hashing uses them directly.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.config import BranchPredictorConfig, PredictorKind
from repro.errors import ConfigError


class DirectionPredictor:
    """Interface for conditional-branch direction prediction."""

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def resolve(self, pc: int, taken: bool) -> bool:
        """Train on the outcome ``taken``; returns the prediction held
        before it (what :meth:`predict` would have said)."""
        raise NotImplementedError


class StaticPredictor(DirectionPredictor):
    def __init__(self, taken: bool):
        self.taken = taken

    def predict(self, pc: int) -> bool:
        return self.taken

    def resolve(self, pc: int, taken: bool) -> bool:
        return self.taken


class BimodalPredictor(DirectionPredictor):
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, table_bits: int):
        self.mask = (1 << table_bits) - 1
        self.table: List[int] = [2] * (1 << table_bits)  # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[pc & self.mask] >= 2

    def resolve(self, pc: int, taken: bool) -> bool:
        table = self.table
        index = pc & self.mask
        counter = table[index]
        if taken:
            if counter < 3:
                table[index] = counter + 1
        elif counter:
            table[index] = counter - 1
        return counter >= 2


class GSharePredictor(DirectionPredictor):
    """Global-history-XOR-PC indexed 2-bit counters."""

    def __init__(self, table_bits: int, history_bits: int):
        self.mask = (1 << table_bits) - 1
        self.history_mask = (1 << history_bits) - 1
        self.table: List[int] = [2] * (1 << table_bits)
        self.history = 0

    def predict(self, pc: int) -> bool:
        return self.table[(pc ^ self.history) & self.mask] >= 2

    def resolve(self, pc: int, taken: bool) -> bool:
        table = self.table
        history = self.history
        index = (pc ^ history) & self.mask
        counter = table[index]
        if taken:
            if counter < 3:
                table[index] = counter + 1
        elif counter:
            table[index] = counter - 1
        self.history = ((history << 1) | int(taken)) & self.history_mask
        return counter >= 2


def make_direction_predictor(config: BranchPredictorConfig) -> DirectionPredictor:
    if config.kind is PredictorKind.ALWAYS_TAKEN:
        return StaticPredictor(True)
    if config.kind is PredictorKind.ALWAYS_NOT_TAKEN:
        return StaticPredictor(False)
    if config.kind is PredictorKind.BIMODAL:
        return BimodalPredictor(config.table_bits)
    if config.kind is PredictorKind.GSHARE:
        return GSharePredictor(config.table_bits, config.history_bits)
    raise ConfigError(f"unknown predictor kind {config.kind}")


@dataclasses.dataclass
class BranchStats:
    cond_predictions: int = 0
    cond_mispredicts: int = 0
    indirect_predictions: int = 0
    indirect_mispredicts: int = 0
    ras_hits: int = 0
    ras_misses: int = 0

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_predictions:
            return 1.0
        return 1.0 - self.cond_mispredicts / self.cond_predictions


class BranchUnit:
    """Direction predictor + BTB + RAS, with shared statistics.

    Cores resolve branches functionally (they always know the real
    outcome) and use this unit to decide *whether the front end would
    have guessed right* — a wrong guess costs the configured redirect
    penalty, or a speculation rollback for NA-operand branches in the
    SST core.
    """

    def __init__(self, config: BranchPredictorConfig):
        self.config = config
        self.direction = make_direction_predictor(config)
        self.stats = BranchStats()
        self._btb: dict = {}
        self._btb_mask = config.btb_entries - 1
        self._ras: List[int] = []

    # -- conditional branches ------------------------------------------

    def predict_cond(self, pc: int) -> bool:
        return self.direction.predict(pc)

    def resolve_cond(self, pc: int, taken: bool) -> bool:
        """Predict + train in one step; returns True if mispredicted."""
        stats = self.stats
        stats.cond_predictions += 1
        if self.direction.resolve(pc, taken) != taken:
            stats.cond_mispredicts += 1
            return True
        return False

    def resolve_deferred_cond(self, pc: int, predicted: bool,
                              taken: bool) -> bool:
        """Resolve a branch whose prediction was recorded at defer time.

        The SST core predicts NA-operand branches with
        :meth:`predict_cond` when they defer and validates them here at
        replay; tables train on the real outcome either way.
        """
        self.direction.resolve(pc, taken)
        stats = self.stats
        stats.cond_predictions += 1
        if predicted != taken:
            stats.cond_mispredicts += 1
            return True
        return False

    # -- indirect jumps -------------------------------------------------

    def predict_indirect(self, pc: int, is_return: bool = False):
        """Front-end guess for an indirect target (None = no guess).

        A return prediction consumes the RAS top, mirroring the
        hardware: a later rollback does not restore it.
        """
        if is_return and self._ras:
            return self._ras.pop()
        return self._btb.get(pc & self._btb_mask)

    def resolve_deferred_indirect(self, pc: int, predicted, target: int,
                                  is_return: bool = False) -> bool:
        """Validate a deferred indirect jump against its recorded guess."""
        self.stats.indirect_predictions += 1
        self._btb[pc & self._btb_mask] = target
        if predicted != target:
            self.stats.indirect_mispredicts += 1
            if is_return:
                self.stats.ras_misses += 1
            return True
        if is_return:
            self.stats.ras_hits += 1
        return False

    def resolve_indirect(self, pc: int, target: int,
                         is_return: bool = False) -> bool:
        """Predict an indirect target; returns True if mispredicted."""
        self.stats.indirect_predictions += 1
        if is_return and self._ras:
            predicted = self._ras.pop()
            if predicted == target:
                self.stats.ras_hits += 1
                return False
            self.stats.ras_misses += 1
            self.stats.indirect_mispredicts += 1
            return True
        predicted = self._btb.get(pc & self._btb_mask)
        self._btb[pc & self._btb_mask] = target
        if predicted != target:
            self.stats.indirect_mispredicts += 1
            return True
        return False

    # -- return-address stack --------------------------------------------

    def push_return(self, return_pc: int) -> None:
        self._ras.append(return_pc)
        if len(self._ras) > self.config.ras_entries:
            self._ras.pop(0)

    @property
    def mispredict_penalty(self) -> int:
        return self.config.mispredict_penalty
