"""The paper's contribution: the SST core and its mechanisms.

Subcomponents map one-to-one onto the hardware structures the paper
describes:

* :mod:`repro.core.modes` — execution modes and speculation outcomes.
* :mod:`repro.core.checkpoint` — register checkpoints (the structure
  that replaces the ROB).
* :mod:`repro.core.deferred_queue` — the DQ holding the miss-dependent
  strand with captured operands (replaces a big issue window).
* :mod:`repro.core.store_buffer` — the speculative store buffer with
  seq-ordered forwarding (replaces a memory-disambiguation buffer).
* :mod:`repro.core.regstate` — NA bits and last-writer tags (replace
  register renaming).
* :mod:`repro.core.sst_core` — the two-strand pipeline itself.
"""

from repro.core.modes import ExecMode, FailCause, ScoutCause
from repro.core.checkpoint import Checkpoint, CheckpointFile
from repro.core.deferred_queue import DeferredQueue, DQEntry
from repro.core.store_buffer import StoreBuffer, SBEntry
from repro.core.regstate import SpeculativeRegisters
from repro.core.sst_core import SSTCore, SSTStats

__all__ = [
    "ExecMode",
    "FailCause",
    "ScoutCause",
    "Checkpoint",
    "CheckpointFile",
    "DeferredQueue",
    "DQEntry",
    "StoreBuffer",
    "SBEntry",
    "SpeculativeRegisters",
    "SSTCore",
    "SSTStats",
]
