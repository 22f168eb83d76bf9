"""Content-addressed simulation result cache.

``Machine.run`` is deliberately side-effect-free: the outcome of one
simulation point is a pure function of (machine config, program,
instruction budget).  That makes every point cacheable under a stable
content hash — identical points re-requested by a different benchmark
module, a different sweep, or a later process simply reload their
:class:`~repro.baselines.core_base.CoreResult` from disk instead of
re-simulating up to tens of millions of instructions.

The key is a SHA-256 over a *canonical* rendering of the inputs:

* every primitive is type-prefixed (``int:4`` vs ``str:4`` cannot
  collide), dict keys are sorted, dataclasses contribute their class
  name plus sorted fields, enums contribute class and value;
* the program contributes its content fingerprint
  (:meth:`~repro.isa.program.Program.fingerprint`): the instruction
  stream and initial data image, not the object identity;
* :data:`SIM_SCHEMA_VERSION` is hashed into every key, so bumping it
  after any core-semantics change atomically invalidates all previously
  cached results (stale entries are simply never addressed again).

A multiprogrammed multicore run is cached the same way.  Its cores
share one hierarchy, so no single core's result is a function of its
own config, but the whole run is a pure function of its full input set
(shared hierarchy, core configs, programs, quantum, L1 sharing, budget).
:func:`multicore_key` digests that set, and the baseline firewall uses
it as the run's semantic ID.

Results are stored one JSON file per key under ``benchmarks/.simcache/``
(override with ``REPRO_CACHE_DIR``).  An entry holds a ``CoreResult``,
or a :class:`~repro.cmp.multicore.MulticoreResult` of them, and a
lookup serves only the kind its caller asked for.  Each ``CoreResult``
is kept whole except for the final memory image: its state is kept as
the registers, the PC and :meth:`ArchState.digest
<repro.isa.interpreter.ArchState.digest>` of the registers and the
memory words the run changed or added relative to its program's data
image, and loads back as a :class:`~repro.isa.interpreter.CachedState`,
whose ``memory`` raises.  No experiment reads a cached image; golden
verification and the baseline firewall compare the digest.  A result
whose hierarchy has a data TLB also keeps its
:class:`~repro.memory.tlb.TLBStats` (``extra["dtlb"]``), so E15 reads
its miss rates from cached points.  :data:`ENTRY_LAYOUT` (6) marks this
layout, so an entry in an older one (5, whose digest covers every
memory word; 4, with the in-order core's own perf counters and CPI
stack; 3, whose cache statistics carry the two prefetch counters; 2,
without TLB statistics; or none, with a memory image) loads as a miss
and is re-simulated and overwritten: such an entry can still decode (a
layout-5 or layout-4 entry does), so the field is what keeps its stale
meaning from being served.

Every entry is checked where it is read, by :meth:`ResultCache.load`;
there is no offline scan.  To reset the cache, delete its directory.

Serialization is a small tagged codec covering the closed set of types
a ``MulticoreResult`` or ``CoreResult`` transitively contains; anything
outside that set raises, so a new stats type cannot be silently
dropped from cached results.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import os
import pathlib
import warnings
from typing import Any, Dict, Optional, Type, Union

from repro.baselines.core_base import CoreResult
from repro.baselines.ooo.ooo_core import OoOStats
from repro.branch.predictors import BranchStats
from repro.cmp.multicore import Multicore, MulticoreResult
from repro.core.checkpoint import CheckpointStats
from repro.core.deferred_queue import DQStats
from repro.core.modes import ExecMode, FailCause, ScoutCause
from repro.core.sst_core import SSTStats
from repro.core.store_buffer import SBStats
from repro.config import env_flag
from repro.core.timing import PerfCounters
from repro.isa.interpreter import ArchState, CachedState, InterpreterStats
from repro.regress.semid import SemanticIdError, canonicalize, digest_material
from repro.isa.program import Program
from repro.memory.cache import CacheStats
from repro.memory.hierarchy import HierarchyStats
from repro.memory.tlb import TLBStats
from repro.stats.histogram import Histogram

# Bump on ANY change to core timing/functional semantics: the version
# is part of every cache key and every baseline semantic ID, so a bump
# orphans (never re-addresses) every previously cached result.
# 2: PerfCounters ride on every CoreResult's extra["perf"].
SIM_SCHEMA_VERSION = 2

# Bump on a change to what an entry stores.  It is stored beside the
# schema in every entry but hashed into no key, so a bump keeps every
# baseline record's semantic ID; entries in any other layout load as
# misses.  Entries without the field kept the final memory image.
# 2: the state is registers, PC and digest; no memory image.
# 3: a result whose hierarchy has a data TLB carries its TLBStats
#    (extra["dtlb"]).
# 4: CacheStats lost its two prefetch counters.
# 5: the in-order core is the SST core with no checkpoint: its perf
#    counters are SST normal mode's and its CPI stack has no "fetch"
#    key, and a checkpoint-free multicore core no longer carries
#    speculation statistics (sst, dq, sb, checkpoints) but a CPI stack.
# 6: the state digest covers the registers and only the memory words
#    that differ from the program's data image or are absent from it.
ENTRY_LAYOUT = 6

# Anchored to the repository root (not the process cwd) so a run from
# any working directory hits the same cache.
DEFAULT_CACHE_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / ".simcache"
)


class CacheCodecError(SemanticIdError):
    """A value outside the serializable closed set of result types.

    Subclasses :class:`~repro.regress.semid.SemanticIdError` so callers
    guarding a store/key computation can catch the shared parent: key
    canonicalization failures (raised by ``semid``) and codec failures
    (raised here) are the same "this value cannot be content-addressed"
    condition.
    """


# ---------------------------------------------------------------------------
# Canonical key material — the shared semantic-ID scheme.
#
# ``canonicalize`` lives in :mod:`repro.regress.semid` now (re-exported
# here for compatibility): the cache key, the result documents, and the
# baseline firewall all hash through one documented canonicalization,
# and the key format below is bit-compatible with every entry written
# before the unification.
# ---------------------------------------------------------------------------


def result_key(config: Any, program: Program, max_instructions: int) -> str:
    """The content hash addressing one simulation point.

    Doubles as the point's *semantic ID* in the baseline firewall
    (:mod:`repro.regress`): the cache and the firewall agree on input
    identity by construction.
    """
    return digest_material({
        "schema": SIM_SCHEMA_VERSION,
        "config": canonicalize(config),
        "program": program.fingerprint(),
        "max_instructions": max_instructions,
    })


def multicore_key(multicore: Multicore, max_instructions: int) -> str:
    """The content hash addressing one multiprogrammed run.

    It digests every input of :meth:`Multicore.run
    <repro.cmp.multicore.Multicore.run>`: the shared hierarchy, each
    core's config and program fingerprint, the quantum, L1 sharing,
    the budget and :data:`SIM_SCHEMA_VERSION`.  Like
    :func:`result_key`, it addresses the run's cache entry and is its
    semantic ID in the baseline firewall.
    """
    return digest_material({
        "kind": "multicore",
        "schema": SIM_SCHEMA_VERSION,
        "hierarchy": canonicalize(multicore.hierarchy_config),
        "cores": [canonicalize(config)
                  for config in multicore.core_configs],
        "programs": [program.fingerprint()
                     for program in multicore.programs],
        "quantum": multicore.quantum,
        "share_l1": multicore.share_l1,
        "max_instructions": max_instructions,
    })


# ---------------------------------------------------------------------------
# Result (de)serialization — a tagged codec over the closed type set.
# ---------------------------------------------------------------------------

_DATACLASSES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (
        MulticoreResult, CoreResult, SSTStats, BranchStats,
        HierarchyStats, CacheStats, TLBStats, DQStats, SBStats,
        CheckpointStats, OoOStats, InterpreterStats, PerfCounters,
    )
}

_ENUMS: Dict[str, Type] = {
    cls.__name__: cls for cls in (ExecMode, FailCause, ScoutCause)
}


def encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        name = type(value).__name__
        if name not in _ENUMS:
            raise CacheCodecError(f"unregistered enum {name}")
        return {"__enum__": name, "value": value.value}
    if isinstance(value, ArchState):
        # A result is stored once its run is over: its state is final,
        # so the digest is sealed for the firewall's read of it.
        return {"__state__": {"regs": list(value.regs), "pc": value.pc,
                              "digest": value.seal_digest()}}
    if isinstance(value, CachedState):
        return {"__state__": {"regs": list(value.regs), "pc": value.pc,
                              "digest": value.digest()}}
    if isinstance(value, Histogram):
        return {"__histogram__": value.name, "counts": list(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _DATACLASSES:
            raise CacheCodecError(f"unregistered dataclass {name}")
        return {
            "__dataclass__": name,
            "fields": {
                field.name: encode_value(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        # Pair list, so non-string keys (enums, ints) round-trip.
        return {"__table__": [[encode_value(key), encode_value(item)]
                              for key, item in value.items()]}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise CacheCodecError(
        f"cannot serialize {type(value).__name__} into the result cache"
    )


def decode_value(payload: Any) -> Any:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    if "__enum__" in payload:
        return _ENUMS[payload["__enum__"]](payload["value"])
    if "__state__" in payload:
        state = payload["__state__"]
        return CachedState(regs=state["regs"], pc=state["pc"],
                           stored_digest=state["digest"])
    if "__histogram__" in payload:
        histogram = Histogram(payload["__histogram__"])
        for value, weight in payload["counts"]:
            histogram.add(value, weight)
        return histogram
    if "__dataclass__" in payload:
        cls = _DATACLASSES[payload["__dataclass__"]]
        fields = {
            name: decode_value(item)
            for name, item in payload["fields"].items()
        }
        return cls(**fields)
    if "__table__" in payload:
        return {decode_value(key): decode_value(item)
                for key, item in payload["__table__"]}
    raise CacheCodecError(f"unrecognized cache payload: {payload!r}")


def _is_stale(payload: Dict[str, Any]) -> bool:
    """Whether an entry predates the current schema or entry layout."""
    return (payload.get("schema") != SIM_SCHEMA_VERSION
            or payload.get("layout") != ENTRY_LAYOUT)


# What an entry may hold.
_RESULT_KINDS = (CoreResult, MulticoreResult)


def _decode_result(payload: Dict[str, Any],
                   kind: Optional[Type] = None) -> Any:
    """The result an entry holds; raises :class:`CacheCodecError` when
    its payload is not a ``kind`` (either result kind when None) whose
    every :class:`CoreResult` has a cached state."""
    result = decode_value(payload["result"])
    if not isinstance(result, kind or _RESULT_KINDS):
        raise CacheCodecError(
            f"a cached {type(result).__name__} does not serve this lookup"
        )
    cores = (result.per_core if isinstance(result, MulticoreResult)
             else [result])
    for core in cores:
        if not (isinstance(core, CoreResult)
                and isinstance(core.state, CachedState)):
            raise CacheCodecError("cached result carries no cached state")
        core.state.point = f"{core.core_name} on {core.program_name!r}"
    return result


# ---------------------------------------------------------------------------
# The on-disk cache.
# ---------------------------------------------------------------------------

# A store writes its entry under ``.tmp-<pid>-<n>.json`` first: the
# counter is shared by every cache in the process and the pid tells
# processes apart, so two writers never open one temp name.
_TMP_SERIAL = itertools.count()
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


@dataclasses.dataclass
class ResultCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # corrupt / stale / mismatched files treated as misses


class ResultCache:
    """One directory of ``<sha256>.json`` cached simulation results.

    Concurrent writers (parallel experiments, independent processes) are
    safe: files are written to a temp name and atomically renamed, and
    any reader that finds a corrupt or stale file treats it as a miss.  A
    loaded entry must also carry the requested key in its ``"key"``
    field, so a renamed or copied cache file can never silently serve
    the wrong simulation's result.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(
            root if root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self.stats = ResultCacheStats()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def load(self, key: str, kind: Type = CoreResult) -> Optional[Any]:
        """The cached ``kind`` (a :class:`CoreResult` or a
        :class:`MulticoreResult`) for ``key``, or None (counts a miss).

        Every core's state is a :class:`CachedState`: registers, PC and
        digest.  An entry of the other kind is invalid, and a miss.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        try:
            if _is_stale(payload):
                raise CacheCodecError("schema version or layout mismatch")
            if payload.get("key") != key:
                raise CacheCodecError(
                    "stored key does not match the addressing filename"
                )
            result = _decode_result(payload, kind)
        except (CacheCodecError, KeyError, TypeError, ValueError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, key: str,
              result: Union[CoreResult, MulticoreResult]) -> None:
        """Persist ``result`` under ``key``: one exclusive create of a
        hidden temp name unique to this process, then an atomic rename.
        The directory is made only when that create finds it missing."""
        payload = {
            "schema": SIM_SCHEMA_VERSION,
            "layout": ENTRY_LAYOUT,
            "key": key,
            "result": encode_value(result),
        }
        text = json.dumps(payload)
        tmp_path = self.root / f".tmp-{os.getpid()}-{next(_TMP_SERIAL)}.json"
        try:
            handle = os.open(tmp_path, _CREATE_FLAGS, 0o644)
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = os.open(tmp_path, _CREATE_FLAGS, 0o644)
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(text)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def store_or_warn(self, key: str,
                      result: Union[CoreResult, MulticoreResult],
                      label: str) -> None:
        """:meth:`store`, except that a store that fails (full disk,
        unregistered stats type) warns and continues: the finished
        ``result`` stays with its caller, uncached."""
        try:
            self.store(key, result)
        except (SemanticIdError, OSError) as exc:
            warnings.warn(
                f"result cache store failed for {label} "
                f"({type(exc).__name__}: {exc}); result kept in memory, "
                f"continuing without caching this point",
                RuntimeWarning,
                stacklevel=3,
            )

    def invalidate(self, key: str) -> bool:
        """Quarantine (delete) the entry for ``key``; True if one
        existed.  Counted in ``stats.invalid``."""
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        self.stats.invalid += 1
        return True


def cache_enabled_by_env() -> bool:
    """``REPRO_CACHE`` gate: on unless switched off."""
    return env_flag("REPRO_CACHE", default=True)


def cache_from_env() -> Optional[ResultCache]:
    """A :class:`ResultCache` honoring ``REPRO_CACHE``/``REPRO_CACHE_DIR``,
    or None when caching is disabled."""
    return ResultCache() if cache_enabled_by_env() else None
