"""Canonical semantic IDs: the one hashing scheme for the whole repo.

Before this module existed, the simulation result cache canonicalized
configs ad hoc (``repro.sim.cache``) and
:class:`~repro.isa.program.Program` hashed its instruction stream with
hand-built line records; they agreed by convention only.  ``semid`` is
the single documented home of that convention; every identity-bearing
digest in the repository routes through here so "same inputs" means
the same thing to the cache, the result documents, and the baseline
firewall (:mod:`repro.regress.store`).

The scheme (stable — changing any rule silently re-keys every content
hash in the repo, so treat this docstring as a format spec):

1. **Canonicalization** (:func:`canonicalize`): every primitive is
   type-prefixed (``int:4`` and ``str:4`` cannot collide; ``bool``
   is checked before ``int`` because it subclasses it), enums carry
   class and value, dataclasses contribute their class name plus their
   ``init`` fields, dict keys are rendered to sorted canonical JSON,
   and lists/tuples canonicalize element-wise.  Anything outside that
   closed set raises :class:`SemanticIdError` — a new config type can
   never be silently hashed by ``repr``.
2. **Stable JSON** (:func:`canonical_json`): the canonical form is
   serialized with ``json.dumps(..., sort_keys=True)`` so key order
   can never perturb a digest.
3. **Digest** (:func:`semantic_id`): SHA-256 over the stable JSON,
   hex-encoded (64 chars).

Two lower-level primitives exist for call sites that predate the
unified scheme and whose digests are load-bearing (cache keys on disk,
committed golden baselines): :func:`digest_material` hashes an
*already JSON-ready* structure without re-canonicalizing it, and
:func:`line_digest` hashes newline-terminated text records.  Both are
bit-compatible with the historical ``repro.sim.cache`` /
``Program.fingerprint`` formats — routing through them changed zero
existing keys.

:func:`state_digest` is the semantic ID of one architectural state's
registers and a set of its memory words, rendered directly rather than
through :func:`canonicalize`, because a final memory can hold a million
words.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Iterable, Tuple

from repro.errors import ReproError

# How many hex chars of the full SHA-256 a short (display) id keeps.
SHORT_ID_LENGTH = 12


class SemanticIdError(ReproError):
    """A value outside the canonicalizable closed set of types."""


def canonicalize(value: Any) -> Any:
    """A JSON-stable, type-prefixed canonical form of ``value``.

    Primitives carry their type name so cross-type collisions are
    impossible; dataclasses and dicts canonicalize recursively with
    sorted keys.  The output feeds ``json.dumps(..., sort_keys=True)``.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        return f"str:{value}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__name__}:{value.value}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        rendered = {
            field.name: canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.init  # derived (init=False) fields restate init ones
        }
        rendered["__type__"] = type(value).__name__
        return rendered
    if isinstance(value, dict):
        return {
            json.dumps(canonicalize(key), sort_keys=True):
                canonicalize(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    raise SemanticIdError(
        f"cannot canonicalize {type(value).__name__} for a semantic id"
    )


def canonical_json(value: Any) -> str:
    """The stable JSON rendering of ``value``'s canonical form."""
    return json.dumps(canonicalize(value), sort_keys=True)


def semantic_id(value: Any) -> str:
    """The SHA-256 semantic id of ``value`` (64 hex chars).

    This is the identity primitive for *new* record kinds (baseline
    behavior records, experiment scenarios).  Pre-existing key formats
    with digests already on disk use :func:`digest_material` /
    :func:`line_digest` instead, which skip re-canonicalization to
    stay bit-compatible.
    """
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def digest_material(material: Any) -> str:
    """SHA-256 over ``json.dumps(material, sort_keys=True)``.

    ``material`` must already be JSON-ready (typically assembled from
    :func:`canonicalize` fragments plus raw schema ints/fingerprint
    strings).  This is the historical result-cache key format; it is
    kept distinct from :func:`semantic_id` so every cache key minted
    before this module existed still addresses the same entry.
    """
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()


def line_digest(lines: Iterable[str]) -> str:
    """SHA-256 over newline-terminated text records.

    The historical :meth:`Program.fingerprint
    <repro.isa.program.Program.fingerprint>` format: each record is
    hashed as ``f"{line}\\n"`` in order.  Callers are responsible for
    making records unambiguous (type-tag prefixes like ``i:`` / ``d:``
    and field separators), exactly as before.  The records are joined
    and hashed in one update: a program's data image alone is up to
    64k records.
    """
    return hashlib.sha256("\n".join([*lines, ""]).encode()).hexdigest()


def state_digest(regs: Iterable[int],
                 words: Iterable[Tuple[int, int]]) -> str:
    """The semantic ID of registers and memory words, the words as
    ``(address, value)`` pairs in any order, all ints.

    Equal byte for byte to ``semantic_id({"regs": list(regs), "memory":
    sorted(words)})``: this writes out the same canonical JSON (sorted
    keys, json's default separators) without the generic walk, which is
    about five times slower over a large memory.  The caller chooses
    the words: :meth:`ArchState.digest
    <repro.isa.interpreter.ArchState.digest>` hands only the words a run
    changed or added relative to its program's data image, so the
    result cache, the baseline firewall's ``state_hash`` and golden
    verification of a cached result cover those words and the
    registers, and never render the untouched image.
    """
    memory = ", ".join([f'["int:{addr}", "int:{value}"]'
                        for addr, value in sorted(words)])
    registers = ", ".join([f'"int:{value}"' for value in regs])
    text = (f'{{"\\"str:memory\\"": [{memory}], '
            f'"\\"str:regs\\"": [{registers}]}}')
    return hashlib.sha256(text.encode()).hexdigest()


def short_id(semid: str) -> str:
    """The display prefix of a full semantic id."""
    return semid[:SHORT_ID_LENGTH]


def dump_stable(value: Any, indent: int = 2) -> str:
    """Pretty, key-sorted JSON text with a trailing newline.

    The one rendering used for every machine-readable artifact the repo
    writes (result documents, perf snapshots, baseline records), so
    artifact diffs are always key-order stable.
    """
    return json.dumps(value, indent=indent, sort_keys=True) + "\n"
