"""The on-disk baseline store: ``benchmarks/baselines/``.

One JSON record per semantic ID (atomic-rename writes, like the result
cache), :meth:`BaselineStore.capture`, and the integrity scans
(`fsck`, cache cross-check).  The store is the *only* writer of record
files, and it writes each one in a single canonical layout
(:func:`repro.regress.semid.dump_stable`), so a record file is a pure
function of the record.  A loaded record's ``semid`` must match its
addressing filename: a renamed or copied record can never serve the
wrong scenario.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, List, Optional

from repro.regress import semid as semid_mod
from repro.regress.records import BaselineRecord, BaselineSchemaError

ENV_DIR = "REPRO_BASELINE_DIR"


def default_baseline_dir() -> pathlib.Path:
    """``REPRO_BASELINE_DIR``, else the checkout's
    ``benchmarks/baselines/``, else ``./baselines``."""
    override = os.environ.get(ENV_DIR, "").strip()
    if override:
        return pathlib.Path(override)
    from repro.experiments.results import repo_root

    root = repo_root()
    if root is not None:
        return root / "benchmarks" / "baselines"
    return pathlib.Path.cwd() / "baselines"


@dataclasses.dataclass
class BaselineFsckReport:
    """What one :meth:`BaselineStore.fsck` scan found."""

    scanned: int = 0
    ok: int = 0
    semid_mismatch: int = 0  # stored "semid" != the addressing filename
    invalid: int = 0         # unparseable JSON or schema violations
    bad_files: List[str] = dataclasses.field(default_factory=list)

    @property
    def problems(self) -> int:
        return self.semid_mismatch + self.invalid

    def summary(self) -> str:
        return (
            f"{self.scanned} baseline records scanned: {self.ok} ok, "
            f"{self.semid_mismatch} semid-mismatched, "
            f"{self.invalid} invalid"
        )


@dataclasses.dataclass
class CrossCheckReport:
    """Baseline records cross-checked against live cache entries.

    For every *point* or *multicore* record whose semantic ID addresses
    an entry in the result cache, the cached :class:`CoreResult` or
    :class:`MulticoreResult` is decoded and its behavior recomputed —
    the baseline and the cache claim to describe the same simulation,
    so any disagreement means one of them is corrupt or stale
    (``mismatched``).  Records with no cache entry are merely
    ``uncached`` (the cache is disposable; baselines are not).
    """

    records: int = 0
    checked: int = 0       # records with a live cache entry, compared
    matched: int = 0
    mismatched: int = 0
    uncached: int = 0      # no cache entry for the record's semid
    unverifiable: int = 0  # experiment records (no cached result)
    mismatches: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list
    )

    @property
    def problems(self) -> int:
        return self.mismatched

    def summary(self) -> str:
        return (
            f"{self.records} baseline records vs cache: "
            f"{self.matched} matched, {self.mismatched} MISMATCHED, "
            f"{self.uncached} uncached, "
            f"{self.unverifiable} not cache-addressed"
        )


class BaselineStore:
    """One directory of ``<sha256>.json`` baseline records."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(
            root if root is not None else default_baseline_dir()
        )

    # -- addressing ---------------------------------------------------

    def _path(self, semid: str) -> pathlib.Path:
        return self.root / f"{semid}.json"

    def _entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.glob("*.json")
            if path.is_file() and not path.name.startswith(".tmp-")
        )

    def __len__(self) -> int:
        return len(self._entries())

    def semids(self) -> List[str]:
        return [path.stem for path in self._entries()]

    # -- I/O ----------------------------------------------------------

    def load(self, semid: str) -> Optional[BaselineRecord]:
        """The record stored for ``semid``, or None when there is none.

        Raises :class:`BaselineSchemaError`, one line naming the file,
        when the file is not JSON, fails the schema, or stores another
        semid.
        """
        path = self._path(semid)
        try:
            record = BaselineRecord.from_doc(json.loads(path.read_text()))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, BaselineSchemaError) as exc:
            raise BaselineSchemaError(f"{path}: {exc}") from None
        if record.semid != semid:
            raise BaselineSchemaError(
                f"{path}: stores semid "
                f"{semid_mod.short_id(record.semid)}… — the record was "
                f"renamed or copied; run `repro cache fsck`"
            )
        return record

    def capture(self, record: BaselineRecord) -> str:
        """Write ``record`` unless its file already holds exactly the
        bytes it serializes to; returns ``captured`` (there was no
        file), ``unchanged`` (the file is left untouched) or
        ``updated`` (the file differed or was unreadable, and is
        rewritten)."""
        path = self._path(record.semid)
        text = semid_mod.dump_stable(record.to_doc()).encode()
        try:
            stored: Optional[bytes] = path.read_bytes()
        except FileNotFoundError:
            stored = None
        if stored == text:
            return "unchanged"
        self.root.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return "captured" if stored is None else "updated"

    def records(self) -> List[BaselineRecord]:
        """Every readable record; :meth:`fsck` reports the others."""
        readable = []
        for semid in self.semids():
            try:
                readable.append(self.load(semid))
            except BaselineSchemaError:
                continue
        return readable

    # -- integrity ----------------------------------------------------

    def fsck(self) -> BaselineFsckReport:
        """Scan every record file for schema and addressing problems.

        Unlike the result cache's fsck, nothing is auto-removed: the
        records are committed files, so repairs go through git
        (``repro baseline capture`` rewrites every record the corpus
        still produces).
        """
        report = BaselineFsckReport()
        for path in self._entries():
            report.scanned += 1
            try:
                record = BaselineRecord.from_doc(
                    json.loads(path.read_text()))
            except (OSError, ValueError, BaselineSchemaError):
                report.invalid += 1
                report.bad_files.append(path.name)
                continue
            if record.semid != path.stem:
                report.semid_mismatch += 1
                report.bad_files.append(path.name)
                continue
            report.ok += 1
        return report

    def cross_check(self, cache: Any) -> CrossCheckReport:
        """Cross-check records against live result-cache entries.

        ``cache`` is a :class:`repro.sim.cache.ResultCache`; imported
        structurally to keep this module import-light.
        """
        from repro.cmp.multicore import MulticoreResult
        from repro.regress.firewall import multicore_behavior, point_behavior

        report = CrossCheckReport()
        for record in self.records():
            report.records += 1
            if record.kind == "point":
                result, behavior = cache.load(record.semid), point_behavior
            elif record.kind == "multicore":
                result = cache.load(record.semid, MulticoreResult)
                behavior = multicore_behavior
            else:
                report.unverifiable += 1
                continue
            if result is None:
                report.uncached += 1
                continue
            report.checked += 1
            observed = behavior(result)
            diff = record.diff_behavior(observed)
            if not diff:
                report.matched += 1
            else:
                report.mismatched += 1
                report.mismatches.append({
                    "semid": record.semid,
                    "scenario": record.scenario,
                    "fields": {
                        field: {"baseline": expected, "cache": got}
                        for field, (expected, got) in diff.items()
                    },
                })
        return report
