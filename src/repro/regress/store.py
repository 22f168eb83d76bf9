"""The on-disk baseline store: ``benchmarks/baselines/``.

One JSON record per semantic ID (atomic-rename writes, like the result
cache), plus the governance operations — capture, promote, retire —
and the integrity scans (`fsck`, cache cross-check).  The store is the
*only* writer of record files; it enforces two invariants on every
save:

* the record's ``semid`` matches the addressing filename (a renamed or
  copied record can never serve the wrong scenario), and
* the audit ``history`` of an existing record is append-only — a save
  that rewrites or drops entries raises :class:`BaselineAuditError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, List, Optional

from repro.errors import ReproLookupError
from repro.regress import semid as semid_mod
from repro.regress.records import (
    BaselineAuditError,
    BaselineRecord,
    BaselineSchemaError,
    STATUS_RETIRED,
)

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


class BaselineLookupError(ReproLookupError):
    """No stored baseline matches the requested semantic id."""


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

    For every *point* record whose semantic ID addresses an entry in
    the result cache, the cached :class:`CoreResult` is decoded and its
    behavior recomputed — the baseline and the cache claim to describe
    the same simulation, so any disagreement means one of them is
    corrupt or stale (``mismatched``).  Records with no cache entry are
    merely ``uncached`` (the cache is disposable; baselines are not).
    """

    records: int = 0
    checked: int = 0       # records with a live cache entry, compared
    matched: int = 0
    mismatched: int = 0
    uncached: int = 0      # no cache entry for the record's semid
    unverifiable: int = 0  # non-point kinds (no single cached result)
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
    """One directory of ``<sha256>.json`` governed baseline records."""

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

    def exists(self, semid: str) -> bool:
        return self._path(semid).is_file()

    def semids(self) -> List[str]:
        return [path.stem for path in self._entries()]

    def resolve(self, prefix: str) -> str:
        """Resolve a (possibly abbreviated) semantic id to a stored
        record's full id, git-style."""
        if self.exists(prefix):
            return prefix
        matches = [semid for semid in self.semids()
                   if semid.startswith(prefix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise BaselineLookupError(
                f"no baseline record matches {prefix!r} in {self.root}"
            )
        raise BaselineLookupError(
            f"ambiguous baseline id {prefix!r}: "
            f"{len(matches)} records match"
        )

    # -- I/O ----------------------------------------------------------

    def load(self, semid: str) -> Optional[BaselineRecord]:
        try:
            payload = json.loads(self._path(semid).read_text())
        except FileNotFoundError:
            return None
        record = BaselineRecord.from_doc(payload)
        if record.semid != semid:
            raise BaselineSchemaError(
                f"baseline file {semid}.json stores semid "
                f"{semid_mod.short_id(record.semid)}… — the record was "
                f"renamed or copied; run `repro cache fsck`"
            )
        return record

    def get(self, semid: str) -> BaselineRecord:
        record = self.load(semid)
        if record is None:
            raise BaselineLookupError(
                f"no baseline record {semid_mod.short_id(semid)}… "
                f"in {self.root}"
            )
        return record

    def save(self, record: BaselineRecord) -> pathlib.Path:
        """Persist ``record`` (atomic rename), enforcing the
        append-only audit invariant against any existing file."""
        doc = record.to_doc()  # validates
        existing = self.load(record.semid)
        if existing is not None:
            prior = existing.history
            if record.history[:len(prior)] != prior:
                raise BaselineAuditError(
                    f"refusing to save baseline "
                    f"{semid_mod.short_id(record.semid)}: the audit "
                    f"history is append-only and the new record "
                    f"rewrites or drops existing entries"
                )
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(record.semid)
        handle, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(semid_mod.dump_stable(doc))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def records(self, status: Optional[str] = None
                ) -> List[BaselineRecord]:
        loaded = []
        for path in self._entries():
            record = self.load(path.stem)
            if record is None:
                continue
            if status is None or record.status == status:
                loaded.append(record)
        return loaded

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    # -- governance operations ----------------------------------------

    def capture(self, record: BaselineRecord, note: str = "") -> str:
        """Record observed behavior; returns the action taken.

        * no stored record → save as ``candidate`` ("captured");
        * stored behavior identical → leave the file untouched
          ("unchanged"), clearing any pending recapture that the code
          has since reconverged away from ("reconverged");
        * stored behavior differs → park the observation as
          ``candidate_behavior`` pending an explicit promote
          ("recaptured" / "pending" when already parked);
        * retired records are never recaptured ("retired").
        """
        existing = self.load(record.semid)
        if existing is None:
            record.log("capture", note)
            self.save(record)
            return "captured"
        if existing.status == STATUS_RETIRED:
            return "retired"
        if existing.behavior == record.behavior:
            if existing.candidate_behavior is not None:
                existing.candidate_behavior = None
                existing.log("reconverged", note)
                self.save(existing)
                return "reconverged"
            return "unchanged"
        if existing.candidate_behavior == record.behavior:
            return "pending"
        changed = sorted(existing.diff_behavior(record.behavior))
        existing.candidate_behavior = record.behavior
        existing.log("recapture", note, behavior_fields_changed=changed)
        self.save(existing)
        return "recaptured"

    def promote(self, semid: str, note: str = "") -> str:
        record = self.get(semid)
        action = record.promote(note)
        self.save(record)
        return action

    def retire(self, semid: str, note: str = "") -> None:
        record = self.get(semid)
        record.retire(note)
        self.save(record)

    # -- integrity ----------------------------------------------------

    def fsck(self) -> BaselineFsckReport:
        """Scan every record file for schema and addressing problems.

        Unlike the result cache's fsck, nothing is auto-removed: a
        baseline is governed state, so repairs go through explicit
        ``retire`` or manual review.
        """
        report = BaselineFsckReport()
        for path in self._entries():
            report.scanned += 1
            try:
                payload = json.loads(path.read_text())
                record = BaselineRecord.from_doc(payload)
            except (OSError, json.JSONDecodeError, BaselineSchemaError):
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
        from repro.regress.firewall import point_behavior

        report = CrossCheckReport()
        for record in self.records():
            report.records += 1
            if record.kind != "point":
                report.unverifiable += 1
                continue
            result = cache.load(record.semid)
            if result is None:
                report.uncached += 1
                continue
            report.checked += 1
            observed = point_behavior(result)
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
