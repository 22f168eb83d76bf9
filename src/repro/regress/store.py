"""The on-disk baseline store: ``benchmarks/baselines/``.

One JSON record per semantic ID (atomic-rename writes, like the result
cache) and :meth:`BaselineStore.capture`.  The store is the *only*
writer of record files, and it writes each one in a single canonical
layout (:func:`repro.regress.semid.dump_stable`), so a record file is a
pure function of the record.  Every record is checked where it is read:
:meth:`BaselineStore.load` rejects a file that is not JSON, fails the
schema, or stores a ``semid`` other than its addressing filename, so a
renamed or copied record can never serve the wrong scenario.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import List, Optional

from repro.regress import semid as semid_mod
from repro.regress.records import BaselineRecord, BaselineSchemaError


def default_baseline_dir() -> pathlib.Path:
    """The checkout's ``benchmarks/baselines/``, else ``./baselines``."""
    from repro.experiments.results import repo_root

    root = repo_root()
    if root is not None:
        return root / "benchmarks" / "baselines"
    return pathlib.Path.cwd() / "baselines"


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
                f"renamed or copied; `repro baseline capture` "
                f"rewrites it"
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
        """Every readable record; :meth:`load` raises on the others."""
        readable = []
        for semid in self.semids():
            try:
                readable.append(self.load(semid))
            except BaselineSchemaError:
                continue
        return readable
