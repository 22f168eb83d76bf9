#!/usr/bin/env python3
"""Check that a change to the baseline corpus moved only keys.

A change that renames or deletes a configuration field re-keys every
point (``result_key`` hashes every config field but the display
``name``) and every multicore run (``multicore_key`` hashes the
hierarchy), so ``repro baseline capture`` writes every point and
multicore record under a new semantic ID.  A change to what a key
digests can also merge keys: when ``result_key`` stopped hashing the
display name, the labels two sweeps gave one machine became one key.
This script proves that such a change is a re-key and nothing else.
It takes four directories:

* ``OLD_DOCS`` and ``NEW_DOCS``: the result documents (``*.json``) of
  one ``REPRO_CACHE=0 repro experiments run --all --smoke`` on each
  side;
* ``OLD_RECORDS`` and ``NEW_RECORDS``: the baseline records of each
  side, the new ones captured into an empty directory.

It checks that:

* the two sides hold the same documents, and every document field other
  than ``points`` and ``wall_seconds`` is equal;
* points pair by document and position, and every point field other
  than ``key`` and ``wall_seconds`` is equal;
* the old-to-new key map those pairs give maps each old key to one new
  key, and is one-to-one except for name-only merges: old keys that map
  to one new key must address records that are equal but for their
  semid and their scenario's labels (``machine``, the display name, and
  ``core``, derived from the config the key hashes), so their kind,
  program, budget and behaviour are equal;
* every old point and multicore record has a new partner, the record
  addressed by its mapped key, with equal ``kind``, ``behavior``,
  schemas and scenario but for its labels (the documents still compare
  every point's ``machine``);
* every experiment record keeps its semantic ID and differs at most in
  ``behavior.points_signature``, which hashes the point keys;
* neither side has a record the pairing leaves over.

It prints the counts and exits 1 on any difference.  Standard library
only, so it runs against any two checkouts::

    python3 benchmarks/rekey_pairs.py OLD_DOCS NEW_DOCS OLD_RECORDS NEW_RECORDS
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

Json = Dict[str, Any]

# The most differences printed before the counts.
MAX_SHOWN = 20

# Scenario fields that label a record rather than describe its inputs:
# ``machine`` is a display name, and ``core`` is derived from the config
# that the semid already hashes.
LABELS = ("machine", "core")


def load_dir(directory: pathlib.Path) -> Dict[str, Json]:
    """Every ``*.json`` file of ``directory``, by file name."""
    if not directory.is_dir():
        raise SystemExit(f"error: {directory} is not a directory")
    return {path.name: json.loads(path.read_text())
            for path in sorted(directory.glob("*.json"))}


def without(mapping: Json, *names: str) -> Json:
    return {name: value for name, value in mapping.items()
            if name not in names}


def unlabelled(record: Json) -> Json:
    """``record`` without its semid and its scenario's labels: what two
    records of one simulation have in common."""
    return {**without(record, "semid"),
            "scenario": without(record.get("scenario", {}), *LABELS)}


def pair_documents(old: Dict[str, Json], new: Dict[str, Json],
                   problems: List[str]) -> Tuple[Dict[str, str], int]:
    """The old-to-new key map and the number of paired points."""
    for name in sorted(old.keys() ^ new.keys()):
        side = "old" if name in old else "new"
        problems.append(f"document {name} exists only on the {side} side")
    key_map: Dict[str, str] = {}
    paired = 0
    for name in sorted(old.keys() & new.keys()):
        before, after = old[name], new[name]
        if without(before, "points", "wall_seconds") != without(
                after, "points", "wall_seconds"):
            problems.append(f"document {name} differs outside its points")
        old_points = before.get("points", [])
        new_points = after.get("points", [])
        if len(old_points) != len(new_points):
            problems.append(f"document {name} has {len(old_points)} points "
                            f"before and {len(new_points)} after")
        for index, (was, now) in enumerate(zip(old_points, new_points)):
            paired += 1
            if without(was, "key", "wall_seconds") != without(
                    now, "key", "wall_seconds"):
                problems.append(f"document {name} point {index} "
                                f"({was.get('machine')}/{was.get('program')})"
                                " differs outside its key")
            mapped = key_map.setdefault(was["key"], now["key"])
            if mapped != now["key"]:
                problems.append(f"old key {was['key']} maps to both "
                                f"{mapped} and {now['key']}")
    return key_map, paired


def check_merges(key_map: Dict[str, str], old: Dict[str, Json],
                 problems: List[str]) -> Tuple[int, int]:
    """Allow several old keys onto one new key only as a name-only
    merge; returns (old keys merged away, new keys they merged into)."""
    sources: Dict[str, List[str]] = {}
    for old_key, new_key in sorted(key_map.items()):
        sources.setdefault(new_key, []).append(old_key)
    merged = into = 0
    for new_key, old_keys in sorted(sources.items()):
        if len(old_keys) < 2:
            continue
        first = old_keys[0]
        for other in old_keys[1:]:
            if (first not in old or other not in old
                    or unlabelled(old[first]) != unlabelled(old[other])):
                problems.append(f"old keys {first} and {other} both map to "
                                f"new key {new_key}, and their records "
                                "differ in more than labels")
                break
        else:
            merged += len(old_keys) - 1
            into += 1
    return merged, into


def by_semid(records: Dict[str, Json], problems: List[str],
             side: str) -> Dict[str, Json]:
    indexed = {}
    for name, record in records.items():
        semid = record.get("semid")
        if name != f"{semid}.json":
            problems.append(f"{side} record {name} holds semid {semid}")
        indexed[semid] = record
    return indexed


def pair_records(old: Dict[str, Json], new: Dict[str, Json],
                 key_map: Dict[str, str],
                 problems: List[str]) -> Dict[str, int]:
    """Pair every old record with a new one; returns the counts."""
    counts = {"point": 0, "multicore": 0, "experiment": 0,
              "points_signature": 0}
    partners = set()
    for semid, record in sorted(old.items()):
        kind = record.get("kind")
        if kind == "experiment":
            partner = new.get(semid)
            if partner is None:
                problems.append(f"experiment record {semid} has no record "
                                "with the same semid")
                continue
            partners.add(semid)
            same = (without(record, "behavior")
                    == without(partner, "behavior")
                    and without(record["behavior"], "points_signature")
                    == without(partner["behavior"], "points_signature"))
            if not same:
                problems.append(f"experiment record {semid} differs outside "
                                "behavior.points_signature")
                continue
            counts["experiment"] += 1
            if (record["behavior"].get("points_signature")
                    != partner["behavior"].get("points_signature")):
                counts["points_signature"] += 1
            continue
        if kind not in ("point", "multicore"):
            problems.append(f"old record {semid} has unknown kind {kind!r}")
            continue
        new_semid: Optional[str] = key_map.get(semid)
        if new_semid is None:
            problems.append(f"{kind} record {semid} is no document's point")
            continue
        partner = new.get(new_semid)
        if partner is None:
            problems.append(f"{kind} record {semid} has no new record "
                            f"{new_semid}")
            continue
        partners.add(new_semid)
        if unlabelled(record) != unlabelled(partner):
            problems.append(f"{kind} record {semid} and its partner "
                            f"{new_semid} differ")
            continue
        counts[kind] += 1
    for semid in sorted(new.keys() - partners):
        problems.append(f"new record {semid} pairs with no old record")
    return counts


def check(old_docs: pathlib.Path, new_docs: pathlib.Path,
          old_records: pathlib.Path,
          new_records: pathlib.Path) -> Tuple[List[str], List[str]]:
    """``(problems, report lines)`` for the four directories."""
    problems: List[str] = []
    documents = load_dir(old_docs), load_dir(new_docs)
    key_map, points = pair_documents(*documents, problems)
    old = by_semid(load_dir(old_records), problems, "old")
    new = by_semid(load_dir(new_records), problems, "new")
    merged, into = check_merges(key_map, old, problems)
    counts = pair_records(old, new, key_map, problems)
    moved = sum(1 for before, after in key_map.items() if before != after)
    report = [
        f"documents: {len(documents[0])} old, {len(documents[1])} new; "
        f"{points} points paired by position",
        f"keys: {len(key_map)} old mapped onto "
        f"{len(set(key_map.values()))} new ({moved} moved)",
        f"name-only merges: {merged} ({merged + into} old keys onto "
        f"{into} new)",
        f"records: {len(old)} old, {len(new)} new",
        f"paired with equal behaviour: {counts['point']} point + "
        f"{counts['multicore']} multicore = "
        f"{counts['point'] + counts['multicore']}",
        f"experiment records with an unchanged semid: "
        f"{counts['experiment']}, of which {counts['points_signature']} "
        "have a changed points_signature",
    ]
    return problems, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that a recaptured baseline corpus moved only "
                    "keys.")
    for name in ("old_docs", "new_docs", "old_records", "new_records"):
        parser.add_argument(name, type=pathlib.Path)
    args = parser.parse_args(argv)
    problems, report = check(args.old_docs, args.new_docs,
                             args.old_records, args.new_records)
    for problem in problems[:MAX_SHOWN]:
        print(f"DIFF  {problem}")
    if len(problems) > MAX_SHOWN:
        print(f"DIFF  ... and {len(problems) - MAX_SHOWN} more")
    for line in report:
        print(line)
    print(f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
