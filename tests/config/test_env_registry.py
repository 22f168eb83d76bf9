"""Hygiene: the env-knob registry stays complete.

Every ``REPRO_*`` environment variable the package reads must be
documented twice — in the registry comment block in
``src/repro/config.py`` and in the README's environment-knob table —
and neither list may advertise a knob the code no longer reads.  The
scan is over string literals, which also catches knobs read through
named constants.
"""

from __future__ import annotations

import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
CONFIG_PY = SRC_ROOT / "config.py"
README = REPO_ROOT / "README.md"

_KNOB = re.compile(r"\"(REPRO_[A-Z_]+)\"")
_WORD = re.compile(r"\bREPRO_[A-Z_]+\b")


def knobs_read_by_source() -> set:
    """Every REPRO_* string literal in the package source."""
    found = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        found.update(_KNOB.findall(path.read_text()))
    return found


def registry_block() -> str:
    """The documented knob registry comment in config.py."""
    text = CONFIG_PY.read_text()
    start = text.index("Runtime environment knobs")
    end = text.index("def env_flag(", start)
    return text[start:end]


def test_source_knobs_are_registered():
    documented = set(_WORD.findall(registry_block()))
    missing = knobs_read_by_source() - documented
    assert not missing, (
        f"env knobs read by src/ but missing from the config.py "
        f"registry comment: {sorted(missing)}"
    )


def test_registry_lists_no_dead_knobs():
    documented = set(_WORD.findall(registry_block()))
    dead = documented - knobs_read_by_source()
    assert not dead, (
        f"config.py registry documents knobs nothing reads: "
        f"{sorted(dead)}"
    )


def test_readme_table_matches_source():
    readme = README.read_text()
    start = readme.index("### Environment knobs")
    end = readme.index("###", start + 1)
    table = set(_WORD.findall(readme[start:end]))
    knobs = knobs_read_by_source()
    missing = knobs - table
    dead = table - knobs
    assert not missing, (
        f"env knobs read by src/ but missing from the README table: "
        f"{sorted(missing)}"
    )
    assert not dead, (
        f"README env table lists knobs nothing reads: {sorted(dead)}"
    )
