"""The shared REPRO_* knob parsers: one home for int/flag semantics so
ad-hoc ``int(os.environ.get(...))`` crashes cannot reappear."""

import pytest

from repro.config import env_flag, env_int
from repro.errors import ConfigError
from repro.isa import blockcache


def test_env_int_unset_and_blank_use_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert env_int("REPRO_JOBS", 3) == 3
    monkeypatch.setenv("REPRO_JOBS", "   ")
    assert env_int("REPRO_JOBS", 3) == 3


def test_env_int_parses_and_names_the_knob_on_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "8")
    assert env_int("REPRO_JOBS", 1) == 8
    monkeypatch.setenv("REPRO_JOBS", "-2")
    assert env_int("REPRO_JOBS", 1) == -2
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ConfigError, match="REPRO_JOBS.*'many'"):
        env_int("REPRO_JOBS", 1)


def test_env_flag_kill_switch_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_BLOCK_DISPATCH", raising=False)
    assert env_flag("REPRO_BLOCK_DISPATCH", default=True)
    # Kill switches are off only at the literal "0".
    monkeypatch.setenv("REPRO_BLOCK_DISPATCH", "0")
    assert not env_flag("REPRO_BLOCK_DISPATCH", default=True)
    assert not blockcache.enabled()
    monkeypatch.setenv("REPRO_BLOCK_DISPATCH", "no")
    assert env_flag("REPRO_BLOCK_DISPATCH", default=True)
    assert blockcache.enabled()


def test_env_flag_opt_in_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    assert not env_flag("REPRO_TAINT", default=False)
    for value in ("1", "on", "true", " TRUE "):
        monkeypatch.setenv("REPRO_TAINT", value)
        assert env_flag("REPRO_TAINT", default=False), value
    monkeypatch.setenv("REPRO_TAINT", "yes")
    assert not env_flag("REPRO_TAINT", default=False)

