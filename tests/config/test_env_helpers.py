"""The shared REPRO_* knob parsers: one home for int/flag semantics so
ad-hoc ``int(os.environ.get(...))`` crashes cannot reappear."""

import pytest

from repro.config import env_flag, env_int
from repro.errors import ConfigError
from repro.sim.cache import cache_enabled_by_env


KNOB = "REPRO_BENCH_MAX_INSTRUCTIONS"


def test_env_int_unset_and_blank_use_default(monkeypatch):
    monkeypatch.delenv(KNOB, raising=False)
    assert env_int(KNOB, 3) == 3
    monkeypatch.setenv(KNOB, "   ")
    assert env_int(KNOB, 3) == 3


def test_env_int_parses_and_names_the_knob_on_garbage(monkeypatch):
    monkeypatch.setenv(KNOB, "8")
    assert env_int(KNOB, 1) == 8
    monkeypatch.setenv(KNOB, "-2")
    assert env_int(KNOB, 1) == -2
    monkeypatch.setenv(KNOB, "many")
    with pytest.raises(ConfigError,
                       match="REPRO_BENCH_MAX_INSTRUCTIONS.*'many'"):
        env_int(KNOB, 1)


def test_env_flag_kill_switch_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert env_flag("REPRO_CACHE", default=True)
    assert cache_enabled_by_env()
    for value in ("0", "off", "false", "no", " NO "):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert not env_flag("REPRO_CACHE", default=True), value
        assert not cache_enabled_by_env(), value
    # Blank and unrecognised values keep the default (on).
    for value in ("", "   ", "1", "yes", "maybe"):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert env_flag("REPRO_CACHE", default=True), value
        assert cache_enabled_by_env(), value


def test_env_flag_opt_in_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    assert not env_flag("REPRO_TAINT", default=False)
    for value in ("1", "on", "true", " TRUE "):
        monkeypatch.setenv("REPRO_TAINT", value)
        assert env_flag("REPRO_TAINT", default=False), value
    monkeypatch.setenv("REPRO_TAINT", "yes")
    assert env_flag("REPRO_TAINT", default=False)
    for value in ("", "0", "off", "maybe"):
        monkeypatch.setenv("REPRO_TAINT", value)
        assert not env_flag("REPRO_TAINT", default=False), value


def test_every_switch_shares_one_vocabulary(monkeypatch):
    """The four on/off knobs agree value for value: ``yes`` used to turn
    REPRO_SANITIZE and REPRO_TAINT on but left REPRO_BENCH_SMOKE off."""
    from repro.analysis.sanitizer import sanitize_enabled
    from repro.analysis.taint_tracker import taint_enabled
    from repro.experiments.bench_env import smoke_from_env

    gates = {"REPRO_SANITIZE": sanitize_enabled,
             "REPRO_TAINT": taint_enabled,
             "REPRO_BENCH_SMOKE": smoke_from_env,
             "REPRO_CACHE": cache_enabled_by_env}
    for value, expected in (("yes", True), (" On ", True), ("no", False),
                            ("OFF", False)):
        for name, gate in gates.items():
            monkeypatch.setenv(name, value)
            assert gate() is expected, (name, value)

