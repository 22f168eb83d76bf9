"""The shared REPRO_* switch parser: one home for on/off semantics so
every switch reads the same vocabulary."""

from repro.config import env_flag
from repro.sim.cache import cache_enabled_by_env


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
    """The three on/off knobs agree value for value."""
    from repro.analysis.sanitizer import sanitize_enabled
    from repro.analysis.taint_tracker import taint_enabled

    gates = {"REPRO_SANITIZE": sanitize_enabled,
             "REPRO_TAINT": taint_enabled,
             "REPRO_CACHE": cache_enabled_by_env}
    for value, expected in (("yes", True), (" On ", True), ("no", False),
                            ("OFF", False)):
        for name, gate in gates.items():
            monkeypatch.setenv(name, value)
            assert gate() is expected, (name, value)

