import math

import pytest

from repro.stats.report import Table, geomean


def test_geomean_basics():
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean([3]) == pytest.approx(3.0)
    assert geomean([]) == 0.0


def test_geomean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_geomean_matches_log_identity():
    values = [1.1, 2.2, 3.3]
    expected = math.exp(sum(math.log(v) for v in values) / 3)
    assert geomean(values) == pytest.approx(expected)


def test_table_rendering():
    table = Table("Results", ["workload", "speedup"])
    table.add_row("oltp", 1.25)
    table.add_row("db", "2.00x")
    text = table.render()
    assert "Results" in text
    assert "workload" in text
    assert "1.250" in text
    assert "2.00x" in text
    lines = text.splitlines()
    assert len(lines) == 1 + 1 + 1 + 1 + 2 + 1  # title, rules, header, rows


def test_table_rejects_ragged_rows():
    table = Table("T", ["a", "b"])
    with pytest.raises(ValueError, match="2 columns"):
        table.add_row("only-one")


def test_empty_table_renders_header():
    table = Table("Empty", ["col"])
    assert "col" in table.render()


def test_geomean_sums_logs_exactly():
    """The log sum is exact (math.fsum): Python 3.12's compensated
    ``sum`` and the plain one before it would otherwise disagree."""
    values = [math.exp(2.0), 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52]
    logs = [math.log(value) for value in values]
    # Added left to right, the two tiny logs round away.
    assert logs[0] + logs[1] + logs[2] != math.fsum(logs)
    assert geomean(values) == math.exp(math.fsum(logs) / 3)
