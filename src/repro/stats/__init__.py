"""Statistics utilities: counters, histograms, and plain-text report
tables shared by the runner, benches and examples."""

from repro.stats.histogram import Histogram
from repro.stats.report import Table, geomean

__all__ = ["Histogram", "Table", "geomean"]
