"""Classical out-of-order core — the paper's "larger and higher-powered"
comparator.  The timing model is window-constrained dataflow: rename
removes false dependences by construction, and ROB/IQ/LSQ occupancy,
fetch/issue/commit bandwidth, branch redirects and memory
disambiguation bound how much of the true dataflow parallelism is
reachable."""

from repro.baselines.ooo.ooo_core import OoOCore

__all__ = ["OoOCore"]
