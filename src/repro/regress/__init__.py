"""``repro.regress`` — the behavioral baseline firewall.

Capture/replay regression checks for simulation behavior: every
simulation point, multicore run, and experiment document can be
captured as a schema-versioned *baseline record* keyed by its semantic
ID, then re-verified on every later run of the same inputs.  An
intentional behavior change is recaptured and the rewritten records
are committed with it (git history is the audit log); any other
divergence is a red build.

Not to be confused with :mod:`repro.baselines`, which holds the
**reference core models** (in-order and out-of-order pipelines used as
comparison points in the paper's evaluation).  ``repro.regress`` is
about *baseline behavior records* — expected-output snapshots — not
processor baselines.

Layout (mirroring the capture → replay → diff pipeline):

* :mod:`repro.regress.semid` — the canonical SHA-256 semantic-ID
  scheme shared by the result cache, result documents, and this
  firewall (import-light; safe from anywhere).
* :mod:`repro.regress.records` — the baseline record schema.
* :mod:`repro.regress.store` — the on-disk record store
  (``benchmarks/baselines/``), which checks each record as it reads
  it.
* :mod:`repro.regress.firewall` — behavior extraction and the
  capture/verify engine that ``BenchEnv`` and ``ExperimentEngine``
  feed when ``repro baseline capture|verify`` hands them a firewall.

The package itself imports nothing; importers name the submodule.
:mod:`repro.isa.program` imports ``repro.regress.semid`` at interpreter
startup, so an eager import here of the firewall, which pulls in the
whole simulation stack, would be circular.
"""
