"""Experiment-platform substrate (the paper's §3 data model + §5 engines).

- :mod:`repro.platform.hashing` — deterministic 32-bit mixers for
  segmentation, bucketing and traffic splitting (§3.2–3.3).
- :mod:`repro.platform.genlog` — synthetic expose / metric / dimension
  log generators with the paper's distributional shape (§3.1, §3.5).
- :mod:`repro.platform.encode` — position encoding and normal→BSI
  conversion pipelines on Spark (§3.4).
- :mod:`repro.platform.preagg` — the stored pre-aggregate tree (Fig. 6).
- :mod:`repro.platform.adhoc` — in-process ad-hoc engine standing in
  for the ClickHouse cluster (§5.3).
- :mod:`repro.platform.storage` — storage-format accounting (§6.1).
"""
