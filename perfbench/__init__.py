"""End-to-end and per-layer benchmark of the BSI metric platform.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root;
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""
