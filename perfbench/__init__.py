"""The repository benchmark: four workloads over the SPERR reproduction.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
