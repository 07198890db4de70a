"""The repository's benchmark: measured forwards against a same-run
dense walk, and simulator throughput, with per-layer timings.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` here.
"""
