"""perfbench: the end-to-end and per-layer benchmark of the explanation service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see :mod:`perfbench.run` and ``BENCHMARK.json``.
"""
