"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(the file name says which).  The workloads use
``ExperimentConfig.smoke()`` — a scaled-down version of the paper's setup —
so a full ``pytest benchmarks/ --benchmark-only`` pass finishes on a laptop
while preserving the qualitative shape of every result.  Rendered tables are
written to ``benchmarks/results/*.txt`` and echoed to stdout so they can be
compared row-by-row with the paper.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.evaluation import run_methods_on_cases
from repro.experiments.methods import build_methods
from repro.experiments.workloads import build_failed_test_cases

RESULTS_DIR = Path(__file__).parent / "results"

#: Schema tag stamped into every ``BENCH_*.json`` result envelope.
BENCH_SCHEMA = "repro-bench/1"


def save_result(name: str, content: str) -> None:
    """Persist a rendered table under benchmarks/results and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    print(f"\n{content}\n[saved to {path}]")


def bench_envelope(name: str, payload: dict) -> dict:
    """Wrap one benchmark's payload in the versioned result envelope.

    Adds ``schema`` (so a consumer can detect format drift), ``benchmark``
    (which script produced it) and ``generated_at`` (UTC wall clock — the
    one question an aging results directory cannot otherwise answer).
    The payload's own keys stay at the top level, so existing consumers
    keep reading the fields they already know.
    """
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": name,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **payload,
    }


def save_bench_json(name: str, payload: dict, path: Union[str, Path]) -> Path:
    """Write an enveloped ``BENCH_*.json`` result file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bench_envelope(name, payload), indent=2) + "\n")
    return path


def validate_bench_envelope(payload: object, name: Optional[str] = None) -> list:
    """Problems with a ``BENCH_*.json`` envelope (empty list = valid)."""
    problems: list = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected dict"]
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        problems.append("benchmark name missing")
    elif name is not None and benchmark != name:
        problems.append(f"benchmark is {benchmark!r}, expected {name!r}")
    stamp = payload.get("generated_at")
    try:
        datetime.fromisoformat(stamp)
    except (TypeError, ValueError):
        problems.append(f"generated_at {stamp!r} is not an ISO-8601 timestamp")
    return problems


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The reduced-scale configuration used by every benchmark."""
    return ExperimentConfig.smoke()


@pytest.fixture(scope="session")
def failed_cases(config):
    """Failed KS tests sampled from the six NAB-like dataset families."""
    return build_failed_test_cases(config)


@pytest.fixture(scope="session")
def evaluation_records(config, failed_cases):
    """Explanations of every method on every sampled failed test.

    Shared by the conciseness (Figure 2), contrastivity (Table 2) and
    effectiveness (Figure 3) benchmarks so the methods run only once.
    """
    methods = build_methods(config)
    return run_methods_on_cases(failed_cases, methods)
