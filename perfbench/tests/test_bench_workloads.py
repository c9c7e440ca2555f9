"""A small-scale pass of every workload, through the same code as a full run."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS, inputs_digest

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SEED = 3
SECONDS = 0.2


def small(name):
    workload = WORKLOADS[name]
    if workload.replicas > 1:
        # Two mirrors still turn every other explanation into a cache hit.
        workload = dataclasses.replace(workload, replicas=2)
    return workload


def test_benchmark_json_names_every_workload():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.inputs(SEED, SECONDS)
    assert inputs_digest(first) == inputs_digest(workload.inputs(SEED, SECONDS))
    assert inputs_digest(first) != inputs_digest(workload.inputs(SEED + 1, SECONDS))
    assert len({stream_id for stream_id, _ in first}) == len(first)
    assert all(len(values) >= 4 * workload.window for _, values in first)


def test_pair_warm_up_windows_are_equal():
    workload = WORKLOADS["ks2d-pairs"]
    window = workload.window
    for _, points in workload.inputs(SEED, SECONDS):
        np.testing.assert_array_equal(points[:window], points[window : 2 * window])


def test_end_to_end_pass(tmp_path):
    outcome = harness.run(WORKLOADS["nab-moche"], SEED, SECONDS, False, tmp_path)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value in outcome.metrics.items()} == expected
    assert all(
        math.isfinite(value["value"]) and value["value"] > 0 for value in outcome.metrics.values()
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass(name, tmp_path):
    outcome = harness.run(small(name), SEED, SECONDS, True, tmp_path)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert {metric: value["unit"] for metric, value in outcome.metrics.items()} == expected
    path = tmp_path / "perfbench" / "out" / f"spans-{name}-seed{SEED}.json"
    spans = json.loads(path.read_text())
    recorded = {span[0] for thread in spans["threads"] for span in thread["spans"]}
    assert set(WORKLOADS[name].layers) <= recorded


def test_traced_run_fails_when_a_layer_records_nothing(tmp_path):
    workload = dataclasses.replace(
        WORKLOADS["nab-moche"], layers=WORKLOADS["nab-moche"].layers + ("multidim.explain",)
    )
    outcome = harness.run(workload, SEED, SECONDS, True, tmp_path)
    assert outcome.problems == [
        "layer span multidim.explain recorded nothing in the timed phase"
    ]
    assert outcome.result()["correct"] is False
