"""The output checks: a correct report passes, a tampered one fails."""

import copy

import pytest

from perfbench import checks, harness
from perfbench.workloads import WORKLOADS, inputs_digest

SEED = 3
SECONDS = 0.2


@pytest.fixture(scope="module")
def served():
    workload = WORKLOADS["nab-moche"]
    streams = workload.inputs(SEED, SECONDS)
    return workload, streams, harness.inline_reference(workload, streams)


def problems(served, report, **overrides):
    workload, streams, _ = served
    arguments = {"seed": SEED, "seconds": SECONDS, "inputs_digest": inputs_digest(streams)}
    arguments.update(overrides)
    return checks.check_report(workload.name, streams, report, **arguments)


def first_explained(report):
    for stream in report.streams:
        for alarm in stream.alarms:
            if alarm.explanation is not None:
                return stream, alarm
    raise AssertionError("the fixture raised no explained alarm")


def test_a_correct_report_passes(served):
    assert problems(served, served[2]) == []


def test_a_lost_observation_fails(served):
    report = copy.deepcopy(served[2])
    report.streams[0].observations -= 1
    assert any("observations accounted" in problem for problem in problems(served, report))


def test_an_unresolved_alarm_fails(served):
    report = copy.deepcopy(served[2])
    stream, _ = first_explained(report)
    stream.explained -= 1
    assert any("resolved" in problem for problem in problems(served, report))


def test_an_explanation_that_does_not_reverse_fails(served):
    report = copy.deepcopy(served[2])
    _, alarm = first_explained(report)
    alarm.explanation.ks_after = alarm.explanation.ks_before
    assert any("does not reverse" in problem for problem in problems(served, report))


def test_pinned_digests_catch_changed_inputs_and_outputs(served, monkeypatch):
    workload, streams, report = served
    monkeypatch.setattr(checks, "DEFAULT_SEED", SEED)
    monkeypatch.setattr(checks, "DEFAULT_SECONDS", SECONDS)
    monkeypatch.setitem(
        checks.PINNED,
        workload.name,
        {"inputs": inputs_digest(streams), "report": checks.report_digest(report)},
    )
    assert problems(served, report) == []
    assert any("inputs digest" in p for p in problems(served, report, inputs_digest="0" * 32))
    tampered = copy.deepcopy(report)
    _, alarm = first_explained(tampered)
    alarm.explanation.indices = alarm.explanation.indices[::-1].copy()
    found = problems(served, tampered)
    assert any("report digest" in problem for problem in found)
    assert checks.parity_problems(tampered, report)
    assert checks.parity_problems(copy.deepcopy(report), report) == []


def test_mirrored_streams_must_agree(served):
    workload, streams, _ = served
    mirrored = [
        (f"{stream_id}-r{replica}", values)
        for stream_id, values in streams[:3]
        for replica in range(2)
    ]
    report = harness.inline_reference(workload, mirrored)
    assert checks._replica_mismatches(report, 2) == []
    _, alarm = first_explained(report)
    alarm.position += 1
    assert checks._replica_mismatches(report, 2)
