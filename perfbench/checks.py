"""Output checks: a run that fails one is reported as failed and yields no sample."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.service import ServiceReport

from perfbench.workloads import DEFAULT_SECONDS, DEFAULT_SEED

#: Digests of the generated inputs and of ``ServiceReport.canonical_dict()``
#: at the default seed and run length.  An edit to the input generators
#: (``repro.datasets.nab`` included) or to what the program computes from
#: them changes these; re-pin them only for a deliberate change.
_NAB = {"inputs": "942e6d2859b97620ae12b2eda0512d51", "report": "d60a4ecc4a4c06ad47db75c44d398af4"}
PINNED = {
    "nab-moche": _NAB,
    "nab-process": _NAB,
    "replica-incremental": {
        "inputs": "05ba9b8c3cc8791f0a4cec62b9386382",
        "report": "b840e3b1aacf30f01dee39efa391a46a",
    },
    "ks2d-pairs": {
        "inputs": "42d12fc33900a8eeb048488a832f5edf",
        "report": "b879cb3fdfc300ce91217309a0d1445f",
    },
}


def report_digest(report: ServiceReport) -> str:
    """Content digest of a report's executor-independent view."""
    text = json.dumps(report.canonical_dict(), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def check_report(
    workload: str,
    streams: list[tuple[str, np.ndarray]],
    report: ServiceReport,
    seed: int,
    seconds: float,
    inputs_digest: str,
    replicas: int = 1,
) -> list[str]:
    """Every way ``report`` disagrees with its inputs; empty when it is correct."""
    problems = []
    by_id = {stream.stream_id: stream for stream in report.streams}
    if sorted(by_id) != sorted(stream_id for stream_id, _ in streams):
        problems.append("the report's streams differ from the inputs'")
    for stream_id, values in streams:
        stream = by_id.get(stream_id)
        if stream is None:
            continue
        if stream.observations != len(values):
            problems.append(
                f"{stream_id}: {stream.observations} observations accounted of {len(values)}"
            )
        resolved = stream.explained + stream.errors + stream.dropped
        if resolved != stream.alarms_raised or len(stream.alarms) != stream.alarms_raised:
            problems.append(
                f"{stream_id}: {stream.alarms_raised} alarms raised but {resolved} resolved"
            )
        for alarm in stream.alarms:
            if alarm.explanation is not None and not alarm.explanation.reverses_test:
                problems.append(
                    f"{stream_id}: the explanation at {alarm.position} does not reverse its test"
                )
    if replicas > 1:
        problems.extend(_replica_mismatches(report, replicas))
    if seed == DEFAULT_SEED and seconds == DEFAULT_SECONDS:
        pinned = PINNED[workload]
        if inputs_digest != pinned["inputs"]:
            problems.append(f"inputs digest {inputs_digest} != pinned {pinned['inputs']}")
        digest = report_digest(report)
        if digest != pinned["report"]:
            problems.append(f"report digest {digest} != pinned {pinned['report']}")
    return problems


def _replica_mismatches(report: ServiceReport, replicas: int) -> list[str]:
    """Mirrored streams must raise and explain exactly the same alarms."""
    groups: dict[str, list[dict]] = {}
    for stream in report.canonical_dict()["streams"]:
        base = stream["stream_id"].rsplit("-r", 1)[0]
        view = {key: value for key, value in stream.items() if key != "stream_id"}
        view["alarms"] = [
            {key: value for key, value in alarm.items() if key != "stream_id"}
            for alarm in view["alarms"]
        ]
        groups.setdefault(base, []).append(view)
    return [
        f"replicas of {base} disagree"
        for base, views in groups.items()
        if len(views) != replicas or any(view != views[0] for view in views[1:])
    ]


def parity_problems(report: ServiceReport, reference: ServiceReport) -> list[str]:
    """``report`` must equal an inline replay of the same inputs, canonically."""
    if report.canonical_dict() == reference.canonical_dict():
        return []
    return [
        f"canonical report {report_digest(report)} != inline replay {report_digest(reference)}"
    ]
