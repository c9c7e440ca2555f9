"""A fleet of 20 monitored streams served by the explanation service.

This example exercises the serving layer at the scale the paper motivates:
twenty synthetic sensor streams — five distinct feeds, each mirrored by
four collectors — with injected drifts at different onsets.  All streams
flow through one :class:`repro.service.ExplanationService`, which detects
drifts per stream and explains every alarm against shared caches, so
mirrored feeds never pay for the same explanation twice.

Run with::

    python examples/service_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import drifting_series
from repro.service import ExplanationService, StreamConfig

UNIQUE_FEEDS = 5
REPLICAS = 4
LENGTH = 1600
WINDOW = 150
CHUNK = 200


def build_fleet() -> dict[str, np.ndarray]:
    """Twenty streams with drifts injected at feed-specific onsets."""
    streams: dict[str, np.ndarray] = {}
    for feed in range(UNIQUE_FEEDS):
        onset = 600 + 150 * feed
        values, _ = drifting_series(
            length=LENGTH,
            drift_start=onset,
            drift_magnitude=2.5 + 0.5 * feed,
            seed=feed,
        )
        for replica in range(REPLICAS):
            streams[f"feed{feed}-collector{replica}"] = values
    return streams


def main() -> None:
    streams = build_fleet()

    with ExplanationService(
        default_config=StreamConfig(window_size=WINDOW, alpha=0.05),
    ) as service:
        for stream_id in streams:
            service.register(stream_id)

        # Interleave chunks across the fleet, the way a live multiplexed
        # feed would arrive.
        for start in range(0, LENGTH, CHUNK):
            for stream_id, values in streams.items():
                service.submit(stream_id, values[start:start + CHUNK])

        report = service.report()

    print(f"streams monitored    : {len(report.streams)}")
    print(f"observations ingested: {report.observations}")
    print(f"alarms raised        : {report.alarms_raised}")
    print(f"alarms explained     : {report.explained}")
    print(f"throughput           : {report.throughput:,.0f} obs/s")
    print(f"cache hit rate       : {100 * report.cache_hit_rate:.1f}%\n")

    for stream in report.streams:
        for alarm in stream.alarms:
            explanation = alarm.explanation
            cached = " [shared]" if alarm.from_cache else ""
            print(f"[{stream.stream_id}] alarm at observation {alarm.position}{cached}")
            print(f"  D = {alarm.result.statistic:.3f} > "
                  f"threshold {alarm.result.threshold:.3f}; "
                  f"explanation: {explanation.size} of {alarm.result.m} points "
                  f"({100 * explanation.fraction_of_test_set:.1f}%), "
                  f"culprits in [{explanation.values.min():.2f}, "
                  f"{explanation.values.max():.2f}]")

    shared = sum(
        alarm.from_cache for stream in report.streams for alarm in stream.alarms
    )
    print(f"\n{shared} of {report.explained} explanations were served from the "
          f"shared cache.")


if __name__ == "__main__":
    main()
