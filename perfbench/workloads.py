"""The benchmark's seeded workloads: their inputs, stream configs and executors.

Every workload is replayed by one producer thread, round-robin over its
streams in fixed-size chunks, as fast as the service accepts them (a
closed loop, like ``repro serve`` on CSV input).  Inputs are generated
from ``--seed`` and sized from ``--seconds`` so that one run measures
about that long on a 2-vCPU machine; the service only ever sees arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets.nab import NAB_FAMILIES
from repro.service import ExplanationService, StreamConfig

DEFAULT_SEED = 7
DEFAULT_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the service configuration that serves it."""

    name: str
    why: str
    executor: str
    window: int
    chunk: int
    #: Observations per second of ``--seconds`` the inputs are sized for.
    obs_per_second: float
    detector: str = "windowed"
    backend: str = "ks1d"
    slide_on_alarm: bool = True
    #: Mirrored copies of every input series, under distinct stream ids.
    replicas: int = 1
    #: Span names the traced run must record in the timed phase.
    layers: tuple[str, ...] = ()
    #: ``(per-layer metric, relation, value)`` the workload was designed to
    #: show; the traced run reports whether each holds.
    design: tuple[tuple[str, str, float], ...] = ()

    def config(self) -> StreamConfig:
        return StreamConfig(
            window_size=self.window,
            detector=self.detector,
            backend=self.backend,
            slide_on_alarm=self.slide_on_alarm,
        )

    def service(self) -> ExplanationService:
        """A fresh service with metrics and tracing off (the defaults)."""
        return ExplanationService(executor=self.executor, shards=1, default_config=self.config())

    def inputs(self, seed: int, seconds: float) -> list[tuple[str, np.ndarray]]:
        """``(stream id, observations)`` pairs; the same seed gives the same arrays."""
        budget = seconds * self.obs_per_second
        if self.backend == "ks2d":
            return _pair_streams(seed, budget, self.window)
        series = _nab_series(seed, budget / self.replicas, min_length=4 * self.window)
        return [
            (f"{name}-r{replica}" if self.replicas > 1 else name, values)
            for name, values in series
            for replica in range(self.replicas)
        ]


_MOCHE_LAYERS = (
    "preference.build",
    "core.problem",
    "core.size_search",
    "core.construction",
    "core.verify",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="nab-moche",
            why="the paper's algorithm on its data shape: MOCHE does most of the work "
            "and no two windows share an explanation",
            executor="inline",
            window=150,
            chunk=50,
            obs_per_second=45_000,
            layers=("service.submit", "service.explain", "drift.detect", "core.ks_test")
            + _MOCHE_LAYERS,
            design=(
                ("core.self_share", ">", 0.5),
                ("drift.self_share", "<", 0.15),
                ("multidim.self_share", "==", 0.0),
                ("cache.explanations.hit_ratio", "==", 0.0),
            ),
        ),
        Workload(
            name="nab-process",
            why="nab-moche's inputs on one process shard: the only workload that crosses "
            "the process boundary (spawn, frames, shared memory, replies)",
            executor="process",
            window=150,
            chunk=50,
            obs_per_second=45_000,
            layers=("service.submit", "wire.encode"),
            design=(("multidim.self_share", "==", 0.0),),
        ),
        Workload(
            name="replica-incremental",
            why="NAB series mirrored x4 on the incremental detector: the drift layer does "
            "most of the work and 3 of 4 explanations are cache hits",
            executor="inline",
            window=150,
            chunk=50,
            obs_per_second=20_000,
            detector="incremental",
            replicas=4,
            layers=("service.submit", "service.explain", "drift.detect") + _MOCHE_LAYERS,
            design=(
                ("drift.self_share", ">", 0.5),
                ("cache.explanations.hit_ratio", ">=", 0.7),
                ("multidim.self_share", "==", 0.0),
            ),
        ),
        Workload(
            name="ks2d-pairs",
            why="(x, y) streams with contaminated segments on the 2-D backend: "
            "repro.multidim does nearly all the work here and none elsewhere",
            executor="inline",
            window=16,
            chunk=16,
            obs_per_second=486,
            backend="ks2d",
            slide_on_alarm=False,
            layers=(
                "service.submit",
                "service.explain",
                "drift.detect",
                "multidim.detect_test",
                "multidim.explain_test",
                "multidim.explain",
            ),
            design=(("multidim.self_share", ">", 0.5),),
        ),
    )
}


def _nab_series(seed: int, budget: float, min_length: int) -> list[tuple[str, np.ndarray]]:
    """The six Table 1 families at their series counts, ``budget`` observations in all.

    Every series of a family gets the same length (the midpoint of Table 1's
    range, scaled), so the family mix, and with it the work per
    observation, does not change with the seed.
    """
    families = NAB_FAMILIES.items()
    base = sum(count * (low + high) / 2 for _, (count, (low, high), _) in families)
    scale = budget / base
    rng = np.random.default_rng(seed)
    series = []
    for family, (count, (low, high), make) in families:
        length = max(int(round((low + high) / 2 * scale)), min_length)
        for index in range(count):
            values, _labels = make(rng, length)
            series.append((f"{family.lower()}_{index:02d}", values))
    return series


#: Streams of the 2-D workload.
PAIR_STREAMS = 16
#: Points of a window drawn from the shifted cluster, per window of the cycle.
PAIR_CYCLE = (0, 9, 7, 5, 3, 1, 0, 0)
PAIR_SHIFT = 4.0
#: Cells of the 4x4 grid in an order whose every prefix and suffix is spread
#: over the grid: the cluster replaces a prefix, the clean points left stay
#: spread out.
_SPREAD = np.array([0, 10, 5, 15, 2, 8, 7, 13, 1, 11, 4, 14, 3, 9, 6, 12])


def _pair_window(rng: np.random.Generator, window: int, shifted: int) -> np.ndarray:
    """One window: a point per cell of a grid over [-2, 2]^2, ``shifted`` moved to the cluster.

    Clean points are stratified, one per grid cell, so two clean windows
    never differ by chance: the only alarms are the onsets, and removing
    test points can always reverse them.  With independent points a test
    window sometimes lacked a region its reference covered, which no
    removal can repair, and the greedy explainer failed.
    """
    side = int(round(window**0.5))
    if side * side != window or window != _SPREAD.size:
        raise ValueError(f"the 2-D workload needs a 4x4 grid, not window={window}")
    cells = np.arange(window)
    points = np.column_stack(
        [
            (cells % side + rng.random(window)) * 4.0 / side - 2.0,
            (cells // side + rng.random(window)) * 4.0 / side - 2.0,
        ]
    )
    if shifted:
        rows, columns = rng.integers(side, size=2)
        order = (_SPREAD // side + rows) % side * side + (_SPREAD % side + columns) % side
        points[order[:shifted]] = PAIR_SHIFT + rng.normal(0.0, 0.3, size=(shifted, 2))
    return points


def _pair_streams(seed: int, budget: float, window: int) -> list[tuple[str, np.ndarray]]:
    """``(x, y)`` streams cycling through clean and contaminated segments.

    A contaminated segment starts abruptly, with 9 of a window's 16 points
    drawn from a tight cluster at ``(PAIR_SHIFT, PAIR_SHIFT)``, and fades out
    two points per window.  Under the tiling detector every onset fails the
    test against the clean window before it, and each fading step does not.
    One window in eight is an onset, so p95 of chunk latency falls in the
    middle of the alarms' cost distribution rather than on the step between
    explanations that remove four points and those that remove five.
    An abrupt return to clean would also alarm, but no removal from a clean
    test window restores the missing cluster, so the greedy explainer can
    exhaust its budget on it.  The first two windows are equal, so the
    warm-up's one test per stream does the same work on every seed.
    """
    rng = np.random.default_rng(seed)
    windows = max(int(budget / (PAIR_STREAMS * window)), len(PAIR_CYCLE) + 1)
    streams = []
    for index in range(PAIR_STREAMS):
        first = _pair_window(rng, window, 0)
        cycle = [
            _pair_window(rng, window, PAIR_CYCLE[position % len(PAIR_CYCLE)])
            for position in range(windows - 2)
        ]
        streams.append((f"pairs_{index:02d}", np.concatenate([first, first] + cycle)))
    return streams


def inputs_digest(streams: list[tuple[str, np.ndarray]]) -> str:
    """Content digest of a workload's generated inputs."""
    digest = hashlib.blake2b(digest_size=16)
    for stream_id, values in streams:
        digest.update(stream_id.encode())
        digest.update(np.ascontiguousarray(values, dtype=float).tobytes())
    return digest.hexdigest()
