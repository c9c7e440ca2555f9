"""Elastic autoscaling policies for the sharded executor.

:meth:`ProcessShardExecutor.resize` is the mechanism; this module is the
policy.  Two signals are available:

* **Queue depth** (:class:`QueueDepthPolicy`) — the executor's own
  backpressure gauge, the fraction of the bounded in-flight chunk capacity
  currently outstanding: near 1.0 the producers are about to block, near
  0.0 the pool is idle.
* **Tail latency** (:class:`LatencyPolicy`) — the p95 of the ``explain``
  (or ``wire_roundtrip``) stage histogram from :mod:`repro.obs`, plus
  per-shard load skew.  A fleet can be *slow without being deep*: a few
  hot streams hashed onto one shard keep the queue shallow while that
  shard's explanations crawl — queue depth alone never fires, tail
  latency does.

The split is deliberate:

* Policies are pure decision functions (signals → target shard count) with
  hysteresis (distinct scale-up and scale-down watermarks) and a cooldown
  so one burst cannot thrash the pool through repeated spawn/migrate
  cycles.  Being pure, they are testable without a single worker process.
* :class:`Autoscaler` is the driver: ``tick()`` reads the executor's stats
  (merged with an optional ``signals`` provider, e.g.
  ``ExplanationService.autoscale_signals``), asks the policy, and applies
  the decision through the ``Executor`` seam (``resize()``), recording
  every decision for the operator.  Tick it from any loop, or — the usual
  deployment — call :meth:`Autoscaler.start` to drive it from a daemon
  background thread on a fixed interval, so the pool stays elastic even
  when nothing is ingesting (``repro serve --min-shards/--max-shards``
  runs it this way).

Executors without a queue-depth gauge (inline) simply never trigger
a decision, so an autoscaler can be attached unconditionally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class AutoscaleDecision:
    """One applied scaling step."""

    shards: int  #: shard count before the step
    target: int  #: shard count requested
    depth: float  #: queue depth (outstanding / capacity) at decision time
    reason: str = ""  #: policy's own account of why it moved
    pause_seconds: float = 0.0  #: wall-clock cost of the resize() call

    @property
    def direction(self) -> str:
        return "up" if self.target > self.shards else "down"

    def render(self) -> str:
        why = self.reason or f"queue depth {self.depth:.2f}"
        return (
            f"autoscale {self.direction}: {self.shards} -> {self.target} shards "
            f"({why}, pause {self.pause_seconds * 1000:.0f} ms)"
        )


class QueueDepthPolicy:
    """Hysteresis policy mapping queue depth to a target shard count.

    Parameters
    ----------
    min_shards, max_shards:
        Inclusive bounds the pool may scale between.
    scale_up_at:
        Depth at or above which one shard is added (producers are close to
        blocking on the in-flight bound).
    scale_down_at:
        Depth at or below which one shard is removed (the pool is mostly
        idle and each extra shard only costs memory and cold caches).
    cooldown_ticks:
        Observations to ignore after a step, so the depth can respond to
        the new topology before the next decision.
    """

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 4,
        scale_up_at: float = 0.75,
        scale_down_at: float = 0.15,
        cooldown_ticks: int = 2,
    ) -> None:
        if min_shards < 1:
            raise ValidationError("min_shards must be at least 1")
        if max_shards < min_shards:
            raise ValidationError("max_shards must be >= min_shards")
        if not 0.0 <= scale_down_at < scale_up_at <= 1.0:
            raise ValidationError(
                "watermarks must satisfy 0 <= scale_down_at < scale_up_at <= 1"
            )
        if cooldown_ticks < 0:
            raise ValidationError("cooldown_ticks must be non-negative")
        self.min_shards = int(min_shards)
        self.max_shards = int(max_shards)
        self.scale_up_at = float(scale_up_at)
        self.scale_down_at = float(scale_down_at)
        self.cooldown_ticks = int(cooldown_ticks)
        self._cooldown = 0

    def decide(self, outstanding: int, capacity: int, shards: int) -> Optional[int]:
        """Target shard count for one observation, or ``None`` to hold.

        A decision always moves one shard at a time: each resize migrates
        ~1/N of the streams, and a second observation after the cooldown
        will take the next step if the pressure persists.
        """
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        depth = outstanding / capacity if capacity else 0.0
        if depth >= self.scale_up_at and shards < self.max_shards:
            self._cooldown = self.cooldown_ticks
            return shards + 1
        if depth <= self.scale_down_at and shards > self.min_shards:
            self._cooldown = self.cooldown_ticks
            return shards - 1
        return None


class LatencyPolicy:
    """Hysteresis policy driven by tail latency and per-shard load skew.

    Consumes the signal dictionary produced by
    :meth:`repro.service.engine.ExplanationService.autoscale_signals`
    (merged into the executor stats by :class:`Autoscaler`):

    ``p95_latency`` / ``p99_latency``
        Seconds, from the merged stage histograms — the ``explain`` stage
        when it has samples, else ``wire_roundtrip``.
    ``latency_samples``
        Observation count behind those quantiles; decisions are held until
        at least ``min_samples`` so one slow cold-start explanation cannot
        trigger a resize.
    ``shard_skew``
        max/mean of per-shard ingest counts; ``>= skew_threshold`` means
        the hash placement left one shard doing most of the work, and an
        extra shard re-spreads the streams.

    This catches the case queue depth cannot: a pool that is *slow without
    being deep* — a shallow queue whose few outstanding chunks each take
    ages because one shard is saturated.

    Parameters
    ----------
    min_shards, max_shards:
        Inclusive bounds the pool may scale between.
    target_p95:
        Explanation p95 (seconds) at or above which one shard is added.
    scale_down_p95:
        p95 at or below which one shard is removed (the fleet is fast and
        the extra shard only costs memory and cold caches).
    skew_threshold:
        ``shard_skew`` at or above which one shard is added regardless of
        latency.
    min_samples:
        Minimum histogram observations before latency is trusted.
    cooldown_ticks:
        Observations to ignore after a step.
    """

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 4,
        target_p95: float = 0.5,
        scale_down_p95: float = 0.05,
        skew_threshold: float = 3.0,
        min_samples: int = 8,
        cooldown_ticks: int = 2,
    ) -> None:
        if min_shards < 1:
            raise ValidationError("min_shards must be at least 1")
        if max_shards < min_shards:
            raise ValidationError("max_shards must be >= min_shards")
        if not 0.0 <= scale_down_p95 < target_p95:
            raise ValidationError(
                "latency watermarks must satisfy 0 <= scale_down_p95 < target_p95"
            )
        if skew_threshold <= 1.0:
            raise ValidationError("skew_threshold must be greater than 1")
        if min_samples < 1:
            raise ValidationError("min_samples must be at least 1")
        if cooldown_ticks < 0:
            raise ValidationError("cooldown_ticks must be non-negative")
        self.min_shards = int(min_shards)
        self.max_shards = int(max_shards)
        self.target_p95 = float(target_p95)
        self.scale_down_p95 = float(scale_down_p95)
        self.skew_threshold = float(skew_threshold)
        self.min_samples = int(min_samples)
        self.cooldown_ticks = int(cooldown_ticks)
        self._cooldown = 0
        #: Why the last non-None decision was taken (for the operator).
        self.last_reason = ""

    def decide_signals(self, signals: dict) -> Optional[int]:
        """Target shard count for one observation, or ``None`` to hold.

        Like :meth:`QueueDepthPolicy.decide`, every decision moves one
        shard at a time and starts a cooldown.
        """
        shards = signals.get("shards")
        if shards is None:
            return None
        shards = int(shards)
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        p95 = signals.get("p95_latency")
        samples = int(signals.get("latency_samples") or 0)
        skew = signals.get("shard_skew")
        latency_known = p95 is not None and samples >= self.min_samples
        if shards < self.max_shards:
            if latency_known and p95 >= self.target_p95:
                stage = signals.get("latency_stage", "explain")
                self.last_reason = (
                    f"{stage} p95 {1000 * p95:.1f} ms >= "
                    f"{1000 * self.target_p95:.1f} ms over {samples} samples"
                )
                self._cooldown = self.cooldown_ticks
                return shards + 1
            if skew is not None and skew >= self.skew_threshold:
                self.last_reason = (
                    f"shard load skew {skew:.2f} >= {self.skew_threshold:.2f}"
                )
                self._cooldown = self.cooldown_ticks
                return shards + 1
        if (
            shards > self.min_shards
            and latency_known
            and p95 <= self.scale_down_p95
            and (skew is None or skew < self.skew_threshold)
        ):
            self.last_reason = (
                f"p95 {1000 * p95:.1f} ms <= {1000 * self.scale_down_p95:.1f} ms"
            )
            self._cooldown = self.cooldown_ticks
            return shards - 1
        return None


class Autoscaler:
    """Drives ``Executor.resize`` from executor stats and optional signals.

    ``policy`` may be a :class:`QueueDepthPolicy` (legacy
    ``decide(outstanding, capacity, shards)`` contract) or any object with
    ``decide_signals(signals) -> Optional[int]`` such as
    :class:`LatencyPolicy`.  ``signals`` is an optional zero-argument
    callable — typically
    ``ExplanationService.autoscale_signals`` — whose dictionary is merged
    over the executor stats before each decision.
    """

    def __init__(
        self,
        executor,
        policy: Optional[QueueDepthPolicy] = None,
        signals=None,
    ) -> None:
        self._executor = executor
        self.policy = policy or QueueDepthPolicy()
        self._signals = signals
        self.decisions: list[AutoscaleDecision] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: The exception that ended the background loop, if one did.
        self.error: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Background driving
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.25) -> "Autoscaler":
        """Drive :meth:`tick` from a daemon thread every ``interval`` seconds.

        The ingest loop stops being the only driver: a pool left idle
        scales itself back down to ``min_shards``, and a burst scales up
        even while the producer is blocked on backpressure.  The thread is
        a daemon (it can never hold the process open) and any exception a
        tick raises — e.g. the executor being closed underneath it — ends
        the loop and is kept in :attr:`error` for the operator.
        """
        if interval <= 0:
            raise ValidationError("interval must be positive")
        if self._thread is not None:
            raise ValidationError("autoscaler is already started")
        self._stop.clear()
        self.error = None
        self._thread = threading.Thread(
            target=self._loop, args=(float(interval),),
            name="repro-autoscaler", daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.tick()
            except Exception as exc:
                self.error = exc
                return

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the background thread; True when it actually exited.

        A tick blocked inside a long ``resize()`` can outlive the join
        timeout; in that case the thread reference is *kept* — so a
        subsequent :meth:`start` still refuses a duplicate loop — and
        ``False`` is returned for the caller to act on.  No-op (True)
        when never started.
        """
        if self._thread is None:
            return True
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            return False
        self._thread = None
        return True

    def __enter__(self) -> "Autoscaler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def tick(self) -> Optional[AutoscaleDecision]:
        """Observe once and apply at most one scaling step.

        Returns the applied decision, or ``None`` when the executor exposes
        no queue-depth gauge (in-process backends) or the policy held.
        """
        stats = self._executor.stats()
        outstanding = stats.get("outstanding")
        capacity = stats.get("capacity")
        shards = stats.get("shards")
        if outstanding is None or capacity is None or shards is None:
            return None
        if self._signals is not None:
            try:
                stats = {**stats, **(self._signals() or {})}
            except Exception:
                # A metrics hiccup must never take down the scaling loop;
                # fall back to the bare executor stats for this tick.
                pass
        if hasattr(self.policy, "decide_signals"):
            target = self.policy.decide_signals(stats)
        else:
            target = self.policy.decide(int(outstanding), int(capacity), int(shards))
        if target is None:
            return None
        started = time.monotonic()
        self._executor.resize(target)
        decision = AutoscaleDecision(
            shards=int(shards),
            target=int(target),
            depth=int(outstanding) / int(capacity) if capacity else 0.0,
            reason=getattr(self.policy, "last_reason", ""),
            pause_seconds=time.monotonic() - started,
        )
        self.decisions.append(decision)
        return decision
