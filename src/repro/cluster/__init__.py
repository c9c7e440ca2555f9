"""Process-sharded execution runtime for the explanation service.

``repro.cluster`` is the seam between *what* the service computes and
*where* it runs.  The service engine talks to an
:class:`~repro.cluster.base.Executor`; two interchangeable backends
implement it:

* :class:`~repro.cluster.executors.InlineExecutor` — synchronous, on the
  submitting thread (the default, and the parity baseline);
* :class:`~repro.cluster.sharding.ProcessShardExecutor` — streams
  consistent-hashed onto N worker processes
  (:class:`~repro.cluster.partition.HashRing`), each owning detector
  state, explainers and a private cache bundle
  (:class:`~repro.cluster.runtime.ShardRuntime`), with shard-level fault
  handling (crashed shards are respawned and re-registered from the
  registry snapshot).

Supporting modules: :mod:`~repro.cluster.wire` (picklable protocol
messages), :mod:`~repro.cluster.runtime` (the shared detection/explanation
path, also used in-process by the engine), :mod:`~repro.cluster.worker`
(the shard process main loop), :mod:`~repro.cluster.inflight` (the
process executor's ledger of chunks in flight and streams on the move,
which resolves each chunk exactly once).
"""

from repro.cluster.autoscale import (
    Autoscaler,
    AutoscaleDecision,
    LatencyPolicy,
    QueueDepthPolicy,
)
from repro.cluster.base import EXECUTOR_NAMES, Executor, ExecutorHooks, make_executor
from repro.cluster.executors import InlineExecutor
from repro.cluster.partition import HashRing, stable_hash

# The runtime imports the service's cache and registry, and the service's
# engine imports the runtime back: the service package has to finish
# initialising before the runtime module starts.
import repro.service  # noqa: F401
from repro.cluster.runtime import (
    ShardRuntime,
    build_preference_cached,
    coerce_observations,
    explain_alarm,
    explanation_cache_key,
    observation_count,
    run_detection,
)
from repro.cluster.sharding import ProcessShardExecutor
from repro.cluster.wire import (
    AlarmRecord,
    CollectStats,
    CrashShard,
    IngestChunk,
    IngestReply,
    MigrateIn,
    MigrateOut,
    RegisterStream,
    RemoveStream,
    ShardStatsReply,
    Shutdown,
    WorkerFailure,
)

__all__ = [
    "AlarmRecord",
    "Autoscaler",
    "AutoscaleDecision",
    "CollectStats",
    "CrashShard",
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorHooks",
    "HashRing",
    "IngestChunk",
    "IngestReply",
    "InlineExecutor",
    "MigrateIn",
    "MigrateOut",
    "ProcessShardExecutor",
    "LatencyPolicy",
    "QueueDepthPolicy",
    "RegisterStream",
    "RemoveStream",
    "ShardRuntime",
    "ShardStatsReply",
    "Shutdown",
    "WorkerFailure",
    "build_preference_cached",
    "coerce_observations",
    "explain_alarm",
    "explanation_cache_key",
    "make_executor",
    "observation_count",
    "run_detection",
    "stable_hash",
]
