"""repro — reproduction of the MOCHE system (VLDB 2021).

"Comprehensible Counterfactual Explanation on Kolmogorov-Smirnov Test"
by Zicun Cong, Lingyang Chu, Yu Yang and Jian Pei.

The package provides:

* :mod:`repro.core` — the two-sample KS test and the MOCHE explainer;
* :mod:`repro.baselines` — the six baseline explainers of the evaluation
  (Greedy, Extended-CornerSearch, Extended-GRACE, Extended-D3,
  Extended-STOMP, Extended-Series2Graph);
* :mod:`repro.outliers` — outlier / anomaly scorers used to build
  preference lists and to power the baselines (Spectral Residual, KDE,
  matrix profile, Series2Graph embeddings, simple detectors);
* :mod:`repro.datasets` — synthetic equivalents of the paper's datasets
  (COVID-19 case study, NAB-like time series, scalability workloads);
* :mod:`repro.drift` — a sliding-window KS drift-detection pipeline that
  attaches explanations to every drift alarm;
* :mod:`repro.metrics` — the evaluation metrics (ISE, reverse factor,
  ECDF RMSE, estimation error);
* :mod:`repro.experiments` — runners that regenerate every table and
  figure of the paper's evaluation section;
* :mod:`repro.multidim` — the Fasano-Franceschini two-dimensional KS test,
  a greedy explainer for it and a 2-D drift detector (served through the
  service with ``StreamConfig(backend="ks2d")``);
* :mod:`repro.backends` — the stream-backend plugin layer: every stream
  flavour (scalar ``ks1d``, 2-D ``ks2d``, or a registered third-party
  plugin) is one :class:`StreamBackend` object owning config validation,
  detector/explainer construction, chunk normalisation, cache keys,
  detector-state persistence and report rendering;
* :mod:`repro.service` — an in-process multi-stream explanation service
  with shared caching, pluggable execution and snapshot/warm-restart
  persistence;
* :mod:`repro.cluster` — the execution runtime behind the service: the
  :class:`Executor` seam with inline and process-shard backends,
  consistent-hash partitioning of streams onto worker processes, the
  picklable wire protocol and shard-level fault handling.

The main classes of every layer are re-exported here, so typical use is
just ``from repro import MOCHE, KSDriftDetector, ExplanationService``.
"""

from repro.backends import (
    StreamBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.cluster import (
    Executor,
    HashRing,
    InlineExecutor,
    ProcessShardExecutor,
    ShardRuntime,
    make_executor,
)
from repro.core import (
    MOCHE,
    BruteForceExplainer,
    Explanation,
    ExplanationProblem,
    KSTestResult,
    PreferenceList,
    explain_ks_failure,
    ks_statistic,
    ks_test,
)
from repro.drift import (
    DriftAlarm,
    ExplainedAlarm,
    ExplainedDriftMonitor,
    IncrementalKS,
    IncrementalKSDetector,
    KSDriftDetector,
)
from repro.exceptions import (
    KSTestPassedError,
    NoExplanationError,
    ReproError,
    ValidationError,
)
from repro.multidim import (
    GreedyKS2DExplainer,
    KS2DExplanation,
    KS2DResult,
    ks2d_statistic,
    ks2d_test,
)
from repro.service import (
    ChunkResult,
    ExplanationService,
    ServiceAlarm,
    ServiceReport,
    ServiceSnapshot,
    SharedCaches,
    StreamConfig,
)

__version__ = "1.3.0"

__all__ = [
    # core
    "MOCHE",
    "BruteForceExplainer",
    "Explanation",
    "ExplanationProblem",
    "KSTestResult",
    "PreferenceList",
    "explain_ks_failure",
    "ks_statistic",
    "ks_test",
    # drift
    "DriftAlarm",
    "KSDriftDetector",
    "IncrementalKS",
    "IncrementalKSDetector",
    "ExplainedAlarm",
    "ExplainedDriftMonitor",
    # multidim
    "GreedyKS2DExplainer",
    "KS2DExplanation",
    "KS2DResult",
    "ks2d_statistic",
    "ks2d_test",
    # backends
    "StreamBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    # service
    "ChunkResult",
    "ExplanationService",
    "ServiceAlarm",
    "ServiceReport",
    "ServiceSnapshot",
    "SharedCaches",
    "StreamConfig",
    # cluster
    "Executor",
    "HashRing",
    "InlineExecutor",
    "ProcessShardExecutor",
    "ShardRuntime",
    "make_executor",
    # exceptions
    "KSTestPassedError",
    "NoExplanationError",
    "ReproError",
    "ValidationError",
    "__version__",
]
