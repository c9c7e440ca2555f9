"""Drift detection pipeline: the application workflow the paper motivates.

The introduction motivates explaining failed KS tests by the way they are
used in practice — sliding-window drift detection over data streams (model
monitoring, change detection, database intrusion detection).  This package
implements that substrate end to end:

* :class:`KSDriftDetector` — sliding-window two-sample KS drift detection;
* :class:`IncrementalKS` — incremental maintenance of the KS statistic as
  observations arrive and expire (in the spirit of dos Reis et al., KDD
  2016), so that streaming detection does not re-sort windows;
* :class:`IncrementalKSDetector` — per-observation sliding-window detection
  built on :class:`IncrementalKS`;
* :class:`ExplainedDriftMonitor` — a stream monitor that attaches a MOCHE
  explanation to every drift alarm it raises.

For monitoring many streams at once, see :mod:`repro.service`, which
multiplexes these detectors behind one explanation engine with shared
caches.
"""

from repro.drift.detector import DriftAlarm, IncrementalKSDetector, KSDriftDetector
from repro.drift.incremental_ks import IncrementalKS
from repro.drift.monitor import ExplainedAlarm, ExplainedDriftMonitor

__all__ = [
    "DriftAlarm",
    "KSDriftDetector",
    "IncrementalKS",
    "IncrementalKSDetector",
    "ExplainedAlarm",
    "ExplainedDriftMonitor",
]
