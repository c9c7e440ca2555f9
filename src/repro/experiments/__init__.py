"""Experiment runners that regenerate the paper's tables and figures.

Every module corresponds to one experiment of Section 6
(:data:`~repro.experiments.run_all.EXPERIMENT_IDS` lists them and
:func:`~repro.experiments.run_all.run_all_experiments` runs them).  Each
runner accepts an :class:`ExperimentConfig`
controlling the workload scale: ``ExperimentConfig.smoke()`` is a reduced
configuration used by the benchmark harness so a full pass finishes on a
laptop; ``ExperimentConfig.paper()`` approaches the paper's scale.

The runners return plain data structures (dictionaries / dataclasses) and
provide ``format_*`` helpers that print the same rows and series the paper
reports, so results can be compared shape-by-shape with the published
figures.
"""

from repro.experiments.case_study import CaseStudyResult, run_case_study
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets_summary import dataset_statistics, format_dataset_statistics
from repro.experiments.evaluation import EvaluationRecord, run_methods_on_cases
from repro.experiments.conciseness import format_ise_table, run_conciseness
from repro.experiments.contrastivity import format_reverse_factor_table, run_contrastivity
from repro.experiments.effectiveness import format_rmse_table, run_effectiveness
from repro.experiments.lower_bound import format_estimation_error_table, run_lower_bound_study
from repro.experiments.methods import build_methods
from repro.experiments.reporting import format_table
from repro.experiments.run_all import EXPERIMENT_IDS, render_all, run_all_experiments
from repro.experiments.runtime import (
    format_runtime_table,
    run_runtime_synthetic,
    run_runtime_timeseries,
)
from repro.experiments.workloads import FailedTestCase, build_failed_test_cases

__all__ = [
    "CaseStudyResult",
    "run_case_study",
    "ExperimentConfig",
    "dataset_statistics",
    "format_dataset_statistics",
    "EvaluationRecord",
    "run_methods_on_cases",
    "format_ise_table",
    "run_conciseness",
    "format_reverse_factor_table",
    "run_contrastivity",
    "format_rmse_table",
    "run_effectiveness",
    "format_estimation_error_table",
    "run_lower_bound_study",
    "build_methods",
    "format_table",
    "EXPERIMENT_IDS",
    "render_all",
    "run_all_experiments",
    "format_runtime_table",
    "run_runtime_synthetic",
    "run_runtime_timeseries",
    "FailedTestCase",
    "build_failed_test_cases",
]
