"""Synthetic equivalents of the paper's datasets.

The paper evaluates on the BC CDC COVID-19 case listing and on six dataset
families from the Numenta Anomaly Benchmark.  Neither is available offline,
so this package provides generators that reproduce their statistical shape
(set sizes, failure of the KS test, labelled anomalous regions, drift
injections).  Each generator module's docstring (:mod:`~repro.datasets.covid`,
:mod:`~repro.datasets.nab`) states what it substitutes and why.
"""

from repro.datasets.covid import (
    AGE_GROUPS,
    HEALTH_AUTHORITIES,
    CovidCase,
    CovidDataset,
    generate_covid_like_dataset,
)
from repro.datasets.nab import (
    NAB_FAMILIES,
    TimeSeries,
    TimeSeriesDataset,
    generate_family,
    generate_nab_like_corpus,
)
from repro.datasets.sliding_window import WindowPair, sliding_window_pairs
from repro.datasets.synthetic import contaminated_pair, drifting_series

__all__ = [
    "AGE_GROUPS",
    "HEALTH_AUTHORITIES",
    "CovidCase",
    "CovidDataset",
    "generate_covid_like_dataset",
    "NAB_FAMILIES",
    "TimeSeries",
    "TimeSeriesDataset",
    "generate_family",
    "generate_nab_like_corpus",
    "WindowPair",
    "sliding_window_pairs",
    "contaminated_pair",
    "drifting_series",
]
