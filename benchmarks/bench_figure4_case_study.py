"""Figure 4 — COVID-19 case study: MOCHE versus Greedy and D3.

Regenerates the explanation histograms (4a-4c), the post-removal ECDFs (4d)
and the explanation sizes discussed in Section 6.3.  The shape to verify:
MOCHE's explanation is a small fraction of the test set (the paper reports
8.6%), while the greedy and D3 baselines select large portions of it, and
MOCHE's post-removal ECDF tracks the reference ECDF closely.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_result
from repro.datasets.covid import AGE_GROUPS
from repro.experiments.case_study import format_case_study, run_case_study
from repro.experiments.reporting import format_table
from repro.utils.ecdf import evaluate_ecdf


def test_figure4_case_study(benchmark):
    result = benchmark.pedantic(
        run_case_study,
        kwargs={"alpha": 0.05, "seed": 2020, "include_baselines": True},
        rounds=1,
        iterations=1,
    )
    report = format_case_study(result)

    # Figure 4d: ECDFs of the reference set and of the test set after
    # removing each method's explanation.
    grid = np.arange(1, len(AGE_GROUPS) + 1, dtype=float)
    reference_ecdf = evaluate_ecdf(result.dataset.reference_values, grid)
    rows = []
    ecdfs = {name: result.ecdf_after_removal(name)[1] for name in result.explanations}
    for index, label in enumerate(AGE_GROUPS):
        rows.append(
            [label, reference_ecdf[index]]
            + [ecdfs[name][index] for name in result.explanations]
        )
    ecdf_table = format_table(
        ["age group", "reference"] + list(result.explanations),
        rows,
        title="Figure 4d — ECDFs after removing each explanation",
    )
    save_result("figure4_case_study", report + "\n\n" + ecdf_table)

    moche = result.population_explanation
    greedy = result.baseline_explanations["greedy"]
    d3 = result.baseline_explanations["d3"]
    # MOCHE explains with a small fraction of the test set; the baselines
    # need much larger subsets (the paper reports 8.6% vs 92.3% and 99.9%).
    assert moche.fraction_of_test_set < 0.2
    assert greedy.size > moche.size
    # On the synthetic COVID-like data the age variable is a coarse ordinal,
    # so the density-ratio baseline can match (but never beat) the minimum
    # size, which deviates from the paper's 99.9% figure.
    assert d3.size >= moche.size
    # After removing MOCHE's explanation the ECDF gap to the reference is
    # within the KS threshold everywhere.
    moche_gap = np.max(np.abs(reference_ecdf - ecdfs["moche"]))
    assert moche_gap <= moche.ks_after.threshold + 1e-9
