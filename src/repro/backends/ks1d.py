"""The scalar (1-D KS) stream backend: MOCHE and the paper's baselines.

This is the paper's own setting — scalar streams tested with the
two-sample Kolmogorov-Smirnov test — packaged as a
:class:`~repro.backends.base.StreamBackend` plugin.  It owns both detector
flavours (the tumbling-window :class:`~repro.drift.detector.KSDriftDetector`
and the per-observation
:class:`~repro.drift.detector.IncrementalKSDetector`), the full named
explainer table (MOCHE plus every baseline) and the named preference
builders, so the serving stack needs no knowledge of any of them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backends.base import StreamBackend, ks_result_to_dict
from repro.baselines import (
    CornerSearchExplainer,
    D3Explainer,
    GraceExplainer,
    GreedyExplainer,
    Series2GraphExplainer,
    StompExplainer,
)
from repro.core.explanation import Explanation
from repro.core.moche import MOCHE
from repro.core.preference import PreferenceList
from repro.drift.detector import IncrementalKSDetector, KSDriftDetector
from repro.exceptions import ValidationError
from repro.outliers.spectral_residual import SpectralResidual

#: Explainer name -> factory ``(alpha, top_k, seed) -> explainer``.  Shared
#: with the CLI's ``--method`` flag.
EXPLAINERS: dict[str, Callable[[float, int, int], object]] = {
    "moche": lambda alpha, top_k, seed: MOCHE(alpha=alpha),
    "moche-ns": lambda alpha, top_k, seed: MOCHE(alpha=alpha, use_lower_bound=False),
    "greedy": lambda alpha, top_k, seed: GreedyExplainer(alpha=alpha),
    "corner-search": lambda alpha, top_k, seed: CornerSearchExplainer(
        alpha=alpha, top_k=top_k, seed=seed
    ),
    "grace": lambda alpha, top_k, seed: GraceExplainer(alpha=alpha, top_k=top_k, seed=seed),
    "d3": lambda alpha, top_k, seed: D3Explainer(alpha=alpha),
    "stomp": lambda alpha, top_k, seed: StompExplainer(alpha=alpha),
    "series2graph": lambda alpha, top_k, seed: Series2GraphExplainer(alpha=alpha),
}


def _spectral_residual_preference(
    reference: np.ndarray, test: np.ndarray, seed: int
) -> PreferenceList:
    series = np.concatenate([np.asarray(reference, float), np.asarray(test, float)])
    scores = SpectralResidual().scores(series)[-np.asarray(test).size:]
    return PreferenceList.from_scores(scores, descending=True, seed=seed)


#: Preference name -> builder ``(reference, test, seed) -> PreferenceList``.
PREFERENCE_BUILDERS: dict[str, Callable[[np.ndarray, np.ndarray, int], PreferenceList]] = {
    "spectral-residual": _spectral_residual_preference,
    "values-desc": lambda reference, test, seed: PreferenceList.from_scores(
        test, descending=True, seed=seed
    ),
    "values-asc": lambda reference, test, seed: PreferenceList.from_scores(
        test, descending=False, seed=seed
    ),
    "random": lambda reference, test, seed: PreferenceList.random(
        np.asarray(test).size, seed=seed
    ),
    "identity": lambda reference, test, seed: PreferenceList.identity(
        np.asarray(test).size
    ),
}


def build_preference_list(
    name: str, reference: np.ndarray, test: np.ndarray, seed: int = 0
) -> PreferenceList:
    """Build a preference list with one of the named 1-D strategies."""
    if name not in PREFERENCE_BUILDERS:
        raise ValidationError(
            f"unknown preference builder {name!r} (have {sorted(PREFERENCE_BUILDERS)})"
        )
    return PREFERENCE_BUILDERS[name](reference, test, seed)


class KS1DBackend(StreamBackend):
    """Scalar streams under the one-dimensional two-sample KS test."""

    name = "ks1d"
    detectors = ("windowed", "incremental")
    default_method = "moche"
    default_preference = "spectral-residual"
    explainers = EXPLAINERS
    explanation_types = (Explanation,)

    # ------------------------------------------------------------------
    def validate_preference(self, config) -> None:
        if isinstance(config.preference, str) and config.preference not in PREFERENCE_BUILDERS:
            raise ValidationError(
                f"unknown preference builder {config.preference!r} "
                f"(have {sorted(PREFERENCE_BUILDERS)})"
            )

    # ------------------------------------------------------------------
    def build_detector(self, config, ks_runner=None):
        if config.detector == "incremental":
            return IncrementalKSDetector(
                window_size=config.window_size,
                alpha=config.alpha,
                stride=config.stride,
                slide_on_alarm=config.slide_on_alarm,
                seed=config.seed,
            )
        return KSDriftDetector(
            window_size=config.window_size,
            alpha=config.alpha,
            slide_on_alarm=config.slide_on_alarm,
            ks_runner=ks_runner,
        )

    def build_preference(self, config, reference: np.ndarray, test: np.ndarray):
        return build_preference_list(config.preference, reference, test, config.seed)

    # ------------------------------------------------------------------
    def coerce_observations(self, observations) -> np.ndarray:
        """A flat float array.  ``None`` (which coerces to NaN), NaN and
        inf are rejected: a non-finite value would stay in the detector's
        window and fail every later test of its stream."""
        values = np.asarray(observations, dtype=float).ravel()
        if not np.isfinite(values).all():
            raise ValidationError("chunk holds a missing or non-finite observation")
        return values

    def run_detection(self, detector, values: np.ndarray) -> list:
        alarms = []
        for value in values:
            alarm = detector.update(float(value))
            if alarm is not None:
                alarms.append(alarm)
        return alarms

    # ------------------------------------------------------------------
    def explanation_to_dict(self, explanation) -> dict:
        return {
            "method": explanation.method,
            "alpha": explanation.alpha,
            "size": explanation.size,
            "fraction_of_test_set": explanation.fraction_of_test_set,
            "indices": explanation.indices.tolist(),
            "values": explanation.values.tolist(),
            "reverses_test": explanation.reverses_test,
            "converged": explanation.converged,
            "size_lower_bound": explanation.size_lower_bound,
            "estimation_error": explanation.estimation_error,
            "runtime_seconds": explanation.runtime_seconds,
            "ks_before": ks_result_to_dict(explanation.ks_before),
            "ks_after": ks_result_to_dict(explanation.ks_after),
        }

    def explanation_report(self, explanation) -> str:
        before = explanation.ks_before
        after = explanation.ks_after
        lines = [
            f"Counterfactual explanation ({explanation.method})",
            "-" * 48,
            f"failed KS test      : D = {before.statistic:.4f} > threshold "
            f"{before.threshold:.4f} (alpha = {before.alpha}, n = {before.n}, m = {before.m})",
            f"explanation size    : {explanation.size} points "
            f"({100 * explanation.fraction_of_test_set:.1f}% of the test set)",
        ]
        if explanation.size_lower_bound is not None:
            lines.append(
                f"size lower bound    : {explanation.size_lower_bound} "
                f"(estimation error {explanation.estimation_error})"
            )
        if after is not None:
            verdict = "passes" if after.passed else "still fails"
            lines.append(
                f"after removal       : D = {after.statistic:.4f} vs threshold "
                f"{after.threshold:.4f} -> {verdict}"
            )
        if explanation.size:
            lines.append(
                f"explained value range: [{explanation.values.min():.4g}, "
                f"{explanation.values.max():.4g}]"
            )
        lines.append(f"runtime             : {explanation.runtime_seconds * 1000:.1f} ms")
        return "\n".join(lines)
