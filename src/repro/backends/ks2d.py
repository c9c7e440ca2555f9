"""The 2-D (Fasano-Franceschini) stream backend: streams of ``(x, y)`` pairs.

Streams of points are tested with the two-sample Fasano-Franceschini 2-D
KS test (:class:`~repro.multidim.detector.KS2DDriftDetector`) and explained
greedily (:class:`~repro.multidim.explain2d.GreedyKS2DExplainer`).  MOCHE's
cumulative-vector machinery is 1-D only, so explicitly requesting a 1-D
method on a 2-D stream is an error, not a silent substitution — that rule
lives here, in the backend, not in the serving stack.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backends.base import StreamBackend, ks_result_to_dict
from repro.core.preference import PreferenceList
from repro.exceptions import ValidationError
from repro.multidim.detector import KS2DDriftDetector
from repro.multidim.explain2d import GreedyKS2DExplainer, KS2DExplanation

#: Explainer name -> factory for 2-D (Fasano-Franceschini) streams.
EXPLAINERS_2D: dict[str, Callable[[float, int, int], object]] = {
    "greedy-ks2d": lambda alpha, top_k, seed: GreedyKS2DExplainer(
        alpha=alpha, candidate_pool=top_k
    ),
}


class KS2DBackend(StreamBackend):
    """Streams of ``(x, y)`` pairs under the Fasano-Franceschini test."""

    name = "ks2d"
    detectors = ("windowed",)
    default_method = "greedy-ks2d"
    default_preference = "identity"
    explainers = EXPLAINERS_2D
    explanation_types = (KS2DExplanation,)

    # ------------------------------------------------------------------
    def validate_config(self, config) -> None:
        if config.detector not in self.detectors:
            raise ValidationError(
                "backend='ks2d' supports only the 'windowed' detector"
            )
        if isinstance(config.method, str) and config.method not in self.explainers:
            raise ValidationError(
                f"unknown 2-D explanation method {config.method!r} "
                f"(have {sorted(self.explainers)})"
            )
        self.validate_preference(config)

    def validate_preference(self, config) -> None:
        if isinstance(config.preference, str) and config.preference != "identity":
            raise ValidationError(
                "backend='ks2d' supports only the 'identity' preference "
                "or a custom builder"
            )

    # ------------------------------------------------------------------
    def build_detector(self, config, ks_runner=None):
        return KS2DDriftDetector(
            window_size=config.window_size,
            alpha=config.alpha,
            slide_on_alarm=config.slide_on_alarm,
        )

    def build_preference(self, config, reference: np.ndarray, test: np.ndarray):
        # 2-D windows are (w, 2) arrays: rank the w points, not the 2w
        # coordinates the 1-D builders would see.
        return PreferenceList.identity(int(np.asarray(test).shape[0]))

    # ------------------------------------------------------------------
    def coerce_observations(self, observations) -> np.ndarray:
        """``(k, 2)`` point arrays of finite coordinates; a flat array of
        ``2k`` floats is paired up."""
        arr = np.asarray(observations, dtype=float)
        if arr.ndim == 1:
            if arr.size % 2:
                raise ValidationError(
                    "a flat ks2d chunk must hold an even number of floats"
                )
            arr = arr.reshape(-1, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("ks2d streams take (k, 2) arrays of points")
        if not np.isfinite(arr).all():
            raise ValidationError("chunk holds a missing or non-finite coordinate")
        return arr

    # observation_count and run_detection: the base defaults already count
    # and iterate (k, 2) arrays row-wise, which is exactly what 2-D
    # detection needs.

    # ------------------------------------------------------------------
    def renders(self, explanation) -> bool:
        """Own 2-D-*shaped* explanations, not just the library's own type.

        A custom 2-D explainer object (``StreamConfig(method=<explainer>)``)
        may return its own result class; anything exposing ``points`` and
        ``result_before`` renders here rather than crashing against the
        scalar renderer's field layout.
        """
        if isinstance(explanation, self.explanation_types):
            return True
        return hasattr(explanation, "points") and hasattr(explanation, "result_before")

    def explanation_to_dict(self, explanation) -> dict:
        return {
            "method": "greedy-ks2d",
            "size": explanation.size,
            "indices": explanation.indices.tolist(),
            "points": explanation.points.tolist(),
            "reverses_test": explanation.reverses_test,
            "runtime_seconds": explanation.runtime_seconds,
            "ks_before": ks_result_to_dict(explanation.result_before),
            "ks_after": ks_result_to_dict(explanation.result_after),
        }

    def explanation_report(self, explanation) -> str:
        before = explanation.result_before
        after = explanation.result_after
        verdict = "passes" if after.passed else "still fails"
        return "\n".join(
            [
                "Counterfactual explanation (greedy-ks2d)",
                "-" * 48,
                f"failed 2-D KS test  : D = {before.statistic:.4f}, "
                f"p = {before.pvalue:.4g} (alpha = {before.alpha}, "
                f"n = {before.n}, m = {before.m})",
                f"explanation size    : {explanation.size} points",
                f"after removal       : D = {after.statistic:.4f}, "
                f"p = {after.pvalue:.4g} -> {verdict}",
                f"runtime             : {explanation.runtime_seconds * 1000:.1f} ms",
            ]
        )
