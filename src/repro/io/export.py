"""Serialising explanations to JSON, CSV and plain-text reports.

Rendering is backend-dispatched: each registered
:class:`~repro.backends.base.StreamBackend` owns the JSON payload and the
plain-text report of *its* explanation types, and this module routes an
explanation object to the backend that claims it
(:func:`repro.backends.renderer_for`).  Explanation objects no backend
claims — e.g. duck-typed stand-ins in tests — fall back to the scalar
(``ks1d``) renderer, which is the shape every 1-D explainer produces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.backends import KS1D, get_backend, ks_result_to_dict, renderer_for
from repro.core.explanation import Explanation
from repro.exceptions import ValidationError

PathLike = Union[str, Path]

__all__ = [
    "explanation_report",
    "explanation_to_csv",
    "explanation_to_dict",
    "explanation_to_json",
    "ks2d_explanation_to_dict",
    "ks_result_to_dict",
    "save_chrome_trace",
    "save_explanation",
    "save_service_report",
    "service_report_to_json",
]


def _renderer(explanation):
    """The backend owning an explanation's rendering (ks1d as fallback)."""
    return renderer_for(explanation) or KS1D


def ks2d_explanation_to_dict(explanation) -> dict:
    """A JSON-serialisable dictionary describing a 2-D greedy explanation."""
    return get_backend("ks2d").explanation_to_dict(explanation)


def explanation_to_dict(explanation) -> dict:
    """A JSON-serialisable dictionary describing an explanation.

    Dispatched to the backend plugin that owns the explanation's type.
    """
    return _renderer(explanation).explanation_to_dict(explanation)


def explanation_to_json(explanation: Explanation, indent: int = 2) -> str:
    """The explanation as a JSON document."""
    return json.dumps(explanation_to_dict(explanation), indent=indent)


def explanation_to_csv(explanation: Explanation) -> str:
    """The explained points as CSV text with ``index,value`` rows."""
    lines = ["index,value"]
    lines.extend(
        f"{int(index)},{value!r}"
        for index, value in zip(explanation.indices, explanation.values)
    )
    return "\n".join(lines) + "\n"


def explanation_report(explanation) -> str:
    """A short human-readable report, suitable for a monitoring alert.

    Dispatched to the backend plugin that owns the explanation's type.
    """
    return _renderer(explanation).explanation_report(explanation)


def save_explanation(explanation: Explanation, path: PathLike) -> Path:
    """Write an explanation to disk; the format follows the file extension.

    ``.json`` writes the full structured record, ``.csv`` writes the
    ``index,value`` rows, ``.txt`` writes the plain-text report.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        content = explanation_to_json(explanation)
    elif suffix == ".csv":
        content = explanation_to_csv(explanation)
    elif suffix in (".txt", ""):
        content = explanation_report(explanation)
    else:
        raise ValidationError(f"unsupported explanation format: {suffix!r}")
    path.write_text(content)
    return path


def save_chrome_trace(payload: dict, path: PathLike) -> Path:
    """Write a Chrome trace-event payload (``Tracer.chrome_trace``) to disk.

    The file loads directly in ``chrome://tracing`` or https://ui.perfetto.dev.
    Refuses a payload without a ``traceEvents`` list — catching a caller
    that passed span dicts (or a report) instead of the export object.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        raise ValidationError("not a Chrome trace-event payload (no traceEvents list)")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
    return path


def service_report_to_json(report, indent: int = 2) -> str:
    """A :class:`repro.service.ServiceReport` as a JSON document.

    Accepts any object exposing ``to_dict()`` (duck-typed so this module
    stays independent of :mod:`repro.service`).
    """
    return json.dumps(report.to_dict(), indent=indent)


def save_service_report(report, path: PathLike) -> Path:
    """Write a service report to disk; the format follows the extension.

    ``.json`` writes the full structured record (streams, alarms, cache and
    executor statistics), ``.txt`` (or no extension) the rendered summary.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        content = service_report_to_json(report)
    elif suffix in (".txt", ""):
        content = report.render()
    else:
        raise ValidationError(f"unsupported service report format: {suffix!r}")
    path.write_text(content + "\n")
    return path
