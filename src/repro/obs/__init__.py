"""Observability: span tracing, per-operator profiling, latency histograms.

Three cooperating pieces beside the ``RuntimeStats`` counter fields:

* :mod:`repro.obs.trace` — a hierarchical span tracer with a bounded
  ring buffer, gated by ``CodegenConfig.trace_level`` and exportable as
  Chrome ``trace_event`` JSON (``Engine.export_trace``),
* :mod:`repro.obs.profile` — aggregates instruction spans into an
  ``explain()``-style per-operator report (``Engine.profile_report``),
* :mod:`repro.obs.metrics` — labeled log-bucketed latency histograms
  backing the percentile fields of ``RuntimeStats.serving_summary()``.
"""

from repro.obs.metrics import Histogram
from repro.obs.trace import (
    FULL,
    INSTRUCTIONS,
    LEVELS,
    NULL_TRACER,
    OFF,
    PHASES,
    Span,
    Tracer,
    tracer_for,
)

__all__ = [
    "Histogram",
    "Span",
    "Tracer",
    "tracer_for",
    "NULL_TRACER",
    "LEVELS",
    "OFF",
    "PHASES",
    "INSTRUCTIONS",
    "FULL",
]
