"""repro.obs: the unified instrumentation layer.

One vocabulary — :class:`~repro.obs.model.Span` and
:class:`~repro.obs.model.Counter`, collected by a
:class:`~repro.obs.model.Recorder` — and one recorder per clock.
Virtual time: SimMPI's engine records compute / blocked / collective
spans per rank on the recorder it keeps for a traced run
(``SimResult.observer``).  Wall time: the serial kernels, the engine
loop, the parallel treecode, the process pool, the NPB and Linpack
harnesses, the pipeline and the campaign record into the one recorder
:func:`~repro.obs.wallclock.profile` installs, through
:func:`~repro.obs.wallclock.span` and :func:`~repro.obs.wallclock.count`.

Exporters turn one recorded run into every view this repo needs:

* :func:`~repro.obs.export.chrome_trace` — Chrome ``trace_event`` JSON
  for Perfetto / ``chrome://tracing``, which is the timeline view;
* :func:`~repro.obs.export.metrics` — a flat ``name -> number`` dict;
* :func:`~repro.obs.export.dumps_canonical` — byte-stable JSON for the
  golden-trace regression suite.

The text report of a trace is ``python -m repro.obs analyze`` (the
``format_*`` renderers of :mod:`repro.obs.analysis`).

When nothing is installed, a wall span is a shared no-op context, and
an untraced engine run records into no recorder at all.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".analysis": (
        "WAIT_CAUSES", "WaitState", "PathSegment", "classify_waits", "wait_summary",
        "critical_path", "critical_path_summary", "load_imbalance", "self_seconds",
        "attribute_phases",
    ),
    ".export": (
        "chrome_trace", "parse_chrome_trace", "recorder_from_chrome_trace", "metrics",
        "dumps_canonical", "canonical_floats",
    ),
    ".history": (
        "BenchComparison", "ComparisonReport", "MetricGate", "DEFAULT_FLEET_GATES", "load_history",
        "robust_baseline", "compare_history", "format_comparison_report", "parse_gate_spec",
    ),
    ".model": ("Span", "Counter", "Recorder", "validate_nesting"),
    ".wallclock": ("BUCKETS", "profile", "format_report"),
})
