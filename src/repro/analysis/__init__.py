"""Reporting helpers and the experiment registry."""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".experiments": ("Experiment", "EXPERIMENTS", "by_id"),
    ".tables": ("format_table", "format_comparison", "comparison_rows"),
})
