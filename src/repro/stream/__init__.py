"""STREAM memory-bandwidth benchmark (Table 2 rows 1-4)."""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".stream": ("KERNELS", "StreamResult", "run_stream", "modeled_stream", "stream_table2_row"),
})
