"""Wall-clock instrumented kernel backend.

:class:`WallBackend` wraps any registered backend and charges every
kernel call to a ``"kernel"`` span of the recorder
:func:`repro.obs.wallclock.profile` installed — the measurement side
of the ``python -m repro.obs wallclock`` report.  Arithmetic is untouched
(every call delegates verbatim), so results are bit-identical to the
wrapped backend; :func:`repro.core.backend.get_backend` passes
instances through, which is how a wrapped backend rides an existing
``backend=`` kwarg, e.g.::

    config = ParallelConfig(backend=WallBackend("numpy"))

Timing wraps the synchronous call only — safe because kernel calls
never yield to the engine.
"""

from __future__ import annotations

from ..obs.wallclock import bucket
from .backend import KernelBackend, get_backend

__all__ = ["WallBackend"]


class WallBackend(KernelBackend):
    """Delegating backend that wall-times every kernel call."""

    def __init__(self, base=None):
        self.base = get_backend(base)
        self.name = f"wall+{self.base.name}"

    def eval_cells_dense(self, *args):
        with bucket("kernel"):
            return self.base.eval_cells_dense(*args)

    def eval_direct_dense(self, *args):
        with bucket("kernel"):
            return self.base.eval_direct_dense(*args)

    def eval_cell_rects(self, *args):
        with bucket("kernel"):
            return self.base.eval_cell_rects(*args)

    def eval_direct_rects(self, *args):
        with bucket("kernel"):
            return self.base.eval_direct_rects(*args)

    def segment_sum(self, *args):
        with bucket("kernel"):
            return self.base.segment_sum(*args)

    def scatter_add(self, *args):
        with bucket("kernel"):
            return self.base.scatter_add(*args)

    def bincount_sum(self, idx, weights=None, minlength=0):
        with bucket("kernel"):
            return self.base.bincount_sum(idx, weights=weights, minlength=minlength)

    def scatter_min(self, *args):
        with bucket("kernel"):
            return self.base.scatter_min(*args)

    def pair_within(self, *args):
        with bucket("kernel"):
            return self.base.pair_within(*args)
