"""pytest plugin: split every rectangle kernel call over threads.

Loaded with ``-p tests.split_kernels``, it sets the numpy backend's
split threshold to 0, so every call that evaluates a (sink, source)
pair runs on threads (on a host with more than one usable core).  A
split call is bit-identical to an inline one, so every suite must pass
unchanged under it, pins included::

    PYTHONPATH=src python -m pytest -p tests.split_kernels tests/test_parallel_pins.py
"""

from repro.core.backend import NumpyBackend

NumpyBackend.SPLIT_PAIRS = 0
