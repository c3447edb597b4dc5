"""pytest plugin: split every force evaluation over threads.

Loaded with ``-p tests.split_kernels``, it sets the evaluators' split
threshold (:data:`repro.core.traversal.SPLIT_SINKS`) to 0, so every
force computation and every rectangle evaluation on a backend of more
than one thread is cut into runs, one per thread, at any size (on a
host with more than one usable core).  A split evaluation is
bit-identical to an inline one, so every suite must pass unchanged
under it, pins included::

    PYTHONPATH=src python -m pytest -p tests.split_kernels tests/test_parallel_pins.py
"""

from repro.core import traversal

traversal.SPLIT_SINKS = 0
