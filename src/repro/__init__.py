"""repro — reproduction of "The Space Simulator" (Warren, Fryer & Goda, SC'03).

A production-quality Python library that rebuilds the paper's entire
stack: the hashed oct-tree N-body/SPH application codes (``repro.core``,
``repro.sph``, ``repro.cosmology``), a calibrated simulation of the
294-processor gigabit-ethernet Beowulf cluster itself (``repro.machine``,
``repro.network``, ``repro.simmpi``, ``repro.cluster``), and the full
benchmark suite used in the paper's evaluation (``repro.stream``,
``repro.linpack``, ``repro.nas``, ``repro.spec``).

See DESIGN.md for the system inventory and the per-experiment index, and
EXPERIMENTS.md for paper-versus-measured results for every table and
figure.
"""

__version__ = "1.0.0"

from ._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".": (
        "analysis", "bem", "campaign", "cluster", "core", "cosmology", "galaxy", "linpack",
        "machine", "nas", "network", "obs", "pipeline", "resilience", "simmpi", "spec", "sph",
        "stream", "vortex",
    ),
})
